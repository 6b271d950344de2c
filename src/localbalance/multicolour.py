"""Unibalanced induced subgraphs of multicoloured hosts.

A vertex subset S of an r-coloured host induces a unibalanced subgraph
when every vertex of S meets all r colours among its edges inside S
(hosts carry no vertex colours, so the incidence reading is purely
edge-wise).  A locally balanced host always has such subsets; the sampler
below draws them Bernoulli-style, and the exhaustive search finds the
smallest one.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import log
from typing import Sequence

from .core import ColouredCompleteGraph, _as_fraction, _vertex_set, is_locally_balanced


@dataclass(frozen=True)
class SamplerConfig:
    """Sampling parameters derived from the balance level eps and r.

    zeta = (20/eps) (ln r + ln 1/eps) is the expected sample size and
    size_cap = (80/eps) ln 1/eps the acceptance cap; natural logarithms.
    The derivation needs zeta <= size_cap / 2, which holds exactly when
    r <= 1/eps (always true for a locally eps-balanced r-colouring).
    """

    eps: Fraction
    r: int
    max_draws: int = 64
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "eps", _as_fraction(self.eps))
        if not 0 < self.eps < 1:
            raise ValueError(f"need 0 < eps < 1, got {self.eps}")
        if self.r < 2:
            raise ValueError(f"need r >= 2, got {self.r}")
        if self.max_draws < 1:
            raise ValueError("max_draws must be >= 1")
        if self.zeta > self.size_cap / 2:
            raise ValueError(
                f"zeta = {self.zeta:.2f} exceeds size_cap/2 = {self.size_cap / 2:.2f}; "
                f"this needs r <= 1/eps (r={self.r}, eps={self.eps})"
            )

    @property
    def zeta(self) -> float:
        inv = 1.0 / float(self.eps)
        return 20.0 * inv * (log(self.r) + log(inv))

    @property
    def size_cap(self) -> float:
        inv = 1.0 / float(self.eps)
        return 80.0 * inv * log(inv)


def induced_unibalanced(G: ColouredCompleteGraph, S: Sequence[int]) -> bool:
    """True iff every vertex of the nonempty host vertex set S sees all r
    colours inside S."""
    verts = _vertex_set(S, G.n)
    if not verts:
        raise ValueError("S must be nonempty")
    mask = sum(1 << v for v in verts)
    return all(bits[v] & mask for bits in map(G.colour_bits, range(G.r)) for v in verts)


def sample_unibalanced_subset(
    G: ColouredCompleteGraph, config: SamplerConfig
) -> tuple[tuple[int, ...], int] | None:
    """Bernoulli(zeta/n) vertex samples until one induces a unibalanced
    subgraph of size <= size_cap; returns (subset, draws used) or None.

    Warns when the host is not locally eps-balanced, where the per-draw
    success guarantee has no backing.  zeta/n is clamped to 1 for small
    hosts (the formulas target large n).  ValueError, before any draw,
    unless config.r is the host's r: zeta and size_cap depend on r.
    """
    if config.r != G.r:
        raise ValueError(f"sampler config is for r={config.r}, the host has r={G.r}")
    if not is_locally_balanced(G, config.eps):
        warnings.warn(
            f"host is not locally {config.eps}-balanced; sampling is best-effort",
            stacklevel=2,
        )
    p = min(1.0, config.zeta / G.n)
    rng = random.Random(config.seed)
    for draw in range(1, config.max_draws + 1):
        S = tuple(v for v in range(G.n) if rng.random() < p)
        if not S or len(S) > config.size_cap:
            continue
        if induced_unibalanced(G, S):
            return S, draw
    return None


def min_unibalanced_subgraph(
    G: ColouredCompleteGraph, cap: int = 12
) -> tuple[int, ...] | None:
    """Lexicographically least smallest subset inducing a unibalanced
    subgraph, or None past the cap.

    Increasing-size DFS over sorted vertex choices, from k = r + 1 (a
    vertex needs r others to see r colours), or k = r + 2 for even r.  In
    a unibalanced (r+1)-set each vertex sees r distinct colours on its r
    edges, so the set is a proper r-edge-colouring of K_{r+1}.  For even r,
    m = r + 1 is odd, each colour class is a matching of at most (m - 1)/2
    edges, and r classes cover at most r(m - 1)/2 < C(m, 2) edges: K_m has
    chromatic index m, and no (r+1)-set is unibalanced.

    The state is the chosen list and the bitmask S of chosen vertices;
    chosen u misses colour c exactly when G.colour_bits(c)[u] & S == 0.
    With the next choice drawn from the pool {start, ..., n-1}, a node is
    pruned, exactly, when the pool holds fewer vertices than slots left
    (the loop bound), when a chosen vertex misses more colours than slots
    left (a new vertex adds one colour at it), or when a missing colour
    has no neighbour in the pool.  With one slot left the candidates are
    the pool vertices in every missing colour class, one accepted when it
    sees all r colours in S.  Children go in increasing order: the first
    hit is the least.
    """
    if not 1 <= cap <= 12:
        raise ValueError(f"cap must lie in 1..12, got {cap}")
    n, r = G.n, G.r
    nbrs = list(zip(*map(G.colour_bits, range(r))))
    full = (1 << n) - 1
    chosen: list[int] = []

    def dfs(start: int, S: int, slots: int) -> bool:
        pool = cand = full >> start << start
        for u in chosen:
            left = slots
            for m in nbrs[u]:
                if not m & S:
                    if not left or not m & pool:
                        return False
                    left -= 1
                    cand &= m
        if slots == 1:
            while cand:
                v = (cand & -cand).bit_length() - 1
                if all(m & S for m in nbrs[v]):
                    chosen.append(v)
                    return True
                cand &= cand - 1
            return False
        for v in range(start, n - slots + 1):
            chosen.append(v)
            if dfs(v + 1, S | 1 << v, slots - 1):
                return True
            chosen.pop()
        return False

    for k in range(r + 1 + (r % 2 == 0), min(cap, n) + 1):
        if dfs(0, 0, k):
            return tuple(chosen)
    return None


def min_unibalanced_subgraph_size(
    G: ColouredCompleteGraph, cap: int = 12
) -> int | None:
    """Smallest |S| inducing a unibalanced subgraph, or None past the cap."""
    witness = min_unibalanced_subgraph(G, cap)
    return None if witness is None else len(witness)

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

from .core import ColouredCompleteGraph, _as_fraction, _integer, _vertex_set, is_locally_balanced


@dataclass(frozen=True)
class SamplerConfig:
    """Sampling parameters: the balance level eps, the draw budget, the seed.

    On an r-coloured host, zeta(r) = (20/eps) (ln r + ln 1/eps) is the
    expected sample size and size_cap = (80/eps) ln 1/eps the acceptance
    cap; natural logarithms.  The derivation needs zeta(r) <= size_cap / 2,
    which holds exactly when r <= 1/eps (always true for a locally
    eps-balanced r-colouring); sample_unibalanced_subset refuses other hosts.
    """

    eps: Fraction
    max_draws: int = 64
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "eps", _as_fraction(self.eps))
        if not 0 < self.eps < 1:
            raise ValueError(f"need 0 < eps < 1, got {self.eps}")
        object.__setattr__(self, "max_draws", _integer(self.max_draws, "max_draws"))
        if self.max_draws < 1:
            raise ValueError("max_draws must be >= 1")
        object.__setattr__(self, "seed", _integer(self.seed, "seed"))

    def zeta(self, r: int) -> float:
        inv = 1.0 / float(self.eps)
        return 20.0 * inv * (log(r) + log(inv))

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
    hosts (the formulas target large n).  ValueError, before any draw or
    warning, unless the host's r <= 1/eps (see SamplerConfig).
    """
    zeta = config.zeta(G.r)
    # zeta > size_cap / 2 exactly when r > 1/eps; in floats the two sides
    # of r = 1/eps can compare either way
    if G.r * config.eps > 1:
        raise ValueError(
            f"zeta = {zeta:.2f} exceeds size_cap/2 = {config.size_cap / 2:.2f}; "
            f"this needs r <= 1/eps (r={G.r}, eps={config.eps})"
        )
    if not is_locally_balanced(G, config.eps):
        warnings.warn(
            f"host is not locally {config.eps}-balanced; sampling is best-effort",
            stacklevel=2,
        )
    p = min(1.0, zeta / G.n)
    rng = random.Random(config.seed)
    for draw in range(1, config.max_draws + 1):
        S = tuple(v for v in range(G.n) if rng.random() < p)
        if not S or len(S) > config.size_cap:
            continue
        if induced_unibalanced(G, S):
            return S, draw
    return None


def _previous_twins(G: ColouredCompleteGraph) -> list[int]:
    """For each vertex v, the largest u < v that is v's twin (the same
    colour as v to every third vertex), or -1 if there is none.

    Twinhood is an equivalence, and a class of two or more twins is a
    clique of one colour c.  With the table's diagonal set to c, two
    vertices are twins in colour c exactly when their rows are equal, so
    one pass per colour over the byte rows finds every class.
    """
    n = G.n
    table = bytearray(G.table().tobytes())
    prev = [-1] * n
    for c in range(G.r):
        table[::n + 1] = bytes([c]) * n
        rows = bytes(table)
        last: dict[bytes, int] = {}
        for v in range(n):
            row = rows[v * n:(v + 1) * n]
            if row in last:
                prev[v] = last[row]
            last[row] = v
    return prev


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

    Twins (see _previous_twins) are chosen in order: a vertex is allowed
    only when it has no earlier twin or its previous twin is in S, in
    the loop and in the one-slot candidates alike.  The least unibalanced
    k-set has this form, since swapping a chosen vertex for a missing
    earlier twin is an automorphism of the host that gives a smaller
    sorted tuple; the pool cuts above stay over all vertices, so the
    restricted search still reaches it first.  On an m-blow-up each part
    contributes only its first vertices, so a size k is refuted once
    instead of up to m^k times.
    """
    if not 1 <= _integer(cap, "cap") <= 12:
        raise ValueError(f"cap must lie in 1..12, got {cap}")
    n, r = G.n, G.r
    nbrs = list(zip(*map(G.colour_bits, range(r))))
    full = (1 << n) - 1
    prev = _previous_twins(G)
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
                t = prev[v]
                if (t < 0 or S >> t & 1) and all(m & S for m in nbrs[v]):
                    chosen.append(v)
                    return True
                cand &= cand - 1
            return False
        for v in range(start, n - slots + 1):
            t = prev[v]
            if t < 0 or S >> t & 1:
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

"""From many pattern copies to a homogeneous blow-up, constructively.

The pipeline mirrors the inductive extraction argument it implements:

1. draw a uniformly random equitable partition V1..Vl of the host; the
   canonical pattern copies (vertex i of the pattern embedded in Vi) form
   an l-partite l-uniform hypergraph, which a DFS over the first l-1
   parts emits directly as (l-1)-prefixes with bitmasks of their last
   coordinates;
2. clean the hypergraph so that every (l-1)-prefix has degree 0 or at
   least threshold * |Vl|;
3. recurse on the shadow (the prefixes), obtaining sets U1..U_{l-1} on
   which the pair colouring is constant per part, together with an
   explicit matching A of disjoint prefixes;
4. in the bipartite incidence between A and Vl (R adjacent to v whenever
   R+v survives cleaning), grow a complete bipartite subgraph A' x T;
5. extract a monochromatic clique S_l inside T greedily.

Sizes are whatever the run achieves; callers compare against their target
and retry with fresh partitions.  All randomness flows from the config
seed; every tie in the deterministic steps breaks lexicographically.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import comb, log, prod
from operator import index
from typing import Iterator, Sequence

from .core import ColouredCompleteGraph, Rational, _as_fraction
from .patterns import BlowupWitness, TotallyColouredPattern, _bits, clique_colour, verify_witness


def _check_in_host(parts: Sequence[Sequence[int]], G: ColouredCompleteGraph) -> None:
    """Sorted nonempty parts must hold host vertices only."""
    if any(p[0] < 0 or p[-1] >= G.n for p in parts):
        raise ValueError(f"parts must hold host vertices in range({G.n})")


def _checked_parts(parts: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """parts as sorted tuples, checked nonempty and disjoint (no vertex twice)."""
    out = tuple(tuple(sorted(p)) for p in parts)
    if not all(out):
        raise ValueError("empty part")
    if len(set().union(*out)) != sum(map(len, out)):
        raise ValueError("parts must be disjoint")
    return out


@dataclass(frozen=True, slots=True)
class CanonicalHypergraph:
    """An l-partite l-uniform hypergraph of pattern copies.

    A plain record: by_prefix maps the (l-1)-prefix of each edge (i-th
    coordinate in part i) to the bitmask of its last coordinates.  The
    constructor checks nothing.  The invariants: parts are sorted, disjoint
    and nonempty; masks are nonzero; keys are in lexicographic order;
    edge_count is the sum of the masks' popcounts.  The entry points that
    take outside data, from_edges and canonical_hypergraph, check them;
    min_degree_cleanup and shadow keep them by construction.
    """

    parts: tuple[tuple[int, ...], ...]
    by_prefix: dict[tuple[int, ...], int]
    edge_count: int

    @classmethod
    def from_edges(
        cls, parts: Sequence[Sequence[int]], edges: Sequence[tuple[int, ...]]
    ) -> "CanonicalHypergraph":
        parts = _checked_parts(parts)
        l = len(parts)
        part_sets = [set(p) for p in parts]
        by_prefix: dict[tuple[int, ...], int] = {}
        for e in edges:
            if len(e) != l:
                raise ValueError(f"edge {e} does not have one vertex per part")
            for i, v in enumerate(e):
                if v not in part_sets[i]:
                    raise ValueError(f"vertex {v} of edge {e} is not in part {i}")
            prefix, last = tuple(e[:-1]), e[-1]
            mask = by_prefix.get(prefix, 0)
            if (mask >> last) & 1:
                raise ValueError(f"duplicate edge {e}")
            by_prefix[prefix] = mask | (1 << last)
        return cls(parts, {k: by_prefix[k] for k in sorted(by_prefix)}, len(edges))

    @property
    def ell(self) -> int:
        return len(self.parts)

    @property
    def is_empty(self) -> bool:
        return not self.by_prefix

    def edges(self) -> Iterator[tuple[int, ...]]:
        for prefix, mask in self.by_prefix.items():
            for v in _bits(mask):
                yield prefix + (v,)

    def shadow(self) -> "CanonicalHypergraph":
        """The hypergraph of (l-1)-prefixes of the edges, on parts[:-1];
        sorted prefixes give sorted keys, and each prefix is one edge."""
        if self.ell < 2:
            raise ValueError("shadow needs l >= 2")
        by: dict[tuple[int, ...], int] = {}
        for p in self.by_prefix:
            head = p[:-1]
            by[head] = by.get(head, 0) | 1 << p[-1]
        return CanonicalHypergraph(self.parts[:-1], by, len(self.by_prefix))


def min_degree_cleanup(
    Hg: CanonicalHypergraph, threshold: Rational
) -> CanonicalHypergraph:
    """Drop every edge whose prefix R has 0 < d(R) < threshold * |V_l|.

    Each edge has exactly one prefix, so prefix degrees are independent and
    one pass reaches the (order-independent, idempotent) fixpoint: the
    unique maximal subhypergraph in which every present prefix has degree
    at least threshold * |V_l|.
    """
    thr = _as_fraction(threshold)
    if thr < 0:
        raise ValueError(f"threshold must be >= 0, got {thr}")
    # a degree k satisfies k >= thr * |V_l| exactly when k >= its ceiling
    cut = -(-thr.numerator * len(Hg.parts[-1]) // thr.denominator)
    kept: dict[tuple[int, ...], int] = {}
    count = 0
    for prefix, mask in Hg.by_prefix.items():
        degree = mask.bit_count()
        if degree >= cut:
            kept[prefix] = mask
            count += degree
    return CanonicalHypergraph(Hg.parts, kept, count)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FinderConfig:
    """Knobs of the extraction pipeline.

    c caps the per-level cleanup threshold, which never exceeds
    edges/(l * prod |V_i|) either, so cleanup keeps a positive fraction of
    the edges; c also sets the reported paperTargetT.  The star step's
    exact-or-greedy limit is the module constant STAR_SEARCH_BUDGET.
    """

    c: Fraction = Fraction(1, 8)
    seed: int = 0
    max_partition_retries: int = 64

    def __post_init__(self):
        object.__setattr__(self, "c", _as_fraction(self.c))
        if not 0 < self.c <= 1:
            raise ValueError(f"need 0 < c <= 1, got {self.c}")
        if self.max_partition_retries < 1:
            raise ValueError("budgets must be >= 1")


# ---------------------------------------------------------------------------
# Canonical partitions
# ---------------------------------------------------------------------------

def _random_equitable_partition(
    rng: random.Random, n: int, l: int
) -> tuple[tuple[int, ...], ...]:
    verts = list(range(n))
    rng.shuffle(verts)
    base, extra = divmod(n, l)
    parts = []
    at = 0
    for i in range(l):
        size = base + (1 if i < extra else 0)
        parts.append(tuple(sorted(verts[at : at + size])))
        at += size
    return tuple(parts)


def canonical_hypergraph(
    G: ColouredCompleteGraph,
    H: TotallyColouredPattern,
    parts: Sequence[Sequence[int]],
) -> CanonicalHypergraph:
    """All embeddings of H's edge colouring with vertex i inside parts[i].

    parts must be l nonempty, disjoint sets of host vertices (ValueError
    otherwise).  The DFS fixes vertices in parts[0..l-2] and stores each
    surviving prefix with the candidate mask of the last part, which
    pruning keeps nonzero; prefixes are inserted in lexicographic order.
    """
    l = H.num_vertices
    parts = _checked_parts(parts)
    if len(parts) != l:
        raise ValueError(f"need one part per pattern vertex ({l}), got {len(parts)}")
    _check_in_host(parts, G)
    by_prefix: dict[tuple[int, ...], int] = {}
    if any(H.edge_colour(i, j) >= G.r for i in range(l) for j in range(i + 1, l)):
        return CanonicalHypergraph(parts, by_prefix, 0)
    bits = [G.colour_bits(c) for c in range(G.r)]
    chosen = [0] * (l - 1)

    def rec(i: int, masks: tuple[int, ...]) -> None:
        if i == l - 1:
            by_prefix[tuple(chosen)] = masks[i]
            return
        for v in _bits(masks[i]):
            nxt = []
            for j in range(i + 1, l):
                m = masks[j] & bits[H.edge_colour(i, j)][v]
                if not m:
                    break
                nxt.append(m)
            else:
                chosen[i] = v
                rec(i + 1, masks[: i + 1] + tuple(nxt))

    rec(0, tuple(sum(1 << v for v in p) for p in parts))
    del rec  # break the rec <-> closure-cell cycle so the DFS state is freed by refcount
    return CanonicalHypergraph(parts, by_prefix, sum(m.bit_count() for m in by_prefix.values()))


# ---------------------------------------------------------------------------
# KST-style complete bipartite subgraphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BipartiteIncidence:
    """Bipartite graph between abstract items A and host vertices B.

    nbrs[i] is the bitmask (over host vertex ids) of the B-neighbours of
    a_items[i]; b_mask restricts B.
    """

    a_items: tuple
    nbrs: tuple[int, ...]
    b_mask: int


@dataclass(frozen=True)
class StarResult:
    members: tuple          # chosen A-side items, in choice order
    common: int             # bitmask of their common neighbourhood
    mode: str               # "greedy" or "exact"


def _greedy_star_trajectory(F: BipartiteIncidence) -> list[tuple[int, int]]:
    """Greedy order of A-items: repeatedly add the item keeping the common
    neighbourhood largest (ties to the earliest item).  Returns a list of
    (item index, common mask after adding it)."""
    remaining = list(range(len(F.a_items)))
    common = F.b_mask
    out: list[tuple[int, int]] = []
    while remaining:
        best_i, best_sz = None, -1
        for i in remaining:
            sz = (F.nbrs[i] & common).bit_count()
            if sz > best_sz:
                best_i, best_sz = i, sz
        common &= F.nbrs[best_i]
        out.append((best_i, common))
        remaining.remove(best_i)
    return out


# the largest C(|A|, s) the star step searches exactly; greedy above
STAR_SEARCH_BUDGET = 200_000


def kst_star(F: BipartiteIncidence, s: int) -> StarResult | None:
    """A complete bipartite subgraph with |S| = s on the A side.

    Exact maximisation of |T| over s-subsets when C(|A|, s) is at most
    STAR_SEARCH_BUDGET, otherwise the first s items of the greedy
    trajectory; None when every examined choice has an empty common
    neighbourhood.
    """
    if s < 1:
        raise ValueError(f"need s >= 1, got {s}")
    m = len(F.a_items)
    if s > m:
        return None
    if comb(m, s) <= STAR_SEARCH_BUDGET:
        best: tuple[int, tuple[int, ...], int] | None = None
        for combo in itertools.combinations(range(m), s):
            common = F.b_mask
            for i in combo:
                common &= F.nbrs[i]
                if not common:
                    break
            if common:
                key = common.bit_count()
                if best is None or key > best[0]:
                    best = (key, combo, common)
        if best is None:
            return None
        _, combo, common = best
        return StarResult(tuple(F.a_items[i] for i in combo), common, "exact")
    traj = _greedy_star_trajectory(F)[:s]
    common = traj[-1][1]
    if not common:
        return None
    return StarResult(tuple(F.a_items[i] for i, _ in traj), common, "greedy")


# ---------------------------------------------------------------------------
# Greedy multicolour Ramsey
# ---------------------------------------------------------------------------

def ramsey_bound(n: int, r: int) -> int:
    """floor(log_{2r} n): the clique size the contract promises."""
    if n < 1:
        return 0
    k = 0
    while (2 * r) ** (k + 1) <= n:
        k += 1
    return k


def _exact_mono_clique(
    verts: int, G: ColouredCompleteGraph, k: int
) -> tuple[tuple[int, ...], int] | None:
    """Smallest-colour, lexicographically least monochromatic k-clique
    inside the vertex mask verts, or None.  Exhaustive over G's colour
    bitmasks, candidates in increasing vertex order; intended for small k."""

    def grow(chosen: tuple[int, ...], cand: int) -> tuple[int, ...] | None:
        if len(chosen) == k:
            return chosen
        if len(chosen) + cand.bit_count() < k:
            return None
        for v in _bits(cand):
            got = grow(chosen + (v,), cand & adj[v] & ~((1 << (v + 1)) - 1))
            if got is not None:
                return got
        return None

    for colour in range(G.r):
        adj = G.colour_bits(colour)
        found = grow((), verts)
        if found is not None:
            return found, colour
    return None


def ramsey_clique(
    vertices: Sequence[int], G: ColouredCompleteGraph
) -> tuple[tuple[int, ...], int]:
    """Greedy monochromatic clique among the given vertices of G.

    Repeatedly takes the least live vertex and restricts to its majority
    colour neighbourhood (ties to the smallest colour), then keeps the
    most frequent out-colour class.  If the greedy result falls short of
    floor(log_{2r} n) - it provably cannot for r = 2 - an exact search for
    a clique of that size is attempted.  Returns (sorted clique, colour);
    a single-vertex clique reports colour 0.  Raises ValueError for an
    empty input, a vertex outside range(G.n) or a repeated vertex, and
    TypeError for a vertex that is not an integer.
    """
    verts = sorted(vertices)
    if not verts:
        raise ValueError("ramsey_clique needs at least one vertex")
    if verts[0] < 0 or verts[-1] >= G.n:
        raise ValueError(f"vertices must lie in range({G.n})")
    everything = sum(1 << index(v) for v in verts)  # no int64 shift overflow
    if everything.bit_count() != len(verts):
        raise ValueError("vertices must not repeat")
    # the chain takes increasing vertices, so each class is sorted and the
    # last live vertex (which closes every class) is the largest
    classes: list[list[int]] = [[] for _ in range(G.r)]
    live = everything
    while True:
        v = (live & -live).bit_length() - 1
        live ^= 1 << v
        if not live:
            break
        buckets = [G.neighbours(c, v) & live for c in range(G.r)]
        best_c = max(range(G.r), key=lambda c: buckets[c].bit_count())
        classes[best_c].append(v)
        live = buckets[best_c]
    # with every class empty the clique is the single last vertex, colour 0
    colour = max(range(G.r), key=lambda c: len(classes[c]))
    clique = tuple(classes[colour]) + (v,)

    bound = ramsey_bound(len(verts), G.r)
    if len(clique) < bound:
        exact = _exact_mono_clique(everything, G, bound)
        if exact is not None:
            return exact
    return clique, colour


# ---------------------------------------------------------------------------
# The covering recursion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoverResult:
    """Sets S1..Sl with constant pair colouring inside each, every cross
    pair covered by a hypergraph edge, and an explicit matching of
    |S1| disjoint edges on their union."""

    sets: tuple[tuple[int, ...], ...]
    colours: tuple[int, ...]
    matching: tuple[tuple[int, ...], ...]
    notes: tuple[str, ...] = field(default=())

    @property
    def min_size(self) -> int:
        return min(len(s) for s in self.sets)


def hypergraph_cover(
    Hg: CanonicalHypergraph, G: ColouredCompleteGraph, config: FinderConfig
) -> CoverResult:
    """Run the inductive covering extraction on a nonempty hypergraph
    whose parts hold vertices of the host G.

    The split size s is chosen by sweeping the greedy star trajectory and
    maximising min(s, clique found in the common neighbourhood); kst_star
    then refines the star at that s, exactly when C(|A|, s) is at most
    STAR_SEARCH_BUDGET.  The Ramsey steps run on G's colour bitmasks.
    """
    if Hg.is_empty:
        raise ValueError("hypergraph_cover needs a nonempty hypergraph")
    _check_in_host(Hg.parts, G)
    l = Hg.ell
    if l == 1:
        s1, colour = ramsey_clique(list(_bits(Hg.by_prefix[()])), G)
        return CoverResult((s1,), (colour,), tuple((v,) for v in s1), ("base",))

    adaptive = Fraction(Hg.edge_count, l * prod(map(len, Hg.parts)))
    threshold = min(config.c, adaptive)
    L = min_degree_cleanup(Hg, threshold)
    assert not L.is_empty, "cleanup below the adaptive threshold cannot empty"

    sub = hypergraph_cover(L.shadow(), G, config)
    A = sub.matching
    F = BipartiteIncidence(
        a_items=A,
        nbrs=tuple(L.by_prefix.get(R, 0) for R in A),
        b_mask=sum(1 << v for v in L.parts[-1]),
    )

    traj = _greedy_star_trajectory(F)
    best_s, best_score, best_state = 0, -1, None
    for s in range(1, len(traj) + 1):
        common = traj[s - 1][1]
        t_size = common.bit_count()
        if t_size == 0 or t_size <= best_score:
            break
        if s <= best_score:
            continue
        clique, colour = ramsey_clique(list(_bits(common)), G)
        score = min(s, len(clique))
        if score > best_score:
            best_s, best_score = s, score
            best_state = (tuple(F.a_items[i] for i, _ in traj[:s]), clique, colour, "greedy")
    assert best_state is not None, "a nonempty cleaned hypergraph yields s = 1"

    # the star at the chosen size; over the limit kst_star's greedy branch
    # returns the sweep's own state at best_s, which best_state already holds
    star = kst_star(F, best_s)
    assert star is not None, "the sweep found a nonempty common neighbourhood at best_s"
    if star.mode == "exact":
        clique, colour = ramsey_clique(list(_bits(star.common)), G)
        if min(best_s, len(clique)) >= best_score:
            best_state = (star.members, clique, colour, "exact")

    chosen_prefixes, s_last, colour_last, mode = best_state
    s_final = min(len(chosen_prefixes), len(s_last))
    chosen_prefixes = chosen_prefixes[:s_final]

    sets = tuple(
        tuple(sorted(R[i] for R in chosen_prefixes)) for i in range(l - 1)
    ) + (s_last,)
    colours = tuple(clique_colour(G, S) for S in sets[:-1]) + (colour_last,)
    if None in colours:
        raise AssertionError("cover set is not a monochromatic clique of the host")
    matching = tuple(
        R + (v,) for R, v in zip(chosen_prefixes, s_last[:s_final])
    )
    return CoverResult(sets, colours, matching, sub.notes + (mode,))


# ---------------------------------------------------------------------------
# End-to-end extraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlowupFinderResult:
    witness: BlowupWitness | None
    achieved_t: int
    asymptotic_target_t: float
    attempts: int
    canonical_copies: int
    met_target: bool | None
    part_colours: tuple[int, ...] | None
    mode: str

    def to_dict(self) -> dict:
        return {
            "t": self.achieved_t,
            "parts": [list(p) for p in self.witness.parts] if self.witness else [],
            "partColours": list(self.part_colours) if self.part_colours else [],
            "mode": self.mode,
            "paperTargetT": self.asymptotic_target_t,
            "attempts": self.attempts,
            "canonicalCopies": self.canonical_copies,
            "metTarget": self.met_target,
        }


def asymptotic_target_size(n: int, l: int, r: int, c: Fraction) -> float:
    """The asymptotic blow-up size min{c/2l, 1/(2r log r)}^l * log n.

    Natural logarithms; at desk scale this is usually far below 1 and is
    reported for context only (the CLI surfaces it as paperTargetT).
    """
    return min(float(c) / (2 * l), 1.0 / (2 * r * log(r))) ** l * log(n) if n > 1 else 0.0


def find_homogeneous_blowup(
    G: ColouredCompleteGraph,
    pattern: TotallyColouredPattern,
    config: FinderConfig,
    target_t: int | None = None,
) -> BlowupFinderResult:
    """Extract a homogeneous blow-up of the pattern's edge colouring.

    Each attempt draws one fresh equitable partition, builds the canonical
    hypergraph and runs the covering recursion on G;
    attempts stop early once target_t is reached (retrying partitions is
    the pipeline's observable success criterion).  Every returned witness
    passes verify_witness(..., homogeneous=True); parts are truncated to
    the common achieved size t.
    """
    l = pattern.num_vertices
    if l > 8:
        raise ValueError("blow-up extraction supports patterns with l <= 8")
    if G.n < l:
        raise ValueError(f"host has {G.n} < l = {l} vertices")
    asymptotic_t = asymptotic_target_size(G.n, l, G.r, config.c)
    rng = random.Random(config.seed)
    best: BlowupFinderResult | None = None
    for attempt in range(1, config.max_partition_retries + 1):
        Hg = canonical_hypergraph(G, pattern, _random_equitable_partition(rng, G.n, l))
        if Hg.is_empty:
            w, t, colours, mode = None, 0, None, "no-copies"
        else:
            cover = hypergraph_cover(Hg, G, config)
            t = cover.min_size
            w = BlowupWitness(
                pattern,
                tuple(tuple(s[:t]) for s in cover.sets),
                t,
                homogeneous=True,
            )
            if not verify_witness(G, w):
                raise AssertionError("extraction produced an invalid witness")
            colours, mode = cover.colours, "+".join(cover.notes)
        candidate = BlowupFinderResult(
            w, t, asymptotic_t, attempt, Hg.edge_count,
            None if target_t is None else t >= target_t, colours, mode,
        )
        if best is None or candidate.achieved_t > best.achieved_t:
            best = candidate
        if target_t is not None and best.achieved_t >= target_t:
            break
    assert best is not None
    return replace(best, attempts=attempt)

"""From many pattern copies to a homogeneous blow-up, constructively.

The pipeline mirrors the inductive extraction argument it implements;
hypergraph_cover runs steps 2-5 on any level with cleaned_shadow and rows:

1. draw a uniformly random equitable partition V1..Vl of the host; the
   canonical pattern copies (vertex i of the pattern embedded in Vi) form
   an l-partite l-uniform hypergraph, built level by level as numpy arrays
   up to its (l-2)-prefixes, with the packed uint64 candidate masks of the
   later parts; its top level is never built, only a degree grid: per
   (l-2)-prefix and vertex x of V_{l-1}, the number of copies through both;
2. clean the hypergraph so that every (l-1)-prefix has degree 0 or at
   least threshold * |Vl| and take its shadow (cleaned_shadow; at the top,
   the grid's cells at or past the cut, packed per (l-2)-prefix);
3. recurse on the shadow (the prefixes), obtaining sets U1..U_{l-1} on
   which the pair colouring is constant per part, together with an
   explicit matching A of disjoint prefixes;
4. in the bipartite incidence between A and Vl (R adjacent to v whenever
   R+v survives cleaning), grow a complete bipartite subgraph A' x T; at
   the top the rows of A are rebuilt from the level below, each as its
   head's candidates in Vl AND one row of a pair table;
5. extract a monochromatic clique S_l inside T greedily.

Sizes are whatever the run achieves; callers compare against their target
and retry with fresh partitions.  All randomness flows from the finder's
seed; every tie in the deterministic steps breaks lexicographically.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import comb, log, prod
from typing import Iterator, Sequence

import numpy as np

from .core import (
    ColouredCompleteGraph, Rational, _as_fraction, _bits, _checked_parts, _integer, _pack,
    _row_masks, _unpack, _vertex_set,
)
from .patterns import (
    BlowupWitness, TotallyColouredPattern, _blowup_search, clique_colour, verify_witness,
)

# prefixes are stored as int32 host vertices
_VERTEX_LIMIT = 2**31


def _grouped(heads: np.ndarray, last: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows sorted by (head, last), none twice, as one row per head: the
    distinct heads and the packed masks of their last entries (< width)."""
    words = -(-width // 64)
    if not len(heads):
        return heads, np.zeros((0, words), dtype=np.uint64)
    new = np.ones(len(heads), dtype=bool)
    new[1:] = (heads[1:] != heads[:-1]).any(axis=1)
    # (group, word) keys never decrease, and no bit repeats within one
    key = (np.cumsum(new) - 1) * words + (last >> 6)
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    masks = np.zeros((int(new.sum()), words), dtype=np.uint64)
    bit = np.left_shift(np.uint64(1), (last & 63).astype(np.uint64))
    masks.ravel()[key[starts]] = np.bitwise_or.reduceat(bit, starts)
    return heads[new], masks


@dataclass(frozen=True, slots=True, eq=False)
class CanonicalHypergraph:
    """An l-partite l-uniform hypergraph of pattern copies.

    A plain record of arrays: row e of prefixes (E x (l-1), int32) holds
    the first l-1 coordinates of some edges, as host vertices, and row e of
    masks (E x ceil(|V_l|/64), uint64) their last coordinates, bit k
    standing for the k-th smallest vertex of parts[-1].  The constructor
    checks nothing.  The invariants: parts are sorted, disjoint and
    nonempty; prefixes are sorted lexicographically with none twice; mask
    rows are nonzero with no bit past |V_l|; edge_count is the masks'
    popcount.  The entry points that take outside data, from_edges and
    canonical_hypergraph, check them; min_degree_cleanup, shadow and the
    degree grid's cleaned shadow keep them by construction.
    """

    parts: tuple[tuple[int, ...], ...]
    prefixes: np.ndarray
    masks: np.ndarray
    edge_count: int

    @classmethod
    def from_edges(
        cls, parts: Sequence[Sequence[int]], edges: Sequence[tuple[int, ...]]
    ) -> "CanonicalHypergraph":
        parts = _checked_parts(parts, _VERTEX_LIMIT)
        l = len(parts)
        part_sets = [set(p) for p in parts]
        rows = []
        for e in edges:
            try:
                e = tuple(_integer(v, "vertex", _VERTEX_LIMIT) for v in e)
            except TypeError:
                raise ValueError(f"edge {e!r} is not a sequence of vertices") from None
            if len(e) != l:
                raise ValueError(f"edge {e} does not have one vertex per part")
            for i, v in enumerate(e):
                if v not in part_sets[i]:
                    raise ValueError(f"vertex {v} of edge {e} is not in part {i}")
            rows.append(e)
        table = np.array(rows, dtype=np.int32).reshape(len(rows), l)
        table = table[np.lexsort(table.T[::-1])]
        repeated = np.flatnonzero((table[1:] == table[:-1]).all(axis=1))
        if len(repeated):
            raise ValueError(f"duplicate edge {tuple(table[repeated[0]].tolist())}")
        last = np.searchsorted(np.array(parts[-1]), table[:, -1])
        prefixes, masks = _grouped(table[:, :-1], last, len(parts[-1]))
        return cls(parts, prefixes, masks, len(rows))

    @property
    def ell(self) -> int:
        return len(self.parts)

    @property
    def is_empty(self) -> bool:
        return not len(self.prefixes)

    def edges(self) -> Iterator[tuple[int, ...]]:
        last = self.parts[-1]
        for prefix, row in zip(self.prefixes.tolist(), self.masks):
            for k in np.flatnonzero(_unpack(row, len(last))).tolist():
                yield (*prefix, last[k])

    def shadow(self) -> "CanonicalHypergraph":
        """The hypergraph of (l-1)-prefixes of the edges, on parts[:-1];
        sorted prefixes give sorted heads, and each prefix is one edge."""
        if self.ell < 2:
            raise ValueError("shadow needs l >= 2")
        prev = self.parts[-2]
        last = np.searchsorted(np.array(prev), self.prefixes[:, -1])
        heads, masks = _grouped(self.prefixes[:, :-1], last, len(prev))
        return CanonicalHypergraph(self.parts[:-1], heads, masks, len(self.prefixes))

    def cleaned_shadow(self, threshold: Rational) -> "CanonicalHypergraph":
        """The level the cover recurses on: min_degree_cleanup, then shadow."""
        return min_degree_cleanup(self, threshold).shadow()

    def rows(self, prefixes: Sequence[Sequence[int]]) -> np.ndarray:
        """The masks of the given (l-1)-prefixes (KeyError for one without
        edges), which cleanup keeps or drops whole."""
        return self.masks[[_row_of(self.prefixes, R) for R in prefixes]]


def _row_of(prefixes: np.ndarray, prefix: Sequence[int]) -> int:
    """The row of prefix in the sorted prefix array, found by binary search
    one column at a time: a column is sorted where the earlier ones agree."""
    lo, hi = 0, len(prefixes)
    for c, v in enumerate(prefix):
        col = prefixes[lo:hi, c]
        lo, hi = lo + int(np.searchsorted(col, v)), lo + int(np.searchsorted(col, v, "right"))
    if lo == hi:
        raise KeyError(tuple(prefix))
    return lo


def _degree_cut(threshold: Rational, width: int) -> int:
    """The least positive degree k with k >= threshold * width, for a
    threshold >= 0 (ValueError otherwise); a prefix of degree 0 has no edge."""
    thr = _as_fraction(threshold)
    if thr < 0:
        raise ValueError(f"threshold must be >= 0, got {thr}")
    # k >= thr * width exactly when k >= its ceiling
    return max(1, -(-thr.numerator * width // thr.denominator))


def min_degree_cleanup(
    Hg: CanonicalHypergraph, threshold: Rational
) -> CanonicalHypergraph:
    """Drop every edge whose prefix R has 0 < d(R) < threshold * |V_l|.

    Each edge has exactly one prefix, so prefix degrees are independent and
    one pass reaches the (order-independent, idempotent) fixpoint: the
    unique maximal subhypergraph in which every present prefix has degree
    at least threshold * |V_l|.
    """
    degrees = np.bitwise_count(Hg.masks).sum(axis=1, dtype=np.int64)
    keep = degrees >= _degree_cut(threshold, len(Hg.parts[-1]))
    return CanonicalHypergraph(
        Hg.parts, Hg.prefixes[keep], Hg.masks[keep], int(degrees[keep].sum())
    )


# the paper's constant c: it caps each level's cleanup threshold
# (_cover_threshold); it also sets the reported paperTargetT
CLEANUP_CAP = Fraction(1, 8)


def _cover_threshold(edge_count: int, parts: tuple[tuple[int, ...], ...]) -> Fraction:
    """The cover's cleanup threshold: CLEANUP_CAP, or edges / (l * prod |V_i|)
    when that is lower, so that cleanup keeps a positive fraction of the edges."""
    return min(CLEANUP_CAP, Fraction(edge_count, len(parts) * prod(map(len, parts))))


# ---------------------------------------------------------------------------
# Canonical partitions
# ---------------------------------------------------------------------------

def _random_equitable_partition(
    rng: random.Random, n: int, l: int
) -> tuple[tuple[int, ...], ...]:
    verts = list(range(n))
    rng.shuffle(verts)
    base, extra = divmod(n, l)
    # the first extra parts get one vertex more
    ends = [i * base + min(i, extra) for i in range(l + 1)]
    return tuple(tuple(sorted(verts[a:b])) for a, b in zip(ends, ends[1:]))


# the largest level, in bytes of prefixes and candidate masks (or of the
# top level's degree grid), that the copy build allocates
LEVEL_BYTES_LIMIT = 1 << 30
# expanded rows per build step, which bounds one level's temporaries
_BUILD_CHUNK = 1 << 16


def _check_level(level: int, rows: int, need: int) -> None:
    """Refuse a level of need bytes past LEVEL_BYTES_LIMIT, before it is allocated."""
    if need > LEVEL_BYTES_LIMIT:
        raise ValueError(
            f"level {level} of the canonical hypergraph has {rows} candidate "
            f"prefixes ({need} bytes), over LEVEL_BYTES_LIMIT = {LEVEL_BYTES_LIMIT}"
        )


def _expand(
    prefixes: np.ndarray, cands: list[np.ndarray], part: np.ndarray, tables: list[np.ndarray]
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Each prefix extended by each candidate in its first candidate set, in
    row-major (so lexicographic) order, ANDing the later candidate sets with
    the pattern's colour rows; extensions that empty a later part drop."""
    src, ks = np.nonzero(_unpack(cands[0], len(part)))
    nxt = [c[src] & t[ks] for c, t in zip(cands[1:], tables)]
    keep = np.logical_and.reduce([m.any(axis=1) for m in nxt])
    grown = np.column_stack((prefixes[src[keep]], part[ks[keep]]))
    return grown, [m[keep] for m in nxt]


def _copy_levels(
    G: ColouredCompleteGraph, H: TotallyColouredPattern, parts: Sequence[Sequence[int]],
    depth: int,
) -> tuple[tuple[tuple[int, ...], ...], dict, np.ndarray, list[np.ndarray]]:
    """The copy build's level loop, run to the depth-prefixes: the checked
    parts, the pattern's pair tables, the sorted depth-prefixes of copies
    and, per prefix, the packed candidates of each part from depth on.

    Level i extends every i-prefix by each vertex of part i still joined
    to it in the pattern's colours and drops the prefixes that empty a
    later part.  Before a level is allocated its rows are counted; a level
    past LEVEL_BYTES_LIMIT raises ValueError.
    """
    l = H.num_vertices
    parts = _checked_parts(parts, G.n)
    if len(parts) != l:
        raise ValueError(f"need one part per pattern vertex ({l}), got {len(parts)}")
    verts = [np.array(p, dtype=np.int32) for p in parts]
    table = G.table()
    # bit k of row u of pair (i, j): the k-th vertex of part j has the
    # pattern's colour to the u-th vertex of part i (none for a colour >= r)
    pair = {
        (i, j): _pack(table[np.ix_(verts[i], verts[j])] == H.edge_colour(i, j))
        for i, j in itertools.combinations(range(l), 2)
    }
    prefixes = np.zeros((1, 0), dtype=np.int32)
    # cands[j - i]: per prefix, the candidates of part j >= i
    cands = [_pack(np.ones((1, len(p)), dtype=bool)) for p in parts]
    for i in range(depth):
        rows = int(np.bitwise_count(cands[0]).sum())
        _check_level(i + 1, rows, rows * (4 * (i + 1) + 8 * sum(c.shape[1] for c in cands[1:])))
        tables = [pair[i, j] for j in range(i + 1, l)]
        step = max(1, _BUILD_CHUNK // len(parts[i]))
        # one chunk at least, so that a level after an emptied one keeps its shapes
        pieces = [
            _expand(prefixes[a:a + step], [c[a:a + step] for c in cands], verts[i], tables)
            for a in range(0, max(1, len(prefixes)), step)
        ]
        prefixes = np.concatenate([grown for grown, _ in pieces])
        cands = [np.concatenate(ms) for ms in zip(*(nxt for _, nxt in pieces))]
        del pieces
    return parts, pair, prefixes, cands


def canonical_hypergraph(
    G: ColouredCompleteGraph,
    H: TotallyColouredPattern,
    parts: Sequence[Sequence[int]],
) -> CanonicalHypergraph:
    """All embeddings of H's edge colouring with vertex i inside parts[i].

    parts must be l nonempty, disjoint sets of host vertices (ValueError
    otherwise).  The level loop of _copy_levels, run to the (l-1)-prefixes:
    the candidates left in the last part are the masks.  A level past
    LEVEL_BYTES_LIMIT raises ValueError before it is allocated.
    """
    parts, _, prefixes, cands = _copy_levels(G, H, parts, H.num_vertices - 1)
    masks = cands[0]
    return CanonicalHypergraph(parts, prefixes, masks, int(np.bitwise_count(masks).sum()))


@dataclass(frozen=True, slots=True, eq=False)
class _TopLevel:
    """The canonical hypergraph of an l >= 2 pattern without its top level.

    heads (P x (l-2), int32) are the sorted (l-2)-prefixes of the copies,
    last (P x ceil(|V_l|/64), uint64) their packed candidates in the last
    part, and pair the packed pair table of parts l-2 and l-1 (row k: the
    k-th vertex of parts[-2]).  degrees[h, k] (uint16: at most |V_l| <= 2048)
    counts the copies through heads[h] and that vertex: the popcount of
    last[h] & pair[k] where the vertex is a candidate of heads[h], else 0;
    edge_count is their sum.  A top-level row, the mask of one
    (l-1)-prefix, is rebuilt on demand.
    """

    parts: tuple[tuple[int, ...], ...]
    heads: np.ndarray
    last: np.ndarray
    pair: np.ndarray
    degrees: np.ndarray
    edge_count: int

    def cleaned_shadow(self, threshold: Rational) -> CanonicalHypergraph:
        """min_degree_cleanup(canonical_hypergraph(...), threshold).shadow()
        in one step: the cells at or past the cut, packed per head in
        _BUILD_CHUNK-cell steps, with the heads left empty dropped."""
        cut, width = _degree_cut(threshold, len(self.parts[-1])), self.degrees.shape[1]
        kept = np.empty((len(self.heads), -(-width // 64)), dtype=np.uint64)
        step = max(1, _BUILD_CHUNK // width)
        for a in range(0, len(kept), step):
            kept[a:a + step] = _pack(self.degrees[a:a + step] >= cut)
        rows = kept.any(axis=1)
        return CanonicalHypergraph(
            self.parts[:-1], self.heads[rows], kept[rows], int(np.bitwise_count(kept).sum())
        )

    def rows(self, prefixes: Sequence[Sequence[int]]) -> np.ndarray:
        """The top-level masks of the given (l-1)-prefixes of copies: each
        its head's last-part candidates AND the pair-table row of its last
        vertex (KeyError for a head that is not a prefix of a copy)."""
        heads = [_row_of(self.heads, R[:-1]) for R in prefixes]
        xs = np.searchsorted(np.array(self.parts[-2]), [R[-1] for R in prefixes])
        return self.last[heads] & self.pair[xs]


def _top_level(
    G: ColouredCompleteGraph, H: TotallyColouredPattern, parts: Sequence[Sequence[int]]
) -> _TopLevel:
    """The level loop to the (l-2)-prefixes, then the degree grid, filled
    chunk by chunk; it is sized against LEVEL_BYTES_LIMIT, as level l-1,
    before it is allocated.  parts as for canonical_hypergraph, l >= 2."""
    l = H.num_vertices
    parts, pair, heads, (cands, last) = _copy_levels(G, H, parts, l - 2)
    table, width = pair[l - 2, l - 1], len(parts[-2])
    rows = int(np.bitwise_count(cands).sum())
    _check_level(l - 1, rows, 2 * len(heads) * width)
    degrees = np.zeros((len(heads), width), dtype=np.uint16)
    step = max(1, _BUILD_CHUNK // width)
    for a in range(0, len(heads), step):
        block = degrees[a:a + step]
        # one word at a time: each step is a (rows x width) popcount
        for w in range(last.shape[1]):
            block += np.bitwise_count(last[a:a + step, w, None] & table[:, w])
        block *= _unpack(cands[a:a + step], width)
    return _TopLevel(parts, heads, last, table, degrees, int(degrees.sum(dtype=np.int64)))


# ---------------------------------------------------------------------------
# KST-style complete bipartite subgraphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BipartiteIncidence:
    """Bipartite graph between abstract items A and the positions of B.

    nbrs[i] is the bitmask of the B-neighbours of a_items[i], bit k standing
    for the k-th element of B (in the cover, the k-th smallest vertex of
    the last part); b_mask restricts B.
    """

    a_items: tuple
    nbrs: tuple[int, ...]
    b_mask: int


def _greedy_star_order(F: BipartiteIncidence) -> Iterator[tuple[int, int]]:
    """The greedy star order: repeatedly add the item keeping the common
    neighbourhood largest (ties to the earliest item), as (item index,
    common mask after adding it)."""
    remaining = list(range(len(F.a_items)))
    common = F.b_mask
    while remaining:
        best = max(remaining, key=lambda i: (F.nbrs[i] & common).bit_count())
        common &= F.nbrs[best]
        remaining.remove(best)
        yield best, common


@dataclass(frozen=True)
class StarResult:
    members: tuple          # chosen A-side items, in choice order
    common: int             # bitmask of their common neighbourhood
    mode: str               # "greedy" or "exact"


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
    traj = list(itertools.islice(_greedy_star_order(F), s))
    common = traj[-1][1]
    if not common:
        return None
    return StarResult(tuple(F.a_items[i] for i, _ in traj), common, "greedy")


# ---------------------------------------------------------------------------
# Greedy multicolour Ramsey
# ---------------------------------------------------------------------------

def ramsey_bound(n: int, r: int) -> int:
    """floor(log_{2r} n), or 0 for n < 1, for integers n and r >= 2 (_integer)."""
    n, r = _integer(n, "n"), _integer(r, "r")
    if r < 2:
        raise ValueError(f"need r >= 2, got r={r}")
    k = 0
    while (2 * r) ** (k + 1) <= n:
        k += 1
    return k


def ramsey_clique(
    vertices: Sequence[int], G: ColouredCompleteGraph
) -> tuple[tuple[int, ...], int]:
    """Greedy monochromatic clique among the given vertices of G.

    Repeatedly takes the least live vertex and restricts to its majority
    colour neighbourhood (ties to the smallest colour), then keeps the
    most frequent out-colour class.  If the greedy result falls short of
    floor(log_{2r} n) - it provably cannot for r = 2 - an exact search for
    a clique of that size is attempted.  Returns (sorted clique, colour);
    a single-vertex clique reports colour 0.  Raises ValueError unless
    vertices is a nonempty set of distinct host vertices.
    """
    verts = _vertex_set(vertices, G.n)
    if not verts:
        raise ValueError("ramsey_clique needs at least one vertex")
    everything = sum(1 << v for v in verts)
    # the chain takes increasing vertices, so each class is sorted and the
    # last live vertex (which closes every class) is the largest
    classes: list[list[int]] = [[] for _ in range(G.r)]
    bits = [G.colour_bits(c) for c in range(G.r)]
    live = everything
    while True:
        v = (live & -live).bit_length() - 1
        live ^= 1 << v
        if not live:
            break
        buckets = [rows[v] & live for rows in bits]
        best_c = max(range(G.r), key=lambda c: buckets[c].bit_count())
        classes[best_c].append(v)
        live = buckets[best_c]
    # with every class empty the clique is the single last vertex, colour 0
    colour = max(range(G.r), key=lambda c: len(classes[c]))
    clique = tuple(classes[colour]) + (v,)

    bound = ramsey_bound(len(verts), G.r)
    if len(clique) < bound:
        # a monochromatic k-clique is a k-blow-up of the one-vertex pattern
        for c in range(G.r):
            exact = _blowup_search(G, (everything,), (c,), ((0,),), bound)
            if exact is not None:
                return exact[0], c
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


def hypergraph_cover(Hg: CanonicalHypergraph | _TopLevel, G: ColouredCompleteGraph) -> CoverResult:
    """Run the inductive covering extraction on a nonempty hypergraph
    whose parts hold vertices of the host G (ValueError otherwise): a
    CanonicalHypergraph or the finder's degree grid (_TopLevel).

    The cover of the level's cleaned shadow at _cover_threshold, then
    _star_step on the level's rows of its matching.
    """
    if not Hg.edge_count:
        raise ValueError("hypergraph_cover needs a nonempty hypergraph")
    # from_edges cannot know G.n; each part is the last at one level of the recursion
    _vertex_set(Hg.parts[-1], G.n)
    if len(Hg.parts) == 1:
        s1, colour = ramsey_clique([v for v, in Hg.edges()], G)
        return CoverResult((s1,), (colour,), tuple((v,) for v in s1), ("base",))

    shadow = Hg.cleaned_shadow(_cover_threshold(Hg.edge_count, Hg.parts))
    assert not shadow.is_empty, "cleanup below the adaptive threshold cannot empty"
    sub = hypergraph_cover(shadow, G)
    return _star_step(sub, Hg.rows(sub.matching), Hg.parts[-1], G)


def _star_step(
    sub: CoverResult, rows: np.ndarray, last: tuple[int, ...], G: ColouredCompleteGraph
) -> CoverResult:
    """The cover's last level, given the cover sub of the cleaned shadow and
    rows, the (cleaned) masks of its matching's prefixes over the last part.

    The split size s is chosen by sweeping the greedy star trajectory and
    maximising min(s, clique found in the common neighbourhood); when
    C(|A|, s) is at most STAR_SEARCH_BUDGET, kst_star's exact search then
    refines the star at that s.  The star incidence is over positions in
    the last part, whose order is the vertex order, so popcounts and ties
    are those of host-vertex masks; the Ramsey steps run on G's colour
    bitmasks.
    """
    A = sub.matching
    F = BipartiteIncidence(a_items=A, nbrs=_row_masks(rows), b_mask=(1 << len(last)) - 1)

    best_s, best_score, best_state = 0, -1, None
    chosen: list[int] = []
    for s, (i, common) in enumerate(_greedy_star_order(F), 1):
        t_size = common.bit_count()
        if t_size == 0 or t_size <= best_score:
            break
        chosen.append(i)
        clique, colour = ramsey_clique([last[k] for k in _bits(common)], G)
        score = min(s, len(clique))
        if score > best_score:
            best_s, best_score = s, score
            best_state = (tuple(F.a_items[j] for j in chosen), clique, colour, "greedy")
    assert best_state is not None, "a nonempty cleaned hypergraph yields s = 1"

    # the exact star at the chosen size, within the budget; over it kst_star
    # would return the sweep's first best_s steps, which best_state holds
    if comb(len(A), best_s) <= STAR_SEARCH_BUDGET:
        star = kst_star(F, best_s)
        assert star is not None, "the sweep found a nonempty common neighbourhood at best_s"
        clique, colour = ramsey_clique([last[k] for k in _bits(star.common)], G)
        if min(best_s, len(clique)) >= best_score:
            best_state = (star.members, clique, colour, "exact")

    chosen_prefixes, s_last, colour_last, mode = best_state
    s_final = min(len(chosen_prefixes), len(s_last))
    chosen_prefixes = chosen_prefixes[:s_final]

    sets = tuple(
        tuple(sorted(R[i] for R in chosen_prefixes)) for i in range(len(sub.sets))
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


def asymptotic_target_size(n: int, l: int, r: int) -> float:
    """The asymptotic blow-up size min{c/2l, 1/(2r log r)}^l * log n, with
    c = CLEANUP_CAP, for integers n, l >= 1 and r >= 2 (_integer).

    Natural logarithms; at desk scale this is usually far below 1 and is
    reported for context only (the CLI surfaces it as paperTargetT).
    """
    n, l, r = _integer(n, "n"), _integer(l, "l"), _integer(r, "r")
    if l < 1 or r < 2:
        raise ValueError(f"need l >= 1 and r >= 2, got l={l}, r={r}")
    return min(float(CLEANUP_CAP) / (2 * l), 1 / (2 * r * log(r))) ** l * log(n) if n > 1 else 0.0


def _check_budgets(retries: object, target_t: object) -> tuple[int, int | None]:
    """The partition budget as an int >= 1 and the target as None or an
    int >= 1 (ValueError otherwise)."""
    retries = _integer(retries, "retries")
    if retries < 1:
        raise ValueError("budgets must be >= 1")
    if target_t is None:
        return retries, None
    target_t = _integer(target_t, "target_t")
    if target_t < 1:
        raise ValueError(f"target_t must be >= 1, got {target_t}")
    return retries, target_t


def find_homogeneous_blowup(
    G: ColouredCompleteGraph,
    pattern: TotallyColouredPattern,
    *,
    seed: int = 0,
    retries: int = 64,
    target_t: int | None = None,
) -> BlowupFinderResult:
    """Extract a homogeneous blow-up of the pattern's edge colouring.

    Each of at most retries attempts draws one fresh equitable partition
    from seed, builds the canonical hypergraph (for l >= 2 up to its degree
    grid, _top_level) and runs hypergraph_cover on it; attempts stop
    early once target_t (an int >= 1, if given) is reached (retrying
    partitions is the pipeline's observable success criterion).  Every returned witness passes
    verify_witness(..., homogeneous=True); parts are truncated to the
    common achieved size t.
    """
    rng = random.Random(_integer(seed, "seed"))
    retries, target_t = _check_budgets(retries, target_t)
    l = pattern.num_vertices
    if l > 8:
        raise ValueError("blow-up extraction supports patterns with l <= 8")
    if G.n < l:
        raise ValueError(f"host has {G.n} < l = {l} vertices")
    asymptotic_t = asymptotic_target_size(G.n, l, G.r)
    build = canonical_hypergraph if l == 1 else _top_level
    best: BlowupFinderResult | None = None
    for attempt in range(1, retries + 1):
        Hg = build(G, pattern, _random_equitable_partition(rng, G.n, l))
        copies, cover = Hg.edge_count, hypergraph_cover(Hg, G) if Hg.edge_count else None
        del Hg  # before the next attempt builds its level
        if cover is None:
            w, t, colours, mode = None, 0, None, "no-copies"
        else:
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
            w, t, asymptotic_t, attempt, copies,
            None if target_t is None else t >= target_t, colours, mode,
        )
        if best is None or candidate.achieved_t > best.achieved_t:
            best = candidate
        if target_t is not None and best.achieved_t >= target_t:
            break
    assert best is not None
    return replace(best, attempts=attempt)

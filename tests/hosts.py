"""Small host builders shared by the tests, plus the reference paths the
fast code must reproduce: the per-entry edge-list loader and the per-pair
graph JSON writer, the per-pair random streams of make_random and
make_split, the per-pair split violations and split cost, the 2^n split
cost table, the set-based smallest-unibalanced search, the pairwise twin
test, the O(n^4) K4 census, the triangle-by-triangle 4-clique count
and the brute-force M1 count, with the two-phase build of the census
class system from hand-derived statistic rows, the class tables and the
exhaustive isomorphism checks they use, the combination-loop blow-up
search, the pair-colouring Ramsey step, and the dict-of-masks canonical
hypergraph (copy DFS, cleanup and shadow)."""

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from typing import Callable, Sequence

import numpy as np

from localbalance import (
    BipartiteColouring,
    BlowupWitness,
    CanonicalHypergraph,
    ColouredCompleteGraph,
    PatternCensus,
    TotallyColouredPattern,
    induced_unibalanced,
    ramsey_bound,
)
from localbalance.core import (
    GraphFormatError, Rational, _as_fraction, _bits, _checked_parts, _edge_triple,
)
from localbalance.census import (
    CLASS_KEYS,
    CLASS_REPS,
    NUM_CLASSES,
    STAT_IDS,
    _PAIR_INDEX,
    _PAIRS,
    _canonical,
    _code_tuple,
    _require_two_colours,
)
from localbalance.patterns import clique_colour

RED, BLUE = 0, 1


def graph_from(n: int, r: int, colour) -> ColouredCompleteGraph:
    """The graph with colour(u, v) on each pair u < v, asked in row-major order."""
    table = np.zeros((n, n), dtype=np.uint8)
    for u in range(n):
        for v in range(u + 1, n):
            table[u, v] = table[v, u] = colour(u, v)
    return ColouredCompleteGraph(n, r, table)


def from_edges_reference(n: int, r: int, edges) -> ColouredCompleteGraph:
    """ColouredCompleteGraph.from_edges one entry at a time: the first
    malformed, out-of-range or repeated entry in list order is the error,
    then a wrong entry count."""
    unset = 0xFF  # never a colour, since r <= 255
    rows = [bytearray([unset]) * n for _ in range(n)]
    count = 0
    for e in edges:
        u, v, c = _edge_triple(e, n, r)
        if rows[u][v] != unset:
            raise GraphFormatError(f"duplicate edge ({u},{v})")
        rows[u][v] = c
        rows[v][u] = c
        count += 1
    if count != comb(n, 2):
        raise GraphFormatError(f"expected {comb(n, 2)} edges, got {count}")
    return ColouredCompleteGraph(n, r, rows)


def outcome(build: Callable[[], object]) -> object:
    """What build() returns, or the type and message of the ValueError
    (GraphFormatError included) it raises."""
    try:
        return build()
    except ValueError as exc:
        return type(exc), str(exc)


def graph_to_json_reference(G: ColouredCompleteGraph, compact: bool = False) -> dict:
    """graph_to_json by the per-pair comprehension."""
    if compact:
        if G.r > 10:
            raise GraphFormatError("compact format supports at most 10 colours")
        rows = [
            "".join(str(G.colour(u, v)) for v in range(u + 1, G.n))
            for u in range(G.n)
        ]
        return {"n": G.n, "r": G.r, "rows": rows}
    edges = [[u, v, G.colour(u, v)] for u in range(G.n) for v in range(u + 1, G.n)]
    return {"n": G.n, "r": G.r, "edges": edges}


def bipartite_from(nx: int, ny: int, colour) -> BipartiteColouring:
    """The bipartite colouring with colour(x, y) on each edge (0 red, 1 blue),
    asked in row-major order."""
    red = np.zeros((nx, ny), dtype=bool)
    for x in range(nx):
        for y in range(ny):
            c = colour(x, y)
            if c not in (0, 1):
                raise ValueError(f"bipartite colour must be 0 or 1, got {c}")
            red[x, y] = c == 0
    return BipartiteColouring(red)


def make_random_reference(n: int, r: int, seed: int) -> ColouredCompleteGraph:
    """One rng.randrange(r) call per pair u < v: the stream make_random draws in bulk."""
    rng = random.Random(seed)
    return graph_from(n, r, lambda u, v: rng.randrange(r))


def make_split_reference(a: int, b: int, seed: int = 0, flips: int = 0) -> ColouredCompleteGraph:
    """make_split by one rng.randrange(2) per cross pair, in row-major order
    over all pairs, then the sampled pairs toggled one at a time."""
    n = a + b
    if a < 0 or b < 0 or n < 2:
        raise ValueError(f"need a, b >= 0 and a + b >= 2, got ({a},{b})")
    if flips < 0 or flips > comb(n, 2):
        raise ValueError(f"flips must lie in [0, C(n,2)], got {flips}")
    rng = random.Random(seed)
    rows = [bytearray(n) for _ in range(n)]
    pairs = []
    for u in range(n):
        for v in range(u + 1, n):
            if v < a:
                c = RED
            elif u >= a:
                c = BLUE
            else:
                c = rng.randrange(2)
            rows[u][v] = rows[v][u] = c
            pairs.append((u, v))
    for idx in sorted(rng.sample(range(len(pairs)), flips)):
        u, v = pairs[idx]
        c = 1 - rows[u][v]
        rows[u][v] = rows[v][u] = c
    return ColouredCompleteGraph(n, 2, rows)


def flipped_edges_reference(G: ColouredCompleteGraph, red_mask: int) -> tuple[tuple[int, int], ...]:
    """The pairs the split with red side red_mask must flip, one G.colour
    call per pair."""
    out = []
    for u in range(G.n):
        for v in range(u + 1, G.n):
            inside_red = (red_mask >> u) & 1 and (red_mask >> v) & 1
            inside_blue = not ((red_mask >> u) & 1) and not ((red_mask >> v) & 1)
            c = G.colour(u, v)
            if (inside_red and c == BLUE) or (inside_blue and c == RED):
                out.append((u, v))
    return tuple(out)


def split_cost_reference(G: ColouredCompleteGraph, red_mask: int) -> int:
    """The number of those pairs, as half the per-vertex wrong-colour degrees."""
    full = (1 << G.n) - 1
    blue_mask = full & ~red_mask
    cost = 0
    for u in range(G.n):
        if (red_mask >> u) & 1:
            cost += (G.neighbours(BLUE, u) & red_mask).bit_count()
        else:
            cost += (G.neighbours(RED, u) & blue_mask).bit_count()
    return cost // 2


def closeness_table_reference(G: ColouredCompleteGraph) -> tuple[int, int]:
    """The 2^n cost table closeness_to_split once built, kept for n <= 20:
    one int32 entry per red-side mask, built one vertex at a time.  Once
    vertices 0..v-1 are placed, cost[:2^v] holds the cost of each of their
    placements.  With blue_low and red_low the masks of v's blue and red
    neighbours among them, vertex v then sets

        cost[2^v + m] = cost[m] + |m & blue_low|       (v red)
        cost[m]      += |red_low| - |m & red_low|      (v blue)

    for every m < 2^v.  Returns (fewest flips, lowest red-side mask
    attaining it)."""
    if G.n > 20:
        raise ValueError(f"the reference table takes 4 * 2^n bytes; need n <= 20, got {G.n}")
    cost = np.zeros(1 << G.n, dtype=np.int32)
    for v in range(G.n):
        half = 1 << v
        masks = np.arange(half, dtype=np.int32)
        blue_low = G.neighbours(BLUE, v) & (half - 1)
        red_low = G.neighbours(RED, v) & (half - 1)
        np.add(cost[:half], np.bitwise_count(masks & blue_low), out=cost[half:2 * half])
        cost[:half] -= np.bitwise_count(masks & red_low)
        cost[:half] += red_low.bit_count()
    best_mask = int(np.argmin(cost))  # first occurrence: lowest mask wins ties
    return int(cost[best_mask]), best_mask


def min_unibalanced_reference(G: ColouredCompleteGraph, cap: int = 12):
    """The set-based DFS min_unibalanced_subgraph replaced: per-vertex sets of
    missing colours, copied for every child.  Kept as the witness oracle."""
    n, r = G.n, G.r
    if n < 2:
        return None

    for k in range(2, min(cap, n) + 1):
        chosen: list[int] = []
        missing: list[set[int]] = []

        def feasible(start: int) -> bool:
            slots = k - len(chosen)
            pool = ((1 << n) - 1) & ~((1 << start) - 1)
            for v, miss in zip(chosen, missing):
                if len(miss) > slots:
                    return False
                for c in miss:
                    if not G.neighbours(c, v) & pool:
                        return False
            return True

        def dfs(start: int) -> bool:
            if len(chosen) == k:
                return all(not m for m in missing)
            if n - start < k - len(chosen):
                return False
            if not feasible(start):
                return False
            for v in range(start, n):
                new_missing = [miss - {G.colour(u, v)} for u, miss in zip(chosen, missing)]
                own = set(range(r)) - {G.colour(u, v) for u in chosen}
                saved = missing[:]
                chosen.append(v)
                missing[:] = new_missing + [own]
                if dfs(v + 1):
                    return True
                chosen.pop()
                missing[:] = saved
            return False

        if dfs(0):
            return tuple(chosen)
    return None


def naive_min_unibalanced(G: ColouredCompleteGraph, cap: int):
    """The first unibalanced k-subset, in lexicographic order, of the least
    k <= cap that has one, by plain enumeration; None if there is none."""
    for k in range(2, min(cap, G.n) + 1):
        for S in itertools.combinations(range(G.n), k):
            if induced_unibalanced(G, S):
                return S
    return None


def previous_twins_reference(G: ColouredCompleteGraph) -> list[int]:
    """For each vertex v, the largest u < v with the same colour as v to
    every third vertex, or -1: the definition of a twin, pair by pair."""
    return [
        max((u for u in range(v) if all(
            G.colour(u, w) == G.colour(v, w) for w in range(G.n) if w not in (u, v)
        )), default=-1)
        for v in range(G.n)
    ]


def with_twins(G: ColouredCompleteGraph, sizes: Sequence[int], colours: Sequence[int]) -> ColouredCompleteGraph:
    """G with vertex v replaced by a clique of sizes[v] consecutive vertices
    in colour colours[v]: a blow-up of G with unequal parts."""
    part = np.repeat(np.arange(G.n), sizes)
    quotient = G.table().copy()
    np.fill_diagonal(quotient, colours)
    return ColouredCompleteGraph(len(part), G.r, quotient[np.ix_(part, part)])


def relabelled(G: ColouredCompleteGraph, perm: Sequence[int]) -> ColouredCompleteGraph:
    """New graph with vertex i of G renamed perm[i]."""
    if sorted(perm) != list(range(G.n)):
        raise ValueError("perm must be a permutation of range(n)")
    inv = np.argsort(perm)  # new vertex perm[i] is old vertex i
    return ColouredCompleteGraph(G.n, G.r, G.table()[np.ix_(inv, inv)])


# --- the K4 class tables and the enumeration census -------------------------

# the statistic rows of census.STAT_IDS derived by hand on one K4, the
# oracle for the rows census.py computes with its kernel
_COMPLEMENT = {p: tuple(x for x in range(4) if x not in p) for p in _PAIRS}

_APEX_CAT = {
    frozenset(("rr",)): 0,
    frozenset(("bb",)): 1,
    frozenset(("rr", "bb")): 2,
    frozenset(("rr", "m1")): 3,
    frozenset(("rr", "m2")): 3,
    frozenset(("bb", "m1")): 4,
    frozenset(("bb", "m2")): 4,
    frozenset(("m1", "m2")): 5,
    frozenset(("m1",)): 6,
    frozenset(("m2",)): 6,
}


def _apex_type(code: Sequence[int], u: int, v: int, w: int) -> str:
    cu = code[_PAIR_INDEX[tuple(sorted((u, w)))]]
    cv = code[_PAIR_INDEX[tuple(sorted((v, w)))]]
    if cu == RED and cv == RED:
        return "rr"
    if cu == BLUE and cv == BLUE:
        return "bb"
    return "m1" if cu == RED else "m2"


def _class_stat_row(code: Sequence[int]) -> list[int]:
    st: dict = {}
    for (u, v) in _PAIRS:
        w, x = _COMPLEMENT[(u, v)]
        pc = code[_PAIR_INDEX[(u, v)]]
        cat = _APEX_CAT[frozenset((_apex_type(code, u, v, w), _apex_type(code, u, v, x)))]
        st[("p", pc, cat)] = st.get(("p", pc, cat), 0) + 1
    for v in range(4):
        red = sum(code[_PAIR_INDEX[tuple(sorted((v, w)))]] == RED for w in range(4) if w != v)
        blue = 3 - red
        for k, val in enumerate((comb(red, 3), comb(red, 2) * blue, red * comb(blue, 2), comb(blue, 3))):
            st[("v", k)] = st.get(("v", k), 0) + val
    for tri in itertools.combinations(range(4), 3):
        red = sum(code[_PAIR_INDEX[tuple(sorted(p))]] == RED for p in itertools.combinations(tri, 2))
        st[("t", red)] = st.get(("t", red), 0) + 1
    reds = sum(1 for c in code if c == RED)
    st[("e", RED)] = reds
    st[("e", BLUE)] = 6 - reds
    st[("k4", RED)] = 1 if reds == 6 else 0
    st[("k4", BLUE)] = 1 if reds == 0 else 0
    st["total"] = 1
    return [st.get(sid, 0) for sid in STAT_IDS]


def census_tables_reference() -> dict:
    """The census class system, built apart from census.py's one-pass build:
    canonical codes by re-sorting the pair keys under each of the 24
    permutations, one hand-derived _class_stat_row call per coefficient
    (census.py runs its kernel on each class's K4 instead), a greedy
    elimination that picks the first 11 independent statistic rows and a
    second Gauss-Jordan pass that inverts them.  Returns the census module's
    tables by name, plus "canonical", the canonical form of each 6-bit code."""

    def canonical(code):
        best = None
        for perm in itertools.permutations(range(4)):
            t = tuple(code[_PAIR_INDEX[tuple(sorted((perm[a], perm[b])))]] for (a, b) in _PAIRS)
            if best is None or t < best:
                best = t
        return best

    reps = tuple(sorted({canonical(_code_tuple(p)) for p in range(64)}))
    k = len(reps)
    coeff = tuple(tuple(_class_stat_row(rep)[i] for rep in reps) for i in range(len(STAT_IDS)))
    chosen, basis = [], []
    for i in range(len(coeff)):
        work = [Fraction(x) for x in coeff[i]]
        for row in basis:
            lead = next(j for j, x in enumerate(row) if x != 0)
            if work[lead] != 0:
                f = work[lead] / row[lead]
                work = [a - f * b for a, b in zip(work, row)]
        if any(x != 0 for x in work):
            basis.append(work)
            chosen.append(i)
        if len(chosen) == k:
            break
    if len(chosen) != k:
        raise AssertionError("census statistic system is rank-deficient")
    m = [[Fraction(coeff[i][j]) for j in range(k)] for i in chosen]
    inv = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
    for col in range(k):
        piv = next(rr for rr in range(col, k) if m[rr][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        pv = m[col][col]
        m[col] = [x / pv for x in m[col]]
        inv[col] = [x / pv for x in inv[col]]
        for rr in range(k):
            if rr != col and m[rr][col] != 0:
                f = m[rr][col]
                m[rr] = [a - f * b for a, b in zip(m[rr], m[col])]
                inv[rr] = [a - f * b for a, b in zip(inv[rr], inv[col])]
    inv = tuple(tuple(row) for row in inv)
    den = lcm(*(x.denominator for row in inv for x in row))

    def key(code):
        return "".join(map(str, canonical(code)))

    return {
        "canonical": tuple(canonical(_code_tuple(p)) for p in range(64)),
        "CLASS_REPS": reps,
        "CLASS_KEYS": tuple("".join(map(str, rep)) for rep in reps),
        "C4_KEY": key((0, 1, 0, 0, 1, 0)),
        "C4BAR_KEY": key((1, 0, 1, 1, 0, 1)),
        "P3O_KEY": key((1, 0, 0, 1, 0, 1)),
        "_COEFF": coeff,
        "_PIVOT_ROWS": tuple(chosen),
        "_PIVOT_INV": inv,
        "_PIVOT_DEN": den,
        "_PIVOT_NUM": tuple(tuple(int(x * den) for x in row) for row in inv),
    }


_CLASS_INDEX = {rep: i for i, rep in enumerate(CLASS_REPS)}


def _alternating_splits(code: Sequence[int]) -> int:
    """Number of 2+2 bipartitions of the K4 whose 4 cross edges alternate."""
    count = 0
    for (u, v), (w, x) in (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))):
        uw = code[_PAIR_INDEX[tuple(sorted((u, w)))]]
        ux = code[_PAIR_INDEX[tuple(sorted((u, x)))]]
        vw = code[_PAIR_INDEX[tuple(sorted((v, w)))]]
        vx = code[_PAIR_INDEX[tuple(sorted((v, x)))]]
        if uw != ux and vw != vx and uw != vw:
            count += 1
    return count


# packed 6-bit code -> class index, for the enumeration census
CODE_TO_CLASS: tuple[int, ...] = tuple(
    _CLASS_INDEX[_canonical(_code_tuple(p))] for p in range(64)
)

# class index -> class index under colour swap
CLASS_SWAP: tuple[int, ...] = tuple(
    _CLASS_INDEX[_canonical(tuple(1 - c for c in rep))] for rep in CLASS_REPS
)

ALTERNATING_SPLITS_PER_CLASS: tuple[int, ...] = tuple(
    _alternating_splits(rep) for rep in CLASS_REPS
)


def census_k4_reference(G: ColouredCompleteGraph) -> PatternCensus:
    """Classify every 4-subset directly.  O(n^4); the oracle census_k4 must match."""
    _require_two_colours(G)
    n = G.n
    counts = [0] * NUM_CLASSES
    lookup = CODE_TO_CLASS
    rows = G.table().tolist()
    for a in range(n - 3):
        ra = rows[a]
        for b in range(a + 1, n - 2):
            rb = rows[b]
            cab = ra[b]
            for c in range(b + 1, n - 1):
                rc = rows[c]
                base = cab | ra[c] << 1 | rb[c] << 3
                for d in range(c + 1, n):
                    counts[lookup[base | ra[d] << 2 | rb[d] << 4 | rc[d] << 5]] += 1
    return PatternCensus(n, dict(zip(CLASS_KEYS, counts)))


def mono_k4_reference(adj: np.ndarray) -> int:
    """4-cliques of a bool table, counted at their largest vertex: each
    triangle u < v < w, times the later vertices joined to all three."""
    n = adj.shape[0]
    tri = np.array([t for t in itertools.combinations(range(n), 3)
                    if adj[t[0], t[1]] and adj[t[0], t[2]] and adj[t[1], t[2]]],
                   dtype=np.intp).reshape(-1, 3)
    common = adj[tri[:, 0]] & adj[tri[:, 1]] & adj[tri[:, 2]]
    return int((common & (np.arange(n) > tri[:, 2:])).sum())


def m1_copies_in_quadruples(census: PatternCensus) -> int:
    """Total alternating-C4 bipartitions over all 4-subsets of the host."""
    return sum(
        census.counts[key] * alt
        for key, alt in zip(CLASS_KEYS, ALTERNATING_SPLITS_PER_CLASS)
    )


def count_m1_reference(B: BipartiteColouring) -> int:
    """Brute-force M1 count by enumerating every {x,x'} x {y,y'} quadruple."""
    red = B.red.tolist()
    total = 0
    for x1, x2 in itertools.combinations(range(B.nx), 2):
        for y1, y2 in itertools.combinations(range(B.ny), 2):
            a, b = red[x1][y1], red[x1][y2]
            c, d = red[x2][y1], red[x2][y2]
            if a != b and c != d and a != c:
                total += 1
    return total


# --- exhaustive checks on small coloured objects (at most 8 vertices) --------

def is_unibalanced(H: TotallyColouredPattern) -> bool:
    """True iff every vertex of the 2-blow-up H[2] touches all r colours.

    Equivalently: for each vertex i, its own colour together with its
    incident edge colours covers 0..r-1.
    """
    l, r = H.num_vertices, H.r
    for i in range(l):
        seen = {H.vertex_colour(i)}
        for j in range(l):
            if j != i:
                seen.add(H.edge_colour(i, j))
        if len(seen) < r:
            return False
    return True


def coloured_graphs_isomorphic(
    G1: ColouredCompleteGraph, G2: ColouredCompleteGraph
) -> bool:
    """Colour-preserving isomorphism of small edge-coloured complete graphs."""
    if G1.n != G2.n or G1.r != G2.r:
        return False
    if G1.n > 8:
        raise ValueError("exhaustive isomorphism supports n <= 8")
    n = G1.n
    for perm in itertools.permutations(range(n)):
        if all(
            G2.colour(perm[u], perm[v]) == G1.colour(u, v)
            for u in range(n)
            for v in range(u + 1, n)
        ):
            return True
    return False


def patterns_isomorphic(H1: TotallyColouredPattern, H2: TotallyColouredPattern) -> bool:
    """Isomorphism of totally coloured patterns.

    Vertex colours are compared unless both patterns flag them ignored.
    """
    if H1.num_vertices != H2.num_vertices or H1.r != H2.r:
        return False
    if H1.num_vertices > 8:
        raise ValueError("exhaustive isomorphism supports l <= 8")
    l = H1.num_vertices
    check_vertices = not (H1.vertex_colours_ignored and H2.vertex_colours_ignored)
    for perm in itertools.permutations(range(l)):
        if check_vertices and any(
            H2.vertex_colour(perm[i]) != H1.vertex_colour(i) for i in range(l)
        ):
            continue
        if all(
            H2.edge_colour(perm[i], perm[j]) == H1.edge_colour(i, j)
            for i in range(l)
            for j in range(i + 1, l)
        ):
            return True
    return False


# --- the exact blow-up search by combinations --------------------------------

def find_pattern_blowup_reference(
    G: ColouredCompleteGraph, H: TotallyColouredPattern, t: int, homogeneous: bool = False
) -> BlowupWitness | None:
    """The lexicographically least t-blow-up of H in G (parts in pattern
    order, each part sorted), or None, by the combination loop the
    vertex-by-vertex search replaced: each part tries every t-subset of its
    candidates in itertools.combinations order, checks it with
    clique_colour, and narrows the later parts' candidate masks."""
    l = H.num_vertices
    # t = 1 parts are vacuously monochromatic in any colour
    match_part_colours = not (homogeneous or H.vertex_colours_ignored) and t > 1
    used_colours = {H.edge_colour(i, j) for i in range(l) for j in range(i + 1, l)}
    if match_part_colours:
        used_colours.update(H.vertex_colours)
    if used_colours and max(used_colours) >= G.r:
        return None
    bits = [G.colour_bits(c) for c in range(G.r)]
    parts: list[tuple[int, ...]] = []

    def search(i: int, allowed: tuple[int, ...], used: int) -> BlowupWitness | None:
        if i == l:
            return BlowupWitness(H, tuple(parts), t, homogeneous)
        cands = list(_bits(allowed[i] & ~used))
        if len(cands) < t:
            return None
        for verts in itertools.combinations(cands, t):
            cc = clique_colour(G, verts)
            if cc is None or match_part_colours and cc != H.vertex_colour(i):
                continue
            new_allowed = list(allowed)
            for j in range(i + 1, l):
                for u in verts:
                    new_allowed[j] &= bits[H.edge_colour(i, j)][u]
            if not all(new_allowed[i + 1:]):
                continue
            parts.append(verts)
            found = search(i + 1, tuple(new_allowed), used | sum(1 << v for v in verts))
            if found is not None:
                return found
            parts.pop()
        return None

    return search(0, ((1 << G.n) - 1,) * l, 0)


# --- the Ramsey step on a pair colouring phi ----------------------------------

def exact_mono_clique_reference(
    verts: Sequence[int], phi: Callable[[int, int], int], r: int, k: int
) -> tuple[tuple[int, ...], int] | None:
    """Smallest-colour, lexicographically least monochromatic k-clique, or
    None.  Exhaustive with bitset pruning; intended for small k."""
    n = len(verts)
    if k > n:
        return None
    for colour in range(r):
        adj = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if phi(verts[i], verts[j]) == colour:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i

        def grow(chosen: list[int], cand: int) -> tuple[int, ...] | None:
            if len(chosen) == k:
                return tuple(chosen)
            if len(chosen) + cand.bit_count() < k:
                return None
            for i in _bits(cand):
                got = grow(chosen + [i], cand & adj[i] & ~((1 << (i + 1)) - 1))
                if got is not None:
                    return got
            return None

        found = grow([], (1 << n) - 1)
        if found is not None:
            return tuple(verts[i] for i in found), colour
    return None


def ramsey_clique_reference(
    vertices: Sequence[int], phi: Callable[[int, int], int], r: int
) -> tuple[tuple[int, ...], int]:
    """Greedy monochromatic clique under the pair colouring phi.

    Repeatedly takes the least live vertex and restricts to its majority
    colour neighbourhood (ties to the smallest colour), then keeps the
    most frequent out-colour class.  If the greedy result falls short of
    floor(log_{2r} n) - it provably cannot for r = 2 - an exact search for
    a clique of that size is attempted.  Returns (sorted clique, colour);
    a single-vertex clique reports colour 0.
    """
    verts = sorted(vertices)
    if not verts:
        raise ValueError("ramsey_clique needs at least one vertex")
    seq: list[tuple[int, int | None]] = []
    live = verts
    while live:
        v = live[0]
        rest = live[1:]
        if not rest:
            seq.append((v, None))
            break
        buckets: dict[int, list[int]] = {}
        for u in rest:
            buckets.setdefault(phi(v, u), []).append(u)
        best_c = min(buckets, key=lambda c: (-len(buckets[c]), c))
        seq.append((v, best_c))
        live = buckets[best_c]

    classes: dict[int, list[int]] = {c: [] for c in range(r)}
    tail: int | None = None
    for v, oc in seq:
        if oc is None:
            tail = v
        else:
            classes.setdefault(oc, []).append(v)
    best_c = min(classes, key=lambda c: (-len(classes[c]), c))
    clique = list(classes[best_c])
    if tail is not None:
        clique.append(tail)
    colour = best_c if len(clique) > 1 else 0

    bound = ramsey_bound(len(verts), r)
    if len(clique) < bound:
        exact = exact_mono_clique_reference(verts, phi, r, bound)
        if exact is not None:
            return exact
    return tuple(sorted(clique)), colour


# --- the canonical hypergraph as a prefix -> mask dict -----------------------

def prefix_masks(Hg: CanonicalHypergraph) -> dict[tuple[int, ...], int]:
    """Hg's rows as the dict the array record replaced: each (l-1)-prefix of
    host vertices, in row order, to the int mask over host vertices of its
    last coordinates."""
    last = Hg.parts[-1]
    bits = np.zeros((len(Hg.masks), last[-1] + 1), dtype=bool)
    bits[:, last] = np.unpackbits(Hg.masks.view(np.uint8), axis=1, count=len(last),
                                  bitorder="little")
    rows = np.packbits(bits, axis=1, bitorder="little")
    return {tuple(p): int.from_bytes(row.tobytes(), "little")
            for p, row in zip(Hg.prefixes.tolist(), rows)}


@dataclass(frozen=True, slots=True)
class DictHypergraph:
    """The dict-backed record the array record replaced: by_prefix maps each
    (l-1)-prefix, in lexicographic order, to the int mask over host
    vertices of its last coordinates."""

    parts: tuple[tuple[int, ...], ...]
    by_prefix: dict[tuple[int, ...], int]
    edge_count: int

    @property
    def ell(self) -> int:
        return len(self.parts)

    def shadow(self) -> "DictHypergraph":
        """The hypergraph of (l-1)-prefixes of the edges, on parts[:-1];
        sorted prefixes give sorted keys, and each prefix is one edge."""
        if self.ell < 2:
            raise ValueError("shadow needs l >= 2")
        by: dict[tuple[int, ...], int] = {}
        for p in self.by_prefix:
            head = p[:-1]
            by[head] = by.get(head, 0) | 1 << p[-1]
        return DictHypergraph(self.parts[:-1], by, len(self.by_prefix))


def min_degree_cleanup_reference(
    Hg: DictHypergraph, threshold: Rational
) -> DictHypergraph:
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
    return DictHypergraph(Hg.parts, kept, count)


def canonical_hypergraph_reference(
    G: ColouredCompleteGraph,
    H: TotallyColouredPattern,
    parts: Sequence[Sequence[int]],
) -> DictHypergraph:
    """All embeddings of H's edge colouring with vertex i inside parts[i].

    parts must be l nonempty, disjoint sets of host vertices (ValueError
    otherwise).  The DFS fixes vertices in parts[0..l-2] and stores each
    surviving prefix with the candidate mask of the last part, which
    pruning keeps nonzero; prefixes are inserted in lexicographic order.
    """
    l = H.num_vertices
    parts = _checked_parts(parts, G.n)
    if len(parts) != l:
        raise ValueError(f"need one part per pattern vertex ({l}), got {len(parts)}")
    by_prefix: dict[tuple[int, ...], int] = {}
    if any(H.edge_colour(i, j) >= G.r for i in range(l) for j in range(i + 1, l)):
        return DictHypergraph(parts, by_prefix, 0)
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
    return DictHypergraph(parts, by_prefix, sum(m.bit_count() for m in by_prefix.values()))

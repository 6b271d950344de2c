"""Exact censuses of small coloured subgraphs in 2-coloured complete graphs.

The central object is the census of 2-coloured K4s: every 4-subset of the
host induces one of the 11 isomorphism classes of 2-edge-colourings of K4
(equivalently, of the 11 graphs on 4 vertices, via the red subgraph).  The
class list is enumerated at import time by brute force over the 2^6
colourings modulo S4, so no hand-maintained table exists anywhere.

Two counting paths are provided and must agree exactly:

* a reference path that enumerates all C(n,4) quadruples, and
* an optimized path that computes 27 aggregate statistics (pair/codegree,
  vertex, triangle, edge and monochromatic-K4 counts) and solves an exact
  integer linear system for the 11 class counts.  The system has rank 11;
  the 16 redundant equations are verified on every call, so a disagreement
  anywhere surfaces as an error rather than a wrong count.

Kernel cost: the codegree products red@red, blue@blue and red@blue (blocks
of rows against the upper triangle, O(n^omega) BLAS work in all) and, for
the two monochromatic-K4 counts, one triangle count per vertex u inside its
forward neighbourhood N+(u) = {v > u : uv of that colour}, which is
sum_u |N+(u)|^3 BLAS flops.  All of it runs on 0/1 float64 matrices and is
exact: every codegree entry is an integer at most n, and every per-vertex
triangle sum at most n^3, so each partial sum is an integer below 2^53
while n <= 3000 (the size guard of the codegree path).  Products are cast
back to int64 under an exactness check, and the statistics and class counts
are Python ints.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from typing import Callable, Sequence

import numpy as np

from .core import ColouredCompleteGraph

RED, BLUE = 0, 1

# K4 pair order used for 6-bit colouring codes: bit k = colour of _PAIRS[k].
_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_PAIR_INDEX = {p: i for i, p in enumerate(_PAIRS)}
_COMPLEMENT = {p: tuple(x for x in range(4) if x not in p) for p in _PAIRS}


def _code_tuple(packed: int) -> tuple[int, ...]:
    return tuple((packed >> k) & 1 for k in range(6))


def _canonical(code: Sequence[int]) -> tuple[int, ...]:
    best = None
    for perm in itertools.permutations(range(4)):
        t = tuple(
            code[_PAIR_INDEX[tuple(sorted((perm[a], perm[b])))]] for (a, b) in _PAIRS
        )
        if best is None or t < best:
            best = t
    return best


def _swap_code(code: Sequence[int]) -> tuple[int, ...]:
    return tuple(1 - c for c in code)


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


# --- class table, built once at import ------------------------------------

CLASS_REPS: tuple[tuple[int, ...], ...] = tuple(
    sorted({_canonical(_code_tuple(p)) for p in range(64)})
)
NUM_CLASSES = len(CLASS_REPS)
assert NUM_CLASSES == 11, f"expected 11 classes of 2-coloured K4, found {NUM_CLASSES}"

CLASS_KEYS: tuple[str, ...] = tuple("".join(map(str, rep)) for rep in CLASS_REPS)
_CLASS_INDEX = {rep: i for i, rep in enumerate(CLASS_REPS)}

# packed 6-bit code -> class index, for the enumeration path
CODE_TO_CLASS: tuple[int, ...] = tuple(
    _CLASS_INDEX[_canonical(_code_tuple(p))] for p in range(64)
)

# class index -> class index under colour swap
CLASS_SWAP: tuple[int, ...] = tuple(
    _CLASS_INDEX[_canonical(_swap_code(rep))] for rep in CLASS_REPS
)

ALTERNATING_SPLITS_PER_CLASS: tuple[int, ...] = tuple(
    _alternating_splits(rep) for rep in CLASS_REPS
)

# named projections
C4_KEY = "".join(map(str, _canonical((0, 1, 0, 0, 1, 0))))      # red edges form a 4-cycle
C4BAR_KEY = "".join(map(str, _canonical((1, 0, 1, 1, 0, 1))))   # blue edges form a 4-cycle
P3O_KEY = "".join(map(str, _canonical((1, 0, 0, 1, 0, 1))))     # each colour a 3-edge path
MONO_RED_KEY = "000000"
MONO_BLUE_KEY = "111111"


# --- the 27-statistic linear system ----------------------------------------
#
# Statistics, each a sum over local configurations of the host:
#   ("p", pc, cat)  centre pair of colour pc with apex-pair category cat
#                   (cat: 0 rr+rr, 1 bb+bb, 2 rr+bb, 3 rr+mixed, 4 bb+mixed,
#                    5 opposite-orientation mixed, 6 same-orientation mixed)
#   ("v", k)        vertex with an unordered triple of neighbours, k of the
#                   categories C(r,3), C(r,2)b, rC(b,2), C(b,3)
#   ("t", j)        triangle with j red edges, scaled by (n-3)
#   ("e", c)        edge of colour c, scaled by C(n-2, 2)
#   ("k4", c)       monochromatic K4 of colour c (counted directly)
#   "total"         C(n, 4)
# Every statistic is a known integer combination of the 11 class counts.

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

STAT_IDS: tuple = tuple(
    [("p", pc, cat) for pc in (RED, BLUE) for cat in range(7)]
    + [("v", k) for k in range(4)]
    + [("t", j) for j in range(4)]
    + [("e", RED), ("e", BLUE)]
    + [("k4", RED), ("k4", BLUE), "total"]
)


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


_COEFF: tuple[tuple[int, ...], ...] = tuple(
    tuple(_class_stat_row(rep)[i] for rep in CLASS_REPS) for i in range(len(STAT_IDS))
)


def _pivot_rows_and_inverse() -> tuple[tuple[int, ...], tuple[tuple[Fraction, ...], ...]]:
    """Pick 11 independent statistic rows and invert them exactly."""
    nrows = len(_COEFF)
    chosen: list[int] = []
    basis: list[list[Fraction]] = []
    for i in range(nrows):
        cand = [Fraction(x) for x in _COEFF[i]]
        work = cand[:]
        for row in basis:
            lead = next(k for k, x in enumerate(row) if x != 0)
            if work[lead] != 0:
                f = work[lead] / row[lead]
                work = [a - f * b for a, b in zip(work, row)]
        if any(x != 0 for x in work):
            basis.append(work)
            chosen.append(i)
        if len(chosen) == NUM_CLASSES:
            break
    if len(chosen) != NUM_CLASSES:
        raise AssertionError("census statistic system is rank-deficient")
    # invert the 11x11 matrix of chosen rows by Gauss-Jordan over Fraction
    m = [[Fraction(_COEFF[i][j]) for j in range(NUM_CLASSES)] for i in chosen]
    inv = [[Fraction(int(i == j)) for j in range(NUM_CLASSES)] for i in range(NUM_CLASSES)]
    for col in range(NUM_CLASSES):
        piv = next(rr for rr in range(col, NUM_CLASSES) if m[rr][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        pv = m[col][col]
        m[col] = [x / pv for x in m[col]]
        inv[col] = [x / pv for x in inv[col]]
        for rr in range(NUM_CLASSES):
            if rr != col and m[rr][col] != 0:
                f = m[rr][col]
                m[rr] = [a - f * b for a, b in zip(m[rr], m[col])]
                inv[rr] = [a - f * b for a, b in zip(inv[rr], inv[col])]
    return tuple(chosen), tuple(tuple(row) for row in inv)


_PIVOT_ROWS, _PIVOT_INV = _pivot_rows_and_inverse()
# the inverse scaled to integers: counts = _PIVOT_NUM @ pivot statistics / _PIVOT_DEN
_PIVOT_DEN = lcm(*(x.denominator for row in _PIVOT_INV for x in row))
_PIVOT_NUM = tuple(tuple(int(x * _PIVOT_DEN) for x in row) for row in _PIVOT_INV)


@dataclass(frozen=True)
class PatternCensus:
    """Counts of 4-subsets by 2-coloured-K4 isomorphism class."""

    n: int
    counts: dict[str, int]  # class key -> number of 4-subsets

    @property
    def total_quadruples(self) -> int:
        return comb(self.n, 4)

    @property
    def count_c4(self) -> int:
        return self.counts[C4_KEY]

    @property
    def count_c4bar(self) -> int:
        return self.counts[C4BAR_KEY]

    @property
    def count_p3o(self) -> int:
        return self.counts[P3O_KEY]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "classes": dict(self.counts),
            "C4": self.count_c4,
            "C4bar": self.count_c4bar,
            "P3o": self.count_p3o,
        }


def _require_two_colours(G: ColouredCompleteGraph) -> None:
    if G.r != 2:
        raise ValueError(f"the K4 census is defined for r=2, got r={G.r}")


def census_k4_reference(G: ColouredCompleteGraph) -> PatternCensus:
    """Classify every 4-subset directly.  O(n^4); the oracle path."""
    _require_two_colours(G)
    n = G.n
    counts = [0] * NUM_CLASSES
    lookup = CODE_TO_CLASS
    rows = [G.row(u) for u in range(n)]
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


def _exact_int64(x: np.ndarray) -> np.ndarray:
    """Cast a float64 array of integer sums to int64, checking exactness."""
    out = x.astype(np.int64)
    if not np.array_equal(out, x):
        raise AssertionError("float64 codegree product is not an exact integer")
    return out


def _mono_k4_count(adj: np.ndarray) -> int:
    """Number of 4-cliques of a 0/1 float64 adjacency with zero diagonal.

    Each K4 is counted once, at its smallest vertex u, as a triangle of the
    forward neighbourhood N+(u) = {v > u : uv an edge}; with B the adjacency
    of N+(u), vdot(B @ B, B) = sum((B @ B) * B) counts each such triangle
    6 times, and is an exact float64 sum while it stays below 2^53.
    """
    total = 0
    for u in range(adj.shape[0] - 3):
        fwd = adj[u, u + 1:].nonzero()[0] + (u + 1)
        if len(fwd) >= 3:
            B = adj[fwd[:, None], fwd]
            total += int(np.vdot(B @ B, B))
    if total % 6:
        raise AssertionError("forward-neighbourhood triangle tally is not a multiple of 6")
    return total // 6


# rows per block of codegree products: bounds every temporary to 128 x n
_ROW_BLOCK = 128


def _host_statistics(G: ColouredCompleteGraph) -> list[int]:
    """The 27 aggregate statistics of the host, exact ints."""
    n = G.n
    if n > 3000:
        # keeps the float64 BLAS sums below 2^53 and the int64 aggregates below 2^63
        raise ValueError(f"census statistics support n <= 3000, got {n}")
    table = np.frombuffer(b"".join(G.row(u) for u in range(n)), dtype=np.uint8)
    red = (table.reshape(n, n) == RED).astype(np.float64)
    np.fill_diagonal(red, 0.0)
    blue = 1.0 - red
    np.fill_diagonal(blue, 0.0)

    def c2(x: np.ndarray) -> np.ndarray:
        return x * (x - 1) // 2

    # Codegrees of the pairs u < v, for one block of rows u at a time.  Each
    # product entry sums at most n 0/1 terms, so every float64 partial sum is
    # an exact integer.
    stats: dict = dict.fromkeys(STAT_IDS, 0)
    n3 = n2 = n1 = n0 = e_red = 0
    for lo in range(0, n, _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, n)
        upper = np.arange(lo, n) > np.arange(lo, hi)[:, None]  # v > u, v >= lo
        r_rows, b_rows, r_cols, b_cols = red[lo:hi], blue[lo:hi], red[:, lo:], blue[:, lo:]
        a = _exact_int64((r_rows @ r_cols)[upper])    # #{w : uw, wv red}
        b = _exact_int64((b_rows @ b_cols)[upper])    # #{w : uw, wv blue}
        m1 = _exact_int64((r_rows @ b_cols)[upper])   # #{w : uw red, wv blue}
        m2 = _exact_int64((b_rows @ r_cols)[upper])   # #{w : uw blue, wv red}
        pair_red = r_rows[:, lo:][upper] == 1.0
        for pc, sel in ((RED, pair_red), (BLUE, ~pair_red)):
            aa, bbv, mm1, mm2 = a[sel], b[sel], m1[sel], m2[sel]
            stats[("p", pc, 0)] += int(c2(aa).sum())
            stats[("p", pc, 1)] += int(c2(bbv).sum())
            stats[("p", pc, 2)] += int((aa * bbv).sum())
            stats[("p", pc, 3)] += int((aa * (mm1 + mm2)).sum())
            stats[("p", pc, 4)] += int((bbv * (mm1 + mm2)).sum())
            stats[("p", pc, 5)] += int((mm1 * mm2).sum())
            stats[("p", pc, 6)] += int((c2(mm1) + c2(mm2)).sum())
        # triangles by red-edge multiplicity, from codegrees along edges
        n3 += int(a[pair_red].sum())
        n2 += int((m1 + m2)[pair_red].sum())
        n1 += int(b[pair_red].sum())
        n0 += int(b[~pair_red].sum())
        e_red += int(pair_red.sum())

    rdeg = _exact_int64(red.sum(axis=1)).tolist()
    for k in range(4):
        stats[("v", k)] = sum(comb(rd, 3 - k) * comb(n - 1 - rd, k) for rd in rdeg)

    if n3 % 3 or n2 % 2 or n0 % 3:
        raise AssertionError("triangle tallies are inconsistent")
    stats[("t", 3)] = (n - 3) * (n3 // 3)
    stats[("t", 2)] = (n - 3) * (n2 // 2)
    stats[("t", 1)] = (n - 3) * n1
    stats[("t", 0)] = (n - 3) * (n0 // 3)

    stats[("e", RED)] = comb(n - 2, 2) * e_red
    stats[("e", BLUE)] = comb(n - 2, 2) * (comb(n, 2) - e_red)

    stats[("k4", RED)] = _mono_k4_count(red)
    stats[("k4", BLUE)] = _mono_k4_count(blue)
    stats["total"] = comb(n, 4)
    return [stats[sid] for sid in STAT_IDS]


def census_k4(G: ColouredCompleteGraph, method: str = "codegree") -> PatternCensus:
    """Exact K4 census of a 2-coloured host.

    method="codegree" uses the statistic system (BLAS kernels, see the
    module docstring), verifying all redundant equations; method="reference"
    enumerates quadruples.
    """
    if method == "reference":
        return census_k4_reference(G)
    if method != "codegree":
        raise ValueError(f"unknown census method {method!r}")
    _require_two_colours(G)
    n = G.n
    if n < 4:
        return PatternCensus(n, dict.fromkeys(CLASS_KEYS, 0))
    svec = _host_statistics(G)
    pivots = [svec[i] for i in _PIVOT_ROWS]
    counts = []
    for row in _PIVOT_NUM:
        num = sum(c * s for c, s in zip(row, pivots))
        if num % _PIVOT_DEN or num < 0:
            raise AssertionError(f"census solve produced a non-count {Fraction(num, _PIVOT_DEN)}")
        counts.append(num // _PIVOT_DEN)
    # every statistic, including the 16 not used for the solve, must agree
    for i, sid in enumerate(STAT_IDS):
        lhs = sum(_COEFF[i][j] * counts[j] for j in range(NUM_CLASSES))
        if lhs != svec[i]:
            raise AssertionError(f"census statistic {sid} inconsistent: {lhs} != {svec[i]}")
    return PatternCensus(n, dict(zip(CLASS_KEYS, counts)))


def m1_copies_in_quadruples(census: PatternCensus) -> int:
    """Total alternating-C4 bipartitions over all 4-subsets of the host."""
    return sum(
        census.counts[key] * alt
        for key, alt in zip(CLASS_KEYS, ALTERNATING_SPLITS_PER_CLASS)
    )


# ---------------------------------------------------------------------------
# Bipartite colourings and alternating 4-cycles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BipartiteColouring:
    """A red/blue colouring of a complete bipartite graph X x Y.

    Stored as per-X-vertex bitmasks over Y (bit set = red edge).
    """

    nx: int
    ny: int
    red_by_x: tuple[int, ...]

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ValueError("both sides must be nonempty")
        if len(self.red_by_x) != self.nx:
            raise ValueError("need one row per X vertex")

    @classmethod
    def from_function(cls, nx: int, ny: int, colour: Callable[[int, int], int]) -> "BipartiteColouring":
        rows = []
        for x in range(nx):
            mask = 0
            for y in range(ny):
                c = colour(x, y)
                if c not in (RED, BLUE):
                    raise ValueError(f"bipartite colour must be 0 or 1, got {c}")
                if c == RED:
                    mask |= 1 << y
            rows.append(mask)
        return cls(nx, ny, tuple(rows))

    def colour(self, x: int, y: int) -> int:
        return RED if (self.red_by_x[x] >> y) & 1 else BLUE

    def red_by_y(self) -> tuple[int, ...]:
        cols = [0] * self.ny
        for x, row in enumerate(self.red_by_x):
            while row:
                y = (row & -row).bit_length() - 1
                row &= row - 1
                cols[y] |= 1 << x
        return tuple(cols)

    def red_degree_x(self, x: int) -> int:
        return self.red_by_x[x].bit_count()

    def blue_degree_y(self, y: int) -> int:
        return self.nx - sum((row >> y) & 1 for row in self.red_by_x)

    def to_dict(self) -> dict:
        return {
            "kind": "bipartite",
            "x": self.nx,
            "y": self.ny,
            "rows": [
                "".join(str(self.colour(x, y)) for y in range(self.ny))
                for x in range(self.nx)
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BipartiteColouring":
        nx, ny = int(data["x"]), int(data["y"])
        rows = data["rows"]
        if len(rows) != nx or any(len(row) != ny for row in rows):
            raise ValueError("bipartite rows have wrong shape")
        return cls.from_function(nx, ny, lambda x, y: int(rows[x][y]))


def count_m1(B: BipartiteColouring, method: str = "codegree") -> int:
    """Number of 4-subsets {x,x'} x {y,y'} inducing a properly coloured K22.

    The codegree route sums a*b over Y-pairs, where a and b count X-vertices
    red/blue and blue/red to the pair; the pair-enumeration route checks all
    C(nx,2)*C(ny,2) quadruples directly.
    """
    if method == "pairs":
        return count_m1_reference(B)
    if method != "codegree":
        raise ValueError(f"unknown count_m1 method {method!r}")
    full = (1 << B.nx) - 1
    cols = B.red_by_y()
    total = 0
    for j in range(B.ny):
        cj = cols[j]
        for k in range(j + 1, B.ny):
            ck = cols[k]
            a = (cj & ~ck & full).bit_count()
            b = (~cj & ck & full).bit_count()
            total += a * b
    return total


def count_m1_reference(B: BipartiteColouring) -> int:
    """Brute-force M1 count by enumerating every {x,x'} x {y,y'} quadruple."""
    total = 0
    for x1, x2 in itertools.combinations(range(B.nx), 2):
        for y1, y2 in itertools.combinations(range(B.ny), 2):
            a, b = B.colour(x1, y1), B.colour(x1, y2)
            c, d = B.colour(x2, y1), B.colour(x2, y2)
            if a != b and c != d and a != c:
                total += 1
    return total


def count_alternating_c4(
    G: ColouredCompleteGraph, X: Sequence[int], Y: Sequence[int]
) -> int:
    """M1 count of the bipartite restriction of a 2-coloured host to (X, Y)."""
    _require_two_colours(G)
    xs, ys = tuple(X), tuple(Y)
    if set(xs) & set(ys):
        raise ValueError("X and Y must be disjoint")
    if len(set(xs)) != len(xs) or len(set(ys)) != len(ys):
        raise ValueError("X and Y must not repeat vertices")
    B = BipartiteColouring.from_function(
        len(xs), len(ys), lambda i, j: G.colour(xs[i], ys[j])
    )
    return count_m1(B)

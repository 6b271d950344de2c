"""Exact censuses of small coloured subgraphs in 2-coloured complete graphs.

The central object is the census of 2-coloured K4s: every 4-subset of the
host induces one of the 11 isomorphism classes of 2-edge-colourings of K4
(equivalently, of the 11 graphs on 4 vertices, via the red subgraph).  The
class list is enumerated at import time by brute force over the 2^6
colourings modulo S4, so no hand-maintained table exists anywhere.

census_k4 computes 27 aggregate statistics (pair/codegree, vertex,
triangle, edge and monochromatic-K4 counts) and solves an exact integer
linear system for the 11 class counts.  The system has rank 11; the 16
redundant equations are verified on every call, so a disagreement anywhere
surfaces as an error rather than a wrong count.  The tests check it against
an enumeration of all C(n,4) quadruples.

Kernel cost: four codegree products red@red, blue@blue, red@blue and
blue@red (blocks of rows against the upper triangle, which lack the
transposes of their own red@blue entries; O(n^omega) BLAS work in all) and, for
the two monochromatic-K4 counts, one triangle count per vertex u inside its
forward neighbourhood N+(u) = {v > u : uv of that colour}, which is
sum_u |N+(u)|^3 BLAS flops.  The adjacency is kept as one bool table per
colour and every product runs on 0/1 float32 matrices, exactly: a codegree
entry, and an entry of a forward block's square, is an integer at most
n < 2^24, so every float32 partial sum is an exact integer.  A forward
block's triangle tally is reduced row by row in float32 (each row sum is
at most |N+(u)|^2 < 2^24) and the rows are summed in float64, where a
per-vertex total stays below n^3 < 2^53 while n <= CENSUS_MAX_N = 3000
(the size guard).  Products are cast back to int64 under an exactness
check, and the statistics and class counts are Python ints.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from operator import mul
from typing import Sequence

import numpy as np

from .core import ColouredCompleteGraph, GraphFormatError, _checked_parts

RED, BLUE = 0, 1

# K4 pair order used for 6-bit colouring codes: bit k = colour of _PAIRS[k].
_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_PAIR_INDEX = {p: i for i, p in enumerate(_PAIRS)}
_COMPLEMENT = {p: tuple(x for x in range(4) if x not in p) for p in _PAIRS}


def _code_tuple(packed: int) -> tuple[int, ...]:
    return tuple((packed >> k) & 1 for k in range(6))


# the 24 relabellings of K4 as pair-index maps: relabelling p sends pair k
# to pair m[k], so the relabelled code reads code[m[k]] at bit k
_RELABELLINGS = tuple(
    tuple(_PAIR_INDEX[tuple(sorted((p[a], p[b])))] for a, b in _PAIRS)
    for p in itertools.permutations(range(4))
)


def _canonical(code: Sequence[int]) -> tuple[int, ...]:
    return min(tuple(code[k] for k in m) for m in _RELABELLINGS)


# --- class table, built once at import ------------------------------------

CLASS_REPS: tuple[tuple[int, ...], ...] = tuple(
    sorted({_canonical(_code_tuple(p)) for p in range(64)})
)
NUM_CLASSES = len(CLASS_REPS)
assert NUM_CLASSES == 11, f"expected 11 classes of 2-coloured K4, found {NUM_CLASSES}"

CLASS_KEYS: tuple[str, ...] = tuple("".join(map(str, rep)) for rep in CLASS_REPS)

# named projections
C4_KEY = "".join(map(str, _canonical((0, 1, 0, 0, 1, 0))))      # red edges form a 4-cycle
C4BAR_KEY = "".join(map(str, _canonical((1, 0, 1, 1, 0, 1))))   # blue edges form a 4-cycle
P3O_KEY = "".join(map(str, _canonical((1, 0, 0, 1, 0, 1))))     # each colour a 3-edge path

# keeps the float32 products below 2^24, the float64 sums below 2^53 and the
# int64 aggregates below 2^63
CENSUS_MAX_N = 3000


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


# one statistic row per class; _COEFF[i][j] is statistic i of class j
_CLASS_ROWS = tuple(_class_stat_row(rep) for rep in CLASS_REPS)
_COEFF: tuple[tuple[int, ...], ...] = tuple(zip(*_CLASS_ROWS))


def _pivot_rows_and_inverse() -> tuple[tuple[int, ...], tuple[tuple[Fraction, ...], ...]]:
    """Pick the first 11 independent statistic rows and invert them exactly.

    One Gauss-Jordan pass over [_COEFF^T | I], column by column in STAT_IDS
    order: the pivot columns are the first statistics independent of those
    before them, and the right block ends as the inverse of their rows,
    transposed.
    """
    width = len(STAT_IDS)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(NUM_CLASSES)]
         for i, row in enumerate(_CLASS_ROWS)]
    chosen: list[int] = []
    for col in range(width):
        rank = len(chosen)
        piv = next((rr for rr in range(rank, NUM_CLASSES) if m[rr][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][col]
        m[rank] = [x / pv if x else x for x in m[rank]]  # most entries are 0
        for rr in range(NUM_CLASSES):
            f = m[rr][col]
            if rr != rank and f:
                m[rr] = [a - f * b if b else a for a, b in zip(m[rr], m[rank])]
        chosen.append(col)
        if len(chosen) == NUM_CLASSES:
            break
    else:
        raise AssertionError("census statistic system is rank-deficient")
    return tuple(chosen), tuple(zip(*(row[width:] for row in m)))


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


def _exact_int64(x: np.ndarray) -> np.ndarray:
    """Cast a float32 array of integer sums to int64, checking exactness."""
    out = x.astype(np.int64)
    if not np.array_equal(out, x):
        raise AssertionError("float32 codegree product is not an exact integer")
    return out


def _mono_k4_count(adj: np.ndarray) -> int:
    """Number of 4-cliques of a bool adjacency table with a False diagonal.

    Each K4 is counted once, at its smallest vertex u, as a triangle of the
    forward neighbourhood N+(u) = {v > u : uv an edge}.  The m x m block B
    of N+(u) is gathered from the table's tail adj[u+1:, u+1:] and cast to
    float32; then sum((B @ B) * B) counts each such triangle 6 times.  The
    entries of B @ B are integers at most m, and each row of (B @ B) * B
    sums to at most m^2 < 2^24, so the float32 row sums (np.vecdot) are
    exact.  They are added in float64, where every partial sum is an
    integer below 6 C(n, 4) < 2^53 under CENSUS_MAX_N, so the total is exact.
    """
    total = 0.0
    for u in range(adj.shape[0] - 3):
        fwd = adj[u, u + 1:].nonzero()[0]
        if len(fwd) >= 3:
            B = adj[u + 1:, u + 1:].take(fwd, 0).take(fwd, 1).astype(np.float32)
            total += np.vecdot(B @ B, B).sum(dtype=np.float64)
    total = int(total)
    if total % 6:
        raise AssertionError("forward-neighbourhood triangle tally is not a multiple of 6")
    return total // 6


# rows per block of codegree products: bounds every temporary to O(64 n) entries
_ROW_BLOCK = 64


def _c2(x: np.ndarray) -> np.ndarray:
    return x * (x - 1) // 2


def _host_statistics(G: ColouredCompleteGraph) -> list[int]:
    """The 27 aggregate statistics of the host, exact ints."""
    n = G.n
    if n > CENSUS_MAX_N:
        raise ValueError(f"census statistics support n <= {CENSUS_MAX_N}, got {n}")
    red = G.table() == RED
    np.fill_diagonal(red, False)
    blue = ~red
    np.fill_diagonal(blue, False)
    red32, blue32 = red.astype(np.float32), blue.astype(np.float32)

    # Codegrees of the pairs u < v, for one block of rows u at a time.  Each
    # product entry sums at most n 0/1 terms, so every float32 partial sum is
    # an exact integer.  Per pair the columns of x are the codegrees
    # (a, b, m1, m2); every statistic below is a sum over pairs of one of
    # them or of a product of two, so it is read from the int64 sums s and
    # Gram matrices g = sum x^T x, over all pairs and over the red pairs.
    g_all = np.zeros((4, 4), dtype=np.int64)
    g_red = np.zeros((4, 4), dtype=np.int64)
    s_all = np.zeros(4, dtype=np.int64)
    s_red = np.zeros(4, dtype=np.int64)
    for lo in range(0, n, _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, n)
        upper = np.arange(lo, n) > np.arange(lo, hi)[:, None]  # v > u, v >= lo
        r_rows, b_rows, r_cols, b_cols = red32[lo:hi], blue32[lo:hi], red32[:, lo:], blue32[:, lo:]
        x = np.stack((
            _exact_int64((r_rows @ r_cols)[upper]),   # a:  #{w : uw, wv red}
            _exact_int64((b_rows @ b_cols)[upper]),   # b:  #{w : uw, wv blue}
            _exact_int64((r_rows @ b_cols)[upper]),   # m1: #{w : uw red, wv blue}
            _exact_int64((b_rows @ r_cols)[upper]),   # m2: #{w : uw blue, wv red}
        ), axis=1)
        x_red = x * red[lo:hi, lo:][upper][:, None]   # the rows of the red pairs, others 0
        g_all += x.T @ x
        g_red += x_red.T @ x
        s_all += x.sum(axis=0)
        s_red += x_red.sum(axis=0)
    A, B, M1, M2 = range(4)
    stats: dict = {}
    for pc, g, s in ((RED, g_red, s_red), (BLUE, g_all - g_red, s_all - s_red)):
        choose2 = (np.diag(g) - s) // 2   # sum of C(x, 2) for each codegree x
        stats[("p", pc, 0)] = int(choose2[A])
        stats[("p", pc, 1)] = int(choose2[B])
        stats[("p", pc, 2)] = int(g[A, B])
        stats[("p", pc, 3)] = int(g[A, M1] + g[A, M2])
        stats[("p", pc, 4)] = int(g[B, M1] + g[B, M2])
        stats[("p", pc, 5)] = int(g[M1, M2])
        stats[("p", pc, 6)] = int(choose2[M1] + choose2[M2])

    rdeg = red.sum(axis=1)
    bdeg = n - 1 - rdeg
    for k, per_vertex in enumerate((
        _c2(rdeg) * (rdeg - 2) // 3,   # C(rdeg, 3)
        _c2(rdeg) * bdeg,
        rdeg * _c2(bdeg),
        _c2(bdeg) * (bdeg - 2) // 3,   # C(bdeg, 3)
    )):
        stats[("v", k)] = int(per_vertex.sum())

    # triangles by red-edge multiplicity, from codegrees along edges
    n3, n2, n1 = int(s_red[A]), int(s_red[M1] + s_red[M2]), int(s_red[B])
    n0 = int(s_all[B] - s_red[B])
    if n3 % 3 or n2 % 2 or n0 % 3:
        raise AssertionError("triangle tallies are inconsistent")
    stats[("t", 3)] = (n - 3) * (n3 // 3)
    stats[("t", 2)] = (n - 3) * (n2 // 2)
    stats[("t", 1)] = (n - 3) * n1
    stats[("t", 0)] = (n - 3) * (n0 // 3)

    e_red = int(rdeg.sum()) // 2
    stats[("e", RED)] = comb(n - 2, 2) * e_red
    stats[("e", BLUE)] = comb(n - 2, 2) * (comb(n, 2) - e_red)

    stats[("k4", RED)] = _mono_k4_count(red)
    stats[("k4", BLUE)] = _mono_k4_count(blue)
    stats["total"] = comb(n, 4)
    return [stats[sid] for sid in STAT_IDS]


def census_k4(G: ColouredCompleteGraph) -> PatternCensus:
    """Exact K4 census of a 2-coloured host with n <= CENSUS_MAX_N, from
    the statistic system (BLAS kernels, see the module docstring), with all
    16 redundant equations verified.
    """
    _require_two_colours(G)
    n = G.n
    if n < 4:
        return PatternCensus(n, dict.fromkeys(CLASS_KEYS, 0))
    svec = _host_statistics(G)
    pivots = [svec[i] for i in _PIVOT_ROWS]
    counts = []
    for row in _PIVOT_NUM:
        num = sum(map(mul, row, pivots))
        if num % _PIVOT_DEN or num < 0:
            raise AssertionError(f"census solve produced a non-count {Fraction(num, _PIVOT_DEN)}")
        counts.append(num // _PIVOT_DEN)
    # every statistic, including the 16 not used for the solve, must agree
    for sid, row, s in zip(STAT_IDS, _COEFF, svec):
        lhs = sum(map(mul, row, counts))
        if lhs != s:
            raise AssertionError(f"census statistic {sid} inconsistent: {lhs} != {s}")
    return PatternCensus(n, dict(zip(CLASS_KEYS, counts)))


# ---------------------------------------------------------------------------
# Bipartite colourings and alternating 4-cycles
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BipartiteColouring:
    """A red/blue colouring of the complete bipartite graph X x Y.

    Stored as one read-only nx x ny bool table: red[x, y] is True when the
    edge x y is red.  The constructor copies its input, so later writes to
    the caller's array do not reach the record; equality and hash compare
    the table.
    """

    red: np.ndarray

    def __post_init__(self):
        red = np.array(self.red)
        if red.dtype != bool or red.ndim != 2 or red.size == 0:
            raise ValueError(
                f"need a nonempty 2-D bool table, got {red.dtype} of shape {red.shape}"
            )
        red.flags.writeable = False
        object.__setattr__(self, "red", red)

    @property
    def nx(self) -> int:
        return self.red.shape[0]

    @property
    def ny(self) -> int:
        return self.red.shape[1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BipartiteColouring):
            return NotImplemented
        return np.array_equal(self.red, other.red)

    def __hash__(self) -> int:
        return hash((self.red.shape, self.red.tobytes()))

    def to_dict(self) -> dict:
        digits = np.where(self.red, b"0", b"1")  # the colour digit of each edge
        return {
            "kind": "bipartite",
            "x": self.nx,
            "y": self.ny,
            "rows": [row.tobytes().decode("ascii") for row in digits],
        }

    @classmethod
    def from_dict(cls, data: object) -> "BipartiteColouring":
        """Inverse of to_dict.  Raises GraphFormatError unless x and y are
        JSON integers >= 1 and rows is a list of x strings of y colour
        digits 0 or 1; all of it is checked before the table is allocated."""
        if not isinstance(data, dict) or not {"x", "y", "rows"} <= data.keys():
            raise GraphFormatError("bipartite JSON needs the fields x, y and rows")
        nx, ny, rows = data["x"], data["y"], data["rows"]
        if type(nx) is not int or type(ny) is not int or nx < 1 or ny < 1:
            raise GraphFormatError(f"x and y must be integers >= 1, got x={nx!r}, y={ny!r}")
        if not isinstance(rows, list) or len(rows) != nx or not all(
            isinstance(row, str) and len(row) == ny for row in rows
        ):
            raise GraphFormatError(f"rows must be a list of {nx} strings of length {ny}")
        if any(row.strip("01") for row in rows):
            raise GraphFormatError("bipartite colour digits must be 0 or 1")
        digits = np.frombuffer("".join(rows).encode("ascii"), dtype=np.uint8)
        return cls(digits.reshape(nx, ny) == ord("0"))


def count_m1(B: BipartiteColouring) -> int:
    """Number of 4-subsets {x,x'} x {y,y'} inducing a properly coloured K22.

    Let a = red.T @ (1 - red), so a[j, k] counts the X vertices red to y_j
    and blue to y_k.  An alternating K22 on {y_j, y_k} pairs one such x with
    one x' blue to y_j and red to y_k, so the pair {y_j, y_k} carries
    a[j, k] * a[k, j] of them, and the sum of a * a.T over all j != k counts
    each pair twice.  The diagonal of a is 0 (no x is red and blue to the
    same y), so the count is (a * a.T).sum() // 2.  The product runs in
    float64 BLAS; every entry of a is an integer at most nx, so it is exact
    and is read back as int64 before the sum.
    """
    red = B.red.astype(np.float64)
    a = (red.T @ (1.0 - red)).astype(np.int64)
    return int((a * a.T).sum()) // 2


def count_alternating_c4(
    G: ColouredCompleteGraph, X: Sequence[int], Y: Sequence[int]
) -> int:
    """M1 count of the bipartite restriction of a 2-coloured host to (X, Y),
    two nonempty disjoint sets of host vertices (ValueError otherwise)."""
    _require_two_colours(G)
    xs, ys = _checked_parts((X, Y), G.n)
    return count_m1(BipartiteColouring(G.table()[np.ix_(xs, ys)] == RED))

"""Edge-coloured complete graphs and balancedness measures.

Vertices are the integers 0..n-1 and colours the integers 0..r-1
(red = 0, blue = 1, green = 2 by convention).  The colour table is dense
and symmetric; per-colour neighbourhoods are additionally kept as int
bitmasks so that codegree intersections cost one AND plus a popcount.

All epsilon thresholds are compared in exact rational arithmetic: the
constructions of interest sit exactly on boundaries like 1/4, where float
comparison would be wrong.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Iterable, Sequence

Rational = Fraction | int | str | float


class GraphFormatError(ValueError):
    """A serialized graph failed validation."""


def _as_fraction(x: Rational) -> Fraction:
    """Exact conversion; strings like "1/4" and "0.25" are parsed exactly."""
    if isinstance(x, float):
        return Fraction(x)  # binary floats convert exactly
    return Fraction(x)


def _edge_triple(e: object, n: int, r: int) -> tuple[int, int, int]:
    """One [u, v, c] edge entry as ints, rejecting malformed entries,
    self-loops and out-of-range vertices or colours."""
    if not isinstance(e, (list, tuple)) or len(e) != 3:
        raise GraphFormatError(f"edge entry {e!r} is not a [u, v, c] triple")
    try:
        u, v, c = int(e[0]), int(e[1]), int(e[2])
    except (TypeError, ValueError):
        raise GraphFormatError(f"edge entry {e!r} has a non-integer field") from None
    if u == v:
        raise GraphFormatError(f"self-loop at vertex {u}")
    if not (0 <= u < n and 0 <= v < n):
        raise GraphFormatError(f"vertex out of range in edge ({u},{v})")
    if not 0 <= c < r:
        raise GraphFormatError(f"colour {c} out of range in edge ({u},{v})")
    return u, v, c


class ColouredCompleteGraph:
    """An n-vertex complete graph with an r-colouring of its edges.

    Immutable after construction and safe to share across threads; every
    operation on it in this package is a pure function.
    """

    __slots__ = ("n", "r", "_rows", "_bits")

    def __init__(self, n: int, r: int, rows: Sequence[bytes], _validate: bool = True):
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        if not 2 <= r <= 255:
            raise ValueError(f"need 2 <= r <= 255, got {r}")
        rows = tuple(bytes(row) for row in rows)
        if _validate:
            if len(rows) != n or any(len(row) != n for row in rows):
                raise ValueError("colour table must be n x n")
            for u in range(n):
                for v in range(u + 1, n):
                    c = rows[u][v]
                    if c >= r:
                        raise ValueError(f"colour {c} out of range at edge ({u},{v})")
                    if rows[v][u] != c:
                        raise ValueError(f"colour table not symmetric at ({u},{v})")
        self.n = n
        self.r = r
        self._rows = rows
        bits = []
        for c in range(r):
            per_vertex = []
            for u in range(n):
                row = rows[u]
                mask = 0
                for v in range(n):
                    if v != u and row[v] == c:
                        mask |= 1 << v
                per_vertex.append(mask)
            bits.append(tuple(per_vertex))
        self._bits = tuple(bits)

    @classmethod
    def from_function(cls, n: int, r: int, colour: Callable[[int, int], int]) -> "ColouredCompleteGraph":
        """Build from colour(u, v), queried once per pair u < v."""
        rows = [bytearray(n) for _ in range(n)]
        for u in range(n):
            for v in range(u + 1, n):
                c = int(colour(u, v))
                if not 0 <= c < r:
                    raise ValueError(f"colour {c} out of range at edge ({u},{v})")
                rows[u][v] = c
                rows[v][u] = c
        return cls(n, r, rows, _validate=False)

    @classmethod
    def from_edges(cls, n: int, r: int, edges: Iterable[Sequence[int]]) -> "ColouredCompleteGraph":
        """Build from an explicit [u, v, c] list covering all C(n,2) pairs.

        Rejects self-loops, duplicate pairs, missing pairs and colours >= r.
        """
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
        for u in range(n):
            rows[u][u] = 0
        return cls(n, r, rows, _validate=False)

    def colour(self, u: int, v: int) -> int:
        if u == v:
            raise ValueError("no self-loops in a complete graph")
        return self._rows[u][v]

    def row(self, u: int) -> bytes:
        """Dense colour row of vertex u (entry u itself is meaningless)."""
        return self._rows[u]

    def colour_bits(self, c: int) -> tuple[int, ...]:
        """Per-vertex neighbourhood bitmasks of colour class c."""
        return self._bits[c]

    def neighbours(self, c: int, u: int) -> int:
        """Bitmask of the colour-c neighbourhood of u."""
        return self._bits[c][u]

    def degree(self, u: int, c: int) -> int:
        return self._bits[c][u].bit_count()

    def colour_class_size(self, c: int) -> int:
        return sum(m.bit_count() for m in self._bits[c]) // 2

    def relabelled(self, perm: Sequence[int]) -> "ColouredCompleteGraph":
        """New graph with vertex i renamed perm[i]."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("perm must be a permutation of range(n)")
        rows = [bytearray(self.n) for _ in range(self.n)]
        for u in range(self.n):
            for v in range(u + 1, self.n):
                c = self._rows[u][v]
                pu, pv = perm[u], perm[v]
                rows[pu][pv] = c
                rows[pv][pu] = c
        return ColouredCompleteGraph(self.n, self.r, rows, _validate=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColouredCompleteGraph):
            return NotImplemented
        return self.n == other.n and self.r == other.r and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self.n, self.r, self._rows))

    def __repr__(self) -> str:
        return f"ColouredCompleteGraph(n={self.n}, r={self.r})"


@dataclass(frozen=True)
class BalanceProfile:
    """Per-vertex per-colour degrees plus the derived balance numbers.

    epsilon_local is the largest eps for which the graph is locally
    eps-balanced; epsilon_global the analogue for colour-class sizes.
    Both are exact rationals.
    """

    degrees: tuple[tuple[int, ...], ...]  # degrees[v][c]
    min_degree_per_colour: int
    epsilon_local: Fraction
    epsilon_global: Fraction


def balance_profile(G: ColouredCompleteGraph) -> BalanceProfile:
    """Exact balance profile of G; deterministic, O(r n^2 / word)."""
    n, r = G.n, G.r
    degrees = tuple(
        tuple(G.degree(v, c) for c in range(r)) for v in range(n)
    )
    min_deg = min(min(dv) for dv in degrees)
    eps_local = Fraction(min_deg, n)
    if n < 2:
        eps_global = Fraction(0)
    else:
        eps_global = Fraction(min(G.colour_class_size(c) for c in range(r)), comb(n, 2))
    return BalanceProfile(degrees, min_deg, eps_local, eps_global)


def is_locally_balanced(G: ColouredCompleteGraph, eps: Rational) -> bool:
    """True iff every (vertex, colour) degree is >= eps * n, exactly."""
    eps = _as_fraction(eps)
    if not 0 <= eps <= 1:
        raise ValueError(f"eps must lie in [0, 1], got {eps}")
    threshold = eps * G.n  # Fraction
    for c in range(G.r):
        for mask in G.colour_bits(c):
            if mask.bit_count() < threshold:
                return False
    return True


def colour_swap(G: ColouredCompleteGraph) -> ColouredCompleteGraph:
    """The same graph with the two colours interchanged (r = 2 only)."""
    if G.r != 2:
        raise ValueError(f"colour_swap needs a 2-colouring, got r={G.r}")
    flip = bytes(1 if x == 0 else 0 for x in range(256))
    rows = [row.translate(flip) for row in G._rows]
    # translate flips the meaningless diagonal too; zero it for canonical equality
    rows = [bytes(0 if v == u else row[v] for v in range(G.n)) for u, row in enumerate(rows)]
    return ColouredCompleteGraph(G.n, 2, rows, _validate=False)


# ---------------------------------------------------------------------------
# JSON formats
#
# Full:    {"n": int, "r": int, "edges": [[u, v, c], ...]} with every pair
#          listed exactly once.
# Compact: {"n": int, "r": int, "rows": [digits of colour(u, v) for v > u]}
#          (requires r <= 10).
# ---------------------------------------------------------------------------

def graph_to_json(G: ColouredCompleteGraph, compact: bool = False) -> dict:
    if compact:
        if G.r > 10:
            raise GraphFormatError("compact format supports at most 10 colours")
        rows = [
            "".join(str(G._rows[u][v]) for v in range(u + 1, G.n))
            for u in range(G.n)
        ]
        return {"n": G.n, "r": G.r, "rows": rows}
    edges = [
        [u, v, G._rows[u][v]]
        for u in range(G.n)
        for v in range(u + 1, G.n)
    ]
    return {"n": G.n, "r": G.r, "edges": edges}


def graph_from_json(data: dict) -> ColouredCompleteGraph:
    try:
        n = int(data["n"])
        r = int(data["r"])
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphFormatError(f"missing or bad n/r field: {exc}") from exc
    if n < 1:
        raise GraphFormatError(f"need n >= 1, got {n}")
    if "rows" in data:
        rows = data["rows"]
        if not isinstance(rows, list) or not all(isinstance(row, str) for row in rows):
            raise GraphFormatError("'rows' must be a list of digit strings")
        if len(rows) != n:
            raise GraphFormatError(f"expected {n} rows, got {len(rows)}")
        edges = []
        for u, row in enumerate(rows):
            if len(row) != n - u - 1:
                raise GraphFormatError(f"row {u} has length {len(row)}, expected {n - u - 1}")
            for k, ch in enumerate(row):
                if ch not in "0123456789":
                    raise GraphFormatError(f"bad colour digit {ch!r} in row {u}")
                edges.append([u, u + 1 + k, int(ch)])
        return ColouredCompleteGraph.from_edges(n, r, edges)
    if "edges" in data:
        edges = data["edges"]
        if not isinstance(edges, list):
            raise GraphFormatError("'edges' must be a list of [u, v, c] triples")
        if len(edges) != comb(n, 2):
            # rejected before from_edges allocates the n x n colour table;
            # a malformed entry is still the error reported first
            for e in edges:
                _edge_triple(e, n, r)
            raise GraphFormatError(f"expected {comb(n, 2)} edges, got {len(edges)}")
        return ColouredCompleteGraph.from_edges(n, r, edges)
    raise GraphFormatError("graph JSON needs an 'edges' or 'rows' field")

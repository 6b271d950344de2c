"""Named totally-coloured patterns, blow-ups and witness checking.

The library patterns (red = 0, blue = 1):

* P1    - K2, both vertices red, the edge blue.  Its t-blow-up is a blue
          induced K_{t,t} between two red cliques.
* P2    - K2, one red and one blue vertex, the edge red.
* P3    - K4 with blue edges (0,1), (1,2), (2,3) and blue vertices 1, 2;
          everything else red.  Self-complementary under colour swap.
* P3o   - P3 with the vertex colours flagged as ignored (edge pattern only).
* C4    - K4 whose red edges form a 4-cycle; vertex colours ignored.
* M1    - the properly 2-coloured K_{2,2}, i.e. an alternating 4-cycle.
          M1 is bipartite, not complete, so it is represented as a
          BipartiteColouring rather than a pattern object.
* P1bar, P2bar, C4bar - colour swaps of the above.

Patterns whose ``vertex_colours_ignored`` flag is set still carry vertex
colours (used by blow_up to pick clique colours) but witness matching for
them is homogeneous: part clique colours are unconstrained.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb
from typing import Mapping, Sequence

import numpy as np

from .census import BipartiteColouring
from .core import (
    ColouredCompleteGraph, GraphFormatError, _bits, _checked_parts, _edge_triple, _vertex_set,
)

RED, BLUE = 0, 1


class InvalidWitnessError(ValueError):
    """A blow-up witness is structurally broken (overlap, sizes, range)."""


class SearchBudgetExceeded(RuntimeError):
    """An exhaustive search would exceed EXHAUSTIVE_SEARCH_BUDGET."""


@dataclass(frozen=True)
class TotallyColouredPattern:
    """A complete graph with r-coloured vertices and edges."""

    r: int
    vertex_colours: tuple[int, ...]
    edge_rows: tuple[tuple[int, ...], ...]  # full symmetric matrix, diag ignored
    vertex_colours_ignored: bool = False
    name: str | None = field(default=None, compare=False)

    def __post_init__(self):
        l = len(self.vertex_colours)
        if l < 1:
            raise ValueError("pattern needs at least one vertex")
        if not 2 <= self.r <= 255:  # the colour range of host graphs
            raise ValueError(f"pattern needs 2 <= r <= 255, got {self.r}")
        if len(self.edge_rows) != l or any(len(row) != l for row in self.edge_rows):
            raise ValueError("edge colour matrix must be l x l")
        for i in range(l):
            if not 0 <= self.vertex_colours[i] < self.r:
                raise ValueError(f"vertex colour out of range at {i}")
            for j in range(i + 1, l):
                c = self.edge_rows[i][j]
                if not 0 <= c < self.r:
                    raise ValueError(f"edge colour out of range at ({i},{j})")
                if self.edge_rows[j][i] != c:
                    raise ValueError(f"edge colours not symmetric at ({i},{j})")

    @property
    def num_vertices(self) -> int:
        return len(self.vertex_colours)

    def edge_colour(self, i: int, j: int) -> int:
        if i == j:
            raise ValueError("patterns have no self-loops")
        return self.edge_rows[i][j]

    def vertex_colour(self, i: int) -> int:
        return self.vertex_colours[i]

    @classmethod
    def from_parts(
        cls,
        r: int,
        vertex_colours: Sequence[int],
        edges: Mapping[tuple[int, int], int] | Sequence[Sequence[int]],
        default_edge_colour: int = RED,
        vertex_colours_ignored: bool = False,
        name: str | None = None,
    ) -> "TotallyColouredPattern":
        """Build from a sparse edge-colour assignment over a default colour."""
        l = len(vertex_colours)
        rows = [[default_edge_colour] * l for _ in range(l)]
        items = edges.items() if isinstance(edges, Mapping) else [((i, j), c) for i, j, c in edges]
        for (i, j), c in items:
            rows[i][j] = rows[j][i] = c
        return cls(
            r,
            tuple(vertex_colours),
            tuple(tuple(row) for row in rows),
            vertex_colours_ignored,
            name,
        )

    def swap(self) -> "TotallyColouredPattern":
        """The pattern with the two colours interchanged (r = 2 only)."""
        if self.r != 2:
            raise ValueError("colour swap is defined for 2-coloured patterns")
        l = self.num_vertices
        return TotallyColouredPattern(
            2,
            tuple(1 - c for c in self.vertex_colours),
            tuple(
                tuple((1 - self.edge_rows[i][j]) if i != j else 0 for j in range(l))
                for i in range(l)
            ),
            self.vertex_colours_ignored,
            f"{self.name}bar" if self.name else None,
        )

    def to_dict(self) -> dict:
        return {
            "l": self.num_vertices,
            "r": self.r,
            "vertexColours": list(self.vertex_colours),
            "edges": [
                [i, j, self.edge_rows[i][j]]
                for i in range(self.num_vertices)
                for j in range(i + 1, self.num_vertices)
            ],
            "vertexColoursIgnored": self.vertex_colours_ignored,
        }

    @classmethod
    def from_dict(cls, data: object) -> "TotallyColouredPattern":
        """Inverse of to_dict.  Raises GraphFormatError unless l, r and
        every colour are JSON integers and the [i, j, c] edge entries colour
        each of the C(l, 2) pairs exactly once."""
        if not isinstance(data, dict) or not {"l", "r", "vertexColours", "edges"} <= data.keys():
            raise GraphFormatError("pattern JSON needs the fields l, r, vertexColours and edges")
        l, r, vertex_colours, edges = data["l"], data["r"], data["vertexColours"], data["edges"]
        ignored = data.get("vertexColoursIgnored", False)
        if type(l) is not int or type(r) is not int or l < 1 or type(ignored) is not bool:
            raise GraphFormatError(
                f"need integers l >= 1 and r and a boolean vertexColoursIgnored, got "
                f"l={l!r}, r={r!r}, vertexColoursIgnored={ignored!r}"
            )
        if not (isinstance(vertex_colours, list) and len(vertex_colours) == l
                and all(type(c) is int for c in vertex_colours) and isinstance(edges, list)):
            raise GraphFormatError(f"need a list of {l} integer vertex colours and a list of edges")
        triples = [_edge_triple(e, l, r) for e in edges]
        pairs = {(min(i, j), max(i, j)) for i, j, _ in triples}
        if len(triples) != comb(l, 2) or len(pairs) != len(triples):
            # checked before from_parts allocates the l x l table
            raise GraphFormatError(f"pattern edges must colour each of the {comb(l, 2)} pairs once")
        return cls.from_parts(r, vertex_colours, triples, vertex_colours_ignored=ignored)


@dataclass(frozen=True)
class BlowupWitness:
    """Disjoint host vertex sets certifying a (homogeneous) t-blow-up."""

    pattern: TotallyColouredPattern
    parts: tuple[tuple[int, ...], ...]
    t: int
    homogeneous: bool

    def to_dict(self) -> dict:
        return {
            "parts": [list(p) for p in self.parts],
            "t": self.t,
            "homogeneous": self.homogeneous,
            "pattern": self.pattern.name or self.pattern.to_dict(),
        }


def pattern_library() -> dict[str, TotallyColouredPattern | BipartiteColouring]:
    """The named patterns, keyed by the strings the CLI accepts."""
    p1 = TotallyColouredPattern.from_parts(
        2, (RED, RED), {(0, 1): BLUE}, name="P1"
    )
    p2 = TotallyColouredPattern.from_parts(
        2, (RED, BLUE), {(0, 1): RED}, name="P2"
    )
    p3 = TotallyColouredPattern.from_parts(
        2,
        (RED, BLUE, BLUE, RED),
        {(0, 1): BLUE, (1, 2): BLUE, (2, 3): BLUE},
        default_edge_colour=RED,
        name="P3",
    )
    p3o = TotallyColouredPattern.from_parts(
        2,
        (RED, BLUE, BLUE, RED),
        {(0, 1): BLUE, (1, 2): BLUE, (2, 3): BLUE},
        default_edge_colour=RED,
        vertex_colours_ignored=True,
        name="P3o",
    )
    c4 = TotallyColouredPattern.from_parts(
        2,
        (RED, RED, RED, RED),
        {(0, 2): BLUE, (1, 3): BLUE},  # red edges form the cycle 0-1-2-3-0
        default_edge_colour=RED,
        vertex_colours_ignored=True,
        name="C4",
    )
    m1 = BipartiteColouring(np.eye(2, dtype=bool))  # red exactly on x == y
    lib: dict[str, TotallyColouredPattern | BipartiteColouring] = {
        "P1": p1,
        "P2": p2,
        "P3": p3,
        "P3o": p3o,
        "C4": c4,
        "M1": m1,
        "P1bar": p1.swap(),
        "P2bar": p2.swap(),
        "C4bar": c4.swap(),
    }
    for name, pat in lib.items():
        if isinstance(pat, TotallyColouredPattern):
            object.__setattr__(pat, "name", name)
    return lib


def get_pattern(name: str) -> TotallyColouredPattern:
    lib = pattern_library()
    if name not in lib:
        raise KeyError(f"unknown pattern {name!r}; known: {sorted(lib)}")
    pat = lib[name]
    if not isinstance(pat, TotallyColouredPattern):
        raise KeyError(f"pattern {name!r} is bipartite, not a complete pattern")
    return pat


def induced_edge_pattern(
    G: ColouredCompleteGraph, S: Sequence[int], name: str | None = None
) -> TotallyColouredPattern:
    """The edge colouring G[S] as a pattern (vertex colours ignored).

    Hosts carry no vertex colours, so the pattern is flagged accordingly;
    pattern vertex i corresponds to the i-th smallest vertex of the
    nonempty host vertex set S.
    """
    verts = _vertex_set(S, G.n)
    if not verts:
        raise ValueError("S must be nonempty")
    rows = tuple(map(tuple, G.table()[np.ix_(verts, verts)].tolist()))
    return TotallyColouredPattern(
        G.r, (0,) * len(verts), rows, vertex_colours_ignored=True, name=name
    )


def blow_up(H: TotallyColouredPattern, t: int) -> ColouredCompleteGraph:
    """The t-blow-up H[t]: vertex i becomes a t-clique in colour
    vertex_colour(i); cross edges between parts i and j get edge_colour(i,j).

    Part i occupies the contiguous vertex block [i*t, (i+1)*t).
    """
    if t < 1:
        raise ValueError(f"need t >= 1, got {t}")
    l = H.num_vertices
    quotient = np.array(H.edge_rows, dtype=np.uint8)
    np.fill_diagonal(quotient, H.vertex_colours)
    part = np.arange(l * t) // t
    return ColouredCompleteGraph(l * t, H.r, quotient[np.ix_(part, part)])


def clique_colour(G: ColouredCompleteGraph, verts: Sequence[int]) -> int | None:
    """The colour every pair of the host vertex set verts gets in G, or
    None when two pairs differ.  Fewer than two vertices have no pair; they
    report colour 0, and callers that match part colours skip them."""
    verts = _vertex_set(verts, G.n)
    if len(verts) < 2:
        return 0
    c = G.colour(verts[0], verts[1])
    adj = G.colour_bits(c)
    mask = sum(1 << v for v in verts)
    return c if all((adj[v] | 1 << v) & mask == mask for v in verts) else None


def verify_witness(G: ColouredCompleteGraph, w: BlowupWitness) -> bool:
    """Check a blow-up witness against the host.

    Returns False on colour mismatches; raises InvalidWitnessError when the
    witness is structurally broken (wrong part count or sizes, parts that
    are not disjoint host vertex sets).  Vertex-colour matching is skipped
    when the witness is homogeneous or the pattern ignores vertex colours.
    """
    H = w.pattern
    if len(w.parts) != H.num_vertices:
        raise InvalidWitnessError(
            f"witness has {len(w.parts)} parts, pattern has {H.num_vertices} vertices"
        )
    if w.t < 1:
        raise InvalidWitnessError(f"witness t must be >= 1, got {w.t}")
    try:
        parts = _checked_parts(w.parts, G.n)
    except ValueError as exc:
        raise InvalidWitnessError(str(exc)) from None
    for part in parts:
        if len(part) != w.t:
            raise InvalidWitnessError(f"part {part} does not have size t={w.t}")

    # t = 1 parts are vacuously monochromatic in any colour
    fixed_part_colours = not (w.homogeneous or H.vertex_colours_ignored) and w.t > 1
    for i, part in enumerate(parts):
        c = clique_colour(G, part)
        if c is None or fixed_part_colours and c != H.vertex_colour(i):
            return False
    masks = [sum(1 << v for v in part) for part in parts]
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            want = H.edge_colour(i, j)
            if want >= G.r:
                return False
            adj = G.colour_bits(want)
            if any(adj[u] & masks[j] != masks[j] for u in parts[i]):
                return False
    return True


EXHAUSTIVE_SEARCH_BUDGET = 10**12


def find_pattern_blowup_exhaustive(
    G: ColouredCompleteGraph,
    H: TotallyColouredPattern,
    t: int,
    homogeneous: bool = False,
) -> BlowupWitness | None:
    """Exhaustive search for a t-blow-up of H in G.

    Returns the lexicographically least witness (parts in pattern order,
    each part sorted) or None.  A nominal search space C(n,t)^l over
    EXHAUSTIVE_SEARCH_BUDGET raises SearchBudgetExceeded before starting;
    the actual search prunes via per-part candidate bitmasks.
    """
    l = H.num_vertices
    if l > 8:
        raise ValueError("exhaustive blow-up search supports patterns with l <= 8")
    if t < 1:
        raise ValueError(f"need t >= 1, got {t}")
    if comb(G.n, t) ** l > EXHAUSTIVE_SEARCH_BUDGET:
        raise SearchBudgetExceeded(
            f"C({G.n},{t})^{l} = {comb(G.n, t) ** l} exceeds budget {EXHAUSTIVE_SEARCH_BUDGET}"
        )
    used_colours = {H.edge_colour(i, j) for i in range(l) for j in range(i + 1, l)}
    if not (homogeneous or H.vertex_colours_ignored):
        used_colours.update(H.vertex_colour(i) for i in range(l))
    if used_colours and max(used_colours) >= G.r:
        return None
    n = G.n
    full = (1 << n) - 1
    # t = 1 parts are vacuously monochromatic in any colour
    match_part_colours = not (homogeneous or H.vertex_colours_ignored) and t > 1
    bits = [G.colour_bits(c) for c in range(G.r)]

    parts: list[tuple[int, ...]] = []

    def search(i: int, allowed: tuple[int, ...], used: int) -> BlowupWitness | None:
        if i == l:
            return BlowupWitness(H, tuple(parts), t, homogeneous)
        cand_mask = allowed[i] & ~used
        cands = list(_bits(cand_mask))
        if len(cands) < t:
            return None
        for verts in itertools.combinations(cands, t):
            cc = clique_colour(G, verts)
            if cc is None or match_part_colours and cc != H.vertex_colour(i):
                continue
            new_allowed = list(allowed)
            ok = True
            for j in range(i + 1, l):
                m = new_allowed[j]
                want = H.edge_colour(i, j)
                for u in verts:
                    m &= bits[want][u]
                    if not m:
                        ok = False
                        break
                new_allowed[j] = m
                if not ok:
                    break
            if not ok:
                continue
            parts.append(verts)
            found = search(i + 1, tuple(new_allowed), used | sum(1 << v for v in verts))
            if found is not None:
                return found
            parts.pop()
        return None

    return search(0, tuple(full for _ in range(l)), 0)

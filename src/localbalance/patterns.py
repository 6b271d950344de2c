"""Named totally-coloured patterns, blow-ups and witness checking.

A pattern is an edge-coloured complete graph, held as a
ColouredCompleteGraph and so checked by its one constructor, plus a colour
for each vertex.  The library patterns (red = 0, blue = 1):

* P1    - K2, both vertices red, the edge blue.  Its t-blow-up is a blue
          induced K_{t,t} between two red cliques.
* P2    - K2, one red and one blue vertex, the edge red.
* P3    - K4 with blue edges (0,1), (1,2), (2,3) and blue vertices 1, 2;
          everything else red.  Self-complementary under colour swap.
* P3o   - P3 with the vertex colours flagged as ignored (edge pattern only).
* C4    - K4 whose red edges form a 4-cycle; vertex colours ignored.
* P1bar, P2bar, C4bar - colour swaps of the above.

The library is built once, at import.  The alternating 4-cycle M1, the
properly 2-coloured K_{2,2}, is bipartite rather than complete, so it is
not a pattern: it is the BipartiteColouring of np.eye(2, dtype=bool).

Patterns whose ``vertex_colours_ignored`` flag is set still carry vertex
colours (used by blow_up to pick clique colours) but witness matching for
them is homogeneous: part clique colours are unconstrained.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import Mapping, Sequence

import numpy as np

from .core import (
    ColouredCompleteGraph, GraphFormatError, _bits, _check_size, _checked_parts, _colour,
    _integer, _vertex_set, colour_swap, graph_to_json,
)

RED, BLUE = 0, 1


class InvalidWitnessError(ValueError):
    """A blow-up witness is structurally broken (overlap, sizes, range)."""


class SearchBudgetExceeded(RuntimeError):
    """An exhaustive search would exceed EXHAUSTIVE_SEARCH_BUDGET."""


@dataclass(frozen=True)
class TotallyColouredPattern:
    """A complete graph with r-coloured vertices and edges: the edge
    colouring is ``graph``, and vertex i has colour vertex_colours[i]."""

    graph: ColouredCompleteGraph
    vertex_colours: tuple[int, ...]
    vertex_colours_ignored: bool = False
    name: str | None = field(default=None, compare=False)

    def __post_init__(self):
        if len(self.vertex_colours) != self.graph.n:
            raise ValueError(f"need {self.graph.n} vertex colours, got {len(self.vertex_colours)}")
        try:
            colours = tuple(_colour(c, self.r) for c in self.vertex_colours)
        except ValueError as exc:
            raise ValueError(f"vertex {exc}") from None
        object.__setattr__(self, "vertex_colours", colours)

    @property
    def r(self) -> int:
        return self.graph.r

    @property
    def num_vertices(self) -> int:
        return self.graph.n

    def edge_colour(self, i: int, j: int) -> int:
        return self.graph.colour(i, j)

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
        graph = ColouredCompleteGraph(l, r, rows)
        return cls(graph, tuple(vertex_colours), vertex_colours_ignored, name)

    def swap(self) -> "TotallyColouredPattern":
        """The pattern with the two colours interchanged (r = 2 only)."""
        return TotallyColouredPattern(
            colour_swap(self.graph),
            tuple(1 - c for c in self.vertex_colours),
            self.vertex_colours_ignored,
            f"{self.name}bar" if self.name else None,
        )

    def to_dict(self) -> dict:
        data = {
            "l": self.num_vertices,
            "r": self.r,
            "vertexColours": list(self.vertex_colours),
            "edges": graph_to_json(self.graph)["edges"],
            "vertexColoursIgnored": self.vertex_colours_ignored,
        }
        if self.name is not None:
            data["name"] = self.name
        return data

    @classmethod
    def from_dict(cls, data: object) -> "TotallyColouredPattern":
        """Inverse of to_dict.  Raises GraphFormatError unless l, r and
        every colour are JSON integers, the [i, j, c] edge entries colour
        each of the C(l, 2) pairs exactly once (ColouredCompleteGraph.from_edges)
        and the optional name is a string."""
        if not isinstance(data, dict) or not {"l", "r", "vertexColours", "edges"} <= data.keys():
            raise GraphFormatError("pattern JSON needs the fields l, r, vertexColours and edges")
        l, r, vertex_colours, edges = data["l"], data["r"], data["vertexColours"], data["edges"]
        ignored = data.get("vertexColoursIgnored", False)
        name = data.get("name")
        if type(l) is not int or type(r) is not int or l < 1 or type(ignored) is not bool:
            raise GraphFormatError(
                f"need integers l >= 1 and r and a boolean vertexColoursIgnored, got "
                f"l={l!r}, r={r!r}, vertexColoursIgnored={ignored!r}"
            )
        if not (isinstance(vertex_colours, list) and len(vertex_colours) == l
                and all(type(c) is int for c in vertex_colours) and isinstance(edges, list)):
            raise GraphFormatError(f"need a list of {l} integer vertex colours and a list of edges")
        if "name" in data and not isinstance(name, str):
            raise GraphFormatError(f"pattern name must be a string, got {name!r}")
        graph = ColouredCompleteGraph.from_edges(l, r, edges)
        return cls(graph, tuple(vertex_colours), ignored, name)


@dataclass(frozen=True)
class BlowupWitness:
    """Disjoint host vertex sets certifying a (homogeneous) t-blow-up."""

    pattern: TotallyColouredPattern
    parts: tuple[tuple[int, ...], ...]
    t: int
    homogeneous: bool


def _library() -> dict[str, TotallyColouredPattern]:
    p1 = TotallyColouredPattern.from_parts(2, (RED, RED), {(0, 1): BLUE}, name="P1")
    p2 = TotallyColouredPattern.from_parts(2, (RED, BLUE), {(0, 1): RED}, name="P2")
    p3_edges = {(0, 1): BLUE, (1, 2): BLUE, (2, 3): BLUE}
    p3 = TotallyColouredPattern.from_parts(2, (RED, BLUE, BLUE, RED), p3_edges, name="P3")
    p3o = TotallyColouredPattern.from_parts(
        2, (RED, BLUE, BLUE, RED), p3_edges, vertex_colours_ignored=True, name="P3o"
    )
    c4 = TotallyColouredPattern.from_parts(
        2,
        (RED, RED, RED, RED),
        {(0, 2): BLUE, (1, 3): BLUE},  # red edges form the cycle 0-1-2-3-0
        vertex_colours_ignored=True,
        name="C4",
    )
    return {p.name: p for p in (p1, p2, p3, p3o, c4, p1.swap(), p2.swap(), c4.swap())}


_LIBRARY = _library()


def pattern_library() -> dict[str, TotallyColouredPattern]:
    """The named patterns, keyed by the strings the CLI accepts (a copy)."""
    return dict(_LIBRARY)


def get_pattern(name: str) -> TotallyColouredPattern:
    try:
        return _LIBRARY[name]
    except KeyError:
        raise KeyError(f"unknown pattern {name!r}; known: {sorted(_LIBRARY)}") from None


def induced_edge_pattern(G: ColouredCompleteGraph, S: Sequence[int]) -> TotallyColouredPattern:
    """The edge colouring G[S] as a pattern (vertex colours ignored).

    Hosts carry no vertex colours, so the pattern is flagged accordingly;
    pattern vertex i corresponds to the i-th smallest vertex of the
    nonempty host vertex set S.
    """
    verts = _vertex_set(S, G.n)
    if not verts:
        raise ValueError("S must be nonempty")
    graph = ColouredCompleteGraph(len(verts), G.r, G.table()[np.ix_(verts, verts)])
    return TotallyColouredPattern(graph, (0,) * len(verts), vertex_colours_ignored=True)


def blow_up(H: TotallyColouredPattern, t: int) -> ColouredCompleteGraph:
    """The t-blow-up H[t]: vertex i becomes a t-clique in colour
    vertex_colour(i); cross edges between parts i and j get edge_colour(i,j).

    Part i occupies the contiguous vertex block [i*t, (i+1)*t).
    """
    t = _integer(t, "t")
    if t < 1:
        raise ValueError(f"need t >= 1, got {t}")
    _check_size(H.num_vertices * t, H.r)
    quotient = H.graph.table().copy()
    np.fill_diagonal(quotient, H.vertex_colours)
    part = np.arange(H.num_vertices * t) // t
    return ColouredCompleteGraph(H.num_vertices * t, H.r, quotient[np.ix_(part, part)])


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


def _blowup_search(
    G: ColouredCompleteGraph,
    starts: Sequence[int],
    cliques: Sequence[int | None],
    cross: Sequence[Sequence[int]],
    t: int,
) -> tuple[tuple[int, ...], ...] | None:
    """The lexicographically least t-blow-up in G (parts in order, each
    sorted), or None: part i is a t-clique inside the vertex mask starts[i]
    in colour cliques[i] (None: in any one colour, fixed at its second
    vertex), and each pair between parts i < j has colour cross[i][j].

    Parts are filled in order, one vertex at a time, smallest first; each
    chosen vertex narrows its own part's candidates to its clique colour
    and every later part's to its cross colour.  A prefix is cut when a
    part has fewer candidates than it still needs.  Candidates only shrink,
    so a cut prefix has no witness and the first witness reached is least.
    The walk keeps its own stack, so its depth l * t is not bounded by
    Python's recursion limit.
    """
    l = len(starts)
    bits = [G.colour_bits(c) for c in range(G.r)]
    chosen: list[int] = []
    # frames[k]: the masks and clique colour after k choices, and the
    # candidates for choice k not yet tried
    frames = [(tuple(starts), None, _bits(starts[0]))]
    while frames:
        masks, colour, todo = frames[-1]
        v = next(todo, None)
        if v is None:
            frames.pop()
            if chosen:
                chosen.pop()
            continue
        i, size = divmod(len(chosen), t)
        own = masks[i] & -(2 << v)  # the candidates above v
        if size == 0:
            colour = cliques[i]
        elif size == 1 and cliques[i] is None:
            colour = G.colour(chosen[-1], v)
            own &= bits[colour][chosen[-1]]
        if colour is not None:
            own &= bits[colour][v]
        later = [m & bits[cross[i][j]][v] for j, m in enumerate(masks[i + 1:], i + 1)]
        if own.bit_count() >= t - size - 1 and all(m.bit_count() >= t for m in later):
            chosen.append(v)
            if len(chosen) == l * t:
                return tuple(tuple(chosen[k:k + t]) for k in range(0, l * t, t))
            masks = (*masks[:i], own, *later)
            frames.append((masks, colour, _bits(masks[len(chosen) // t])))
    return None


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
    the search itself is _blowup_search.
    """
    l = H.num_vertices
    if l > 8:
        raise ValueError("exhaustive blow-up search supports patterns with l <= 8")
    t = _integer(t, "t")
    if t < 1:
        raise ValueError(f"need t >= 1, got {t}")
    if comb(G.n, t) ** l > EXHAUSTIVE_SEARCH_BUDGET:
        raise SearchBudgetExceeded(
            f"C({G.n},{t})^{l} = {comb(G.n, t) ** l} exceeds budget {EXHAUSTIVE_SEARCH_BUDGET}"
        )
    fixed = not (homogeneous or H.vertex_colours_ignored)
    cross = H.graph.table()  # its diagonal is 0, so its largest entry is the largest edge colour
    if max([cross.max(), *(H.vertex_colours if fixed else ())]) >= G.r:
        return None
    # t = 1 parts are vacuously monochromatic in any colour
    cliques = H.vertex_colours if fixed and t > 1 else (None,) * l
    parts = _blowup_search(G, ((1 << G.n) - 1,) * l, cliques, cross.tolist(), t)
    return None if parts is None else BlowupWitness(H, parts, t, homogeneous)

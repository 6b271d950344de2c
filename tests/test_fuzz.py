"""Property tests for the JSON loaders: any JSON-shaped value either loads
or is rejected with a ValueError (GraphFormatError included), never with
another exception."""

from hypothesis import given, settings
from hypothesis import strategies as st

from localbalance import (
    ColouredCompleteGraph,
    TotallyColouredPattern,
    graph_from_json,
    graph_to_json,
)

FUZZ = settings(max_examples=200, deadline=None, derandomize=True, database=None)

json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-3, 12)
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=4)
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=6)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=20,
)
small = st.integers(-1, 6)
field = small | json_values
triple = st.lists(small, min_size=3, max_size=3)
entry = triple | field
digit_rows = st.lists(st.text(alphabet="0123456789x", max_size=6), max_size=7)

graph_like = st.fixed_dictionaries(
    {"n": field, "r": field},
    optional={"edges": st.lists(entry, max_size=16) | field, "rows": digit_rows | field},
)
pattern_like = st.fixed_dictionaries(
    {"l": field, "r": field},
    optional={
        "vertexColours": st.lists(small, max_size=6) | field,
        "edges": st.lists(entry, max_size=16) | field,
        "vertexColoursIgnored": st.booleans() | field,
    },
)


@st.composite
def compact_graphs(draw):
    """Compact JSON with rows of the right lengths and any digits."""
    n = draw(st.integers(1, 8))
    rows = [draw(st.text(alphabet="0123456789", min_size=n - u - 1, max_size=n - u - 1))
            for u in range(n)]
    return {"n": n, "r": draw(st.integers(0, 12)), "rows": rows}


@st.composite
def full_patterns(draw):
    """Pattern JSON listing every pair once, with colours possibly >= r."""
    l = draw(st.integers(1, 5))
    r = draw(st.integers(1, 4))
    edges = [[i, j, draw(st.integers(0, 4))] for i in range(l) for j in range(i + 1, l)]
    return {"l": l, "r": r, "vertexColours": draw(st.lists(small, min_size=l, max_size=l)),
            "edges": draw(st.permutations(edges))}


def load_graph(data):
    try:
        G = graph_from_json(data)
    except ValueError:
        return None
    assert isinstance(G, ColouredCompleteGraph)
    assert graph_from_json(graph_to_json(G)) == G
    return G


def load_pattern(data):
    try:
        H = TotallyColouredPattern.from_dict(data)
    except ValueError:
        return None
    assert TotallyColouredPattern.from_dict(H.to_dict()) == H
    return H


@FUZZ
@given(json_values | graph_like)
def test_graph_loader_never_crashes(data):
    load_graph(data)


@FUZZ
@given(compact_graphs())
def test_compact_loader_checks_every_digit(data):
    G = load_graph(data)
    digits = "".join(data["rows"])
    assert (G is not None) == (data["r"] >= 2 and all(int(d) < data["r"] for d in digits))
    if G is not None and G.r <= 10:
        assert graph_to_json(G, compact=True) == data


@FUZZ
@given(json_values | pattern_like)
def test_pattern_loader_never_crashes(data):
    load_pattern(data)


@FUZZ
@given(full_patterns())
def test_pattern_loader_reads_every_pair(data):
    H = load_pattern(data)
    ok = data["r"] >= 2 and all(0 <= c < data["r"] for c in data["vertexColours"]) and all(
        c < data["r"] for _, _, c in data["edges"])
    assert (H is not None) == ok
    if H is not None:
        for i, j, c in data["edges"]:
            assert H.edge_colour(i, j) == H.edge_colour(j, i) == c

"""Property tests for the JSON loaders: any JSON-shaped value either loads
or is rejected with a ValueError (GraphFormatError included), never with
another exception.  The numeric arguments of generate, min-unibalanced,
find-blowup and experiment get the CLI version of the rule: exit 0, 1 or 2
with at most one stderr line, never a traceback.  The smallest-unibalanced
search is checked against plain enumeration on small hosts, with and
without forced twins, and split closeness against single-vertex moves and
random sides up to n = 64.  Every function that takes host vertices
returns a result or raises ValueError for any drawn vertex list,
ValueError when an entry is no integer, and the same result for its
Python and numpy spellings."""

import contextlib
import io
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localbalance import (
    BipartiteColouring,
    BlowupWitness,
    CanonicalHypergraph,
    ColouredCompleteGraph,
    TotallyColouredPattern,
    canonical_hypergraph,
    closeness_to_split,
    count_alternating_c4,
    get_pattern,
    graph_from_json,
    graph_to_json,
    induced_edge_pattern,
    induced_unibalanced,
    make_random,
    make_split,
    min_unibalanced_subgraph,
    ramsey_clique,
    verify_witness,
)
from localbalance.cli import main
from localbalance.multicolour import _previous_twins
from localbalance.patterns import clique_colour
from hosts import (
    from_edges_reference,
    graph_from,
    naive_min_unibalanced,
    outcome,
    relabelled,
    split_cost_reference,
    with_twins,
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
bipartite_like = st.fixed_dictionaries(
    {"x": field, "y": field},
    optional={"rows": st.lists(st.text(alphabet="012 ", max_size=4), max_size=5) | field},
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
def bipartite_rows(draw):
    """Bipartite JSON with x rows of y characters, mostly colour digits."""
    x, y = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    row = st.text("01", min_size=y, max_size=y) | st.text("01x", min_size=y, max_size=y)
    return {"x": x, "y": y, "rows": draw(st.lists(row, min_size=x, max_size=x))}


@st.composite
def full_patterns(draw):
    """Pattern JSON listing every pair once, with colours possibly >= r."""
    l = draw(st.integers(1, 5))
    r = draw(st.integers(1, 4))
    edges = [[i, j, draw(st.integers(0, 4))] for i in range(l) for j in range(i + 1, l)]
    return {"l": l, "r": r, "vertexColours": draw(st.lists(small, min_size=l, max_size=l)),
            "edges": draw(st.permutations(edges))}


@st.composite
def edge_lists(draw):
    """(n, r, edges): every pair of an n-vertex host once, in any order and
    either orientation, then up to three corruptions: a field replaced, an
    entry inserted, dropped, repeated or made a tuple."""
    n, r = draw(st.integers(1, 6)), draw(st.integers(2, 4) | st.integers(-1, 1))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [[*(draw(st.permutations(p))), draw(st.integers(0, 1))] for p in pairs]
    edges = draw(st.permutations(edges))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("field", "insert", "drop", "repeat", "tuple")))
        if kind == "insert" or not edges:
            edges.insert(draw(st.integers(0, len(edges))), draw(entry))
            continue
        i = draw(st.integers(0, len(edges) - 1))
        if kind == "field" and isinstance(edges[i], list) and len(edges[i]) == 3:
            edges[i] = list(edges[i])
            edges[i][draw(st.integers(0, 2))] = draw(small | st.integers() | json_scalars)
        elif kind == "drop":
            del edges[i]
        elif kind == "repeat":
            twin = edges[i][::-1] if draw(st.booleans()) and isinstance(edges[i], list) else edges[i]
            edges.insert(draw(st.integers(0, len(edges))), twin)
        elif kind == "tuple" and isinstance(edges[i], list):
            edges[i] = tuple(edges[i])
    return n, r, edges


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


def load_bipartite(data):
    try:
        B = BipartiteColouring.from_dict(data)
    except ValueError:
        return None
    assert BipartiteColouring.from_dict(B.to_dict()) == B
    return B


@FUZZ
@given(edge_lists())
def test_bulk_edge_loader_matches_per_entry_reference(case):
    n, r, edges = case
    want = outcome(lambda: from_edges_reference(n, r, edges))
    assert outcome(lambda: ColouredCompleteGraph.from_edges(n, r, edges)) == want
    assert outcome(lambda: graph_from_json({"n": n, "r": r, "edges": edges})) == want


@FUZZ
@given(json_values | bipartite_like)
def test_bipartite_loader_never_crashes(data):
    load_bipartite(data)


@FUZZ
@given(bipartite_rows())
def test_bipartite_loader_checks_every_digit(data):
    B = load_bipartite(data)
    assert (B is not None) == all(set(row) <= {"0", "1"} for row in data["rows"])
    if B is not None:
        assert B.to_dict() == {"kind": "bipartite", **data}
        assert all(B.red[x, y] == (data["rows"][x][y] == "0")
                   for x in range(B.nx) for y in range(B.ny))


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


rationals = st.fractions(Fraction(-1, 2), Fraction(3, 2), max_denominator=12)
low_rationals = st.fractions(0, Fraction(1, 3), max_denominator=12) | rationals
half_rationals = st.fractions(0, Fraction(1, 2), max_denominator=12) | rationals
colours = st.integers(-1, 6) | st.integers(250, 300)


def run_cli(*argv):
    """Exit code and output of one CLI call: 0, 1 or 2 and at most one
    stderr line; an exception fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    assert err.count("\n") <= 1 and err[-1:] in ("", "\n")
    return code, out, err


def run_generate(*argv):
    """Exit code of one generate call: a JSON document, or one error line."""
    code, out, err = run_cli("generate", *argv)
    if code == 0:
        assert err == "" and "manifest" in json.loads(out)
    else:
        assert out == "" and err.count("\n") == 1
    return code


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(-3, 24), colours, st.integers(0, 2**40))
def test_generate_random_arguments(n, r, seed):
    code = run_generate("--family=random", f"--n={n}", f"--r={r}", f"--seed={seed}")
    assert code == (0 if n >= 1 and 2 <= r <= 255 else 2)


# an exhausted retry budget costs 1000 attempts, up to about 0.1 s at these sizes
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.integers(-3, 10), half_rationals, st.integers(0, 2**40))
def test_generate_bipartite_arguments(n_side, eps, seed):
    code = run_generate("--family=bipartite", f"--n-side={n_side}", f"--eps={eps}", f"--seed={seed}")
    if not (0 < eps <= Fraction(1, 2) and n_side >= 1):
        assert code == 2
    else:
        assert code in (0, 1)  # 1: the retry budget ran out


# an eps past the degree bound r * ceil(eps * n) <= n - 1 returns at once; one
# within it that no draw meets (n = 7, eps = 3/7) costs the full 10 000 rejected
# draws, about 0.4 s each
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.integers(-2, 10), colours, low_rationals, st.integers(0, 2**40))
def test_generate_balanced_arguments(n, r, eps, seed):
    code = run_generate("--family=balanced", f"--n={n}", f"--r={r}", f"--eps={eps}",
                        f"--seed={seed}")
    if not (0 <= eps <= 1 and n >= 1 and 2 <= r <= 255):
        assert code == 2
    else:
        assert code in (0, 1)  # 1: rejection sampling ran out


@st.composite
def small_hosts(draw, max_n=9):
    """Any r-colouring of K_n, n <= max_n, r = 2..4, pair colours drawn freely."""
    n = draw(st.integers(1, max_n))
    r = draw(st.integers(2, 4))
    colours = iter(draw(st.lists(st.integers(0, r - 1), min_size=n * (n - 1) // 2,
                                 max_size=n * (n - 1) // 2)))
    return graph_from(n, r, lambda u, v: next(colours))


@FUZZ
@given(small_hosts(), st.integers(1, 12))
def test_min_unibalanced_matches_enumeration(G, cap):
    assert min_unibalanced_subgraph(G, cap) == naive_min_unibalanced(G, cap)


@st.composite
def hosts_with_twins(draw):
    """A small host on 1..8 vertices with at least one vertex duplicated
    into a clique of twins, n <= 9 in all, relabelled by a drawn
    permutation."""
    G = draw(small_hosts(max_n=8))
    sizes = [1] * G.n
    for v in draw(st.lists(st.integers(0, G.n - 1), min_size=1, max_size=9 - G.n)):
        sizes[v] += 1
    colours = draw(st.lists(st.integers(0, G.r - 1), min_size=G.n, max_size=G.n))
    H = with_twins(G, sizes, colours)
    return relabelled(H, draw(st.permutations(range(H.n))))


@FUZZ
@given(hosts_with_twins(), st.integers(1, 12))
def test_min_unibalanced_with_twins_matches_enumeration(G, cap):
    assert any(u >= 0 for u in _previous_twins(G))
    assert min_unibalanced_subgraph(G, cap) == naive_min_unibalanced(G, cap)


@st.composite
def split_hosts(draw):
    """make_random or make_split (with flips) at n <= 64, any seed."""
    n = draw(st.integers(2, 64))
    seed = draw(st.integers(0, 2**64))
    if draw(st.booleans()):
        return make_random(n, 2, seed)
    a = draw(st.integers(0, n))
    return make_split(a, n - a, seed, draw(st.integers(0, n * (n - 1) // 2)))


@FUZZ
@given(split_hosts(), st.data())
def test_closeness_beats_moves_and_random_sides(G, data):
    c = closeness_to_split(G)
    mask = sum(1 << v for v in c.red_side)
    assert c.flips == split_cost_reference(G, mask)
    assert all(split_cost_reference(G, mask ^ 1 << v) >= c.flips for v in range(G.n))
    for other in data.draw(st.lists(st.integers(0, 2**G.n - 1), min_size=1, max_size=8)):
        assert split_cost_reference(G, other) >= c.flips


@st.composite
def vertex_lists(draw):
    """A host with n <= 8 and a list of up to six would-be vertices: ints in
    [-3, n + 3] as Python or numpy integers, bools, floats and strings;
    repeats come from the small range."""
    n = draw(st.integers(1, 8))
    G = make_random(n, draw(st.integers(2, 3)), draw(st.integers(0, 2**32)))
    ints = st.integers(-3, n + 3)
    vertex = (ints | ints.map(np.int64) | ints.map(np.int32) | st.booleans() | st.floats()
              | st.text(max_size=2))
    return G, draw(st.lists(vertex, max_size=6))


def halves(S):
    return S[:len(S) // 2], S[len(S) // 2:]


# every public function that takes host vertices, called as f(G, S)
VERTEX_FUNCTIONS = (
    lambda G, S: ramsey_clique(S, G),
    clique_colour,
    induced_edge_pattern,
    induced_unibalanced,
    lambda G, S: count_alternating_c4(G, *halves(S)),
    lambda G, S: verify_witness(
        G, BlowupWitness(get_pattern("P1"), halves(S), len(S) // 2, homogeneous=True)),
    lambda G, S: canonical_hypergraph(G, get_pattern("P1"), halves(S)),
    lambda G, S: CanonicalHypergraph.from_edges(halves(S), [(S[0], S[-1])] if len(S) else []),
)


def vertex_call(f, G, S):
    """f(G, S) as a comparable value, or ValueError if it raised one; any
    other exception fails the test."""
    try:
        got = f(G, S)
    except ValueError:  # InvalidWitnessError included
        return ValueError
    if isinstance(got, CanonicalHypergraph):
        return got.parts, list(got.edges())
    return got


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(vertex_lists())
def test_vertex_functions_return_or_raise_value_error(case):
    G, S = case
    integers = all(type(v) in (int, np.int64, np.int32) for v in S)  # bools excluded
    for f in VERTEX_FUNCTIONS:
        got = vertex_call(f, G, S)
        assert integers or got is ValueError  # each function reads all of S
        if integers:
            as_python = [int(v) for v in S]
            assert vertex_call(f, G, as_python) == got
            assert vertex_call(f, G, np.array(as_python, dtype=np.int64)) == got


@pytest.fixture(scope="module")
def cli_hosts(tmp_path_factory):
    """A 2-coloured random host for find-blowup and a 3-coloured cycle host
    with a size-4 unibalanced subgraph for min-unibalanced."""
    root = tmp_path_factory.mktemp("cli-hosts")
    random_host, cycle_host = str(root / "random.json"), str(root / "mcycle.json")
    assert main(["generate", "--family=random", "--n=12", "--seed=1", f"--out={random_host}"]) == 0
    assert main(["generate", "--family=mcycle", "--parts=4", "--part-size=2",
                 f"--out={cycle_host}"]) == 0
    return random_host, cycle_host


def int_list(values):
    return ",".join(map(str, values))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(-3, 14) | st.integers())
def test_min_unibalanced_cap_argument(cli_hosts, cap):
    code, out, _ = run_cli("min-unibalanced", cli_hosts[1], f"--cap={cap}")
    if 1 <= cap <= 12:
        assert code == 0 and json.loads(out)["minSize"] == (4 if cap >= 4 else None)
    else:
        assert code == 2 and out == ""


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(-3, 6) | st.integers())
def test_find_blowup_target_t_argument(cli_hosts, target_t):
    code, out, _ = run_cli("find-blowup", cli_hosts[0], "--pattern=P3o", "--retries=2",
                           f"--target-t={target_t}")
    if target_t < 1:
        assert code == 2 and out == ""
        return
    payload = json.loads(out)
    assert payload["metTarget"] == (payload["t"] >= target_t)
    assert code == (1 if payload["t"] < target_t else 0)


def run_experiment(n_list, eps_list, retries):
    code, out, err = run_cli("experiment", f"--n-list={int_list(n_list)}",
                             f"--eps-list={int_list(eps_list)}", f"--retries={retries}")
    valid = retries >= 1 and all(1 <= n <= 4096 for n in n_list) and all(
        0 <= eps <= 1 for eps in eps_list)
    if not valid:
        assert code == 2 and out == "" and err.startswith("error: ")
    else:
        rows = json.loads(out)["rows"]
        assert len(rows) == len(n_list) * len(eps_list)
        assert code == (1 if any(row["status"].startswith("error") for row in rows) else 0)


# mostly valid: every valid cell samples a host of n <= 9 (at most 10 000
# rejected draws, well under a second) and runs at most 4 partitions on it
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(-1, 9), min_size=1, max_size=3),
       st.lists(st.fractions(Fraction(-1, 4), Fraction(5, 4), max_denominator=8),
                min_size=1, max_size=2),
       st.integers(-1, 4))
def test_experiment_list_arguments(n_list, eps_list, retries):
    run_experiment(n_list, eps_list, retries)


# any integer but the slow valid ones: n in 10..4096 or more than 4 retries
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(max_value=9) | st.integers(min_value=4097), min_size=1, max_size=3),
       st.lists(rationals, min_size=1, max_size=3), st.integers(max_value=4))
def test_experiment_any_integers(n_list, eps_list, retries):
    run_experiment(n_list, eps_list, retries)

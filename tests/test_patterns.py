import random
import re
import tracemalloc

import numpy as np
import pytest

from localbalance import (
    BipartiteColouring,
    BlowupWitness,
    ColouredCompleteGraph,
    GraphFormatError,
    InvalidWitnessError,
    SearchBudgetExceeded,
    TotallyColouredPattern,
    balance_profile,
    blow_up,
    colour_swap,
    find_pattern_blowup_exhaustive,
    get_pattern,
    induced_unibalanced,
    make_Pk,
    make_random,
    pattern_library,
    verify_witness,
)
from localbalance.patterns import clique_colour
from hosts import find_pattern_blowup_reference, graph_from, is_unibalanced, patterns_isomorphic

RED, BLUE = 0, 1


def random_pattern(rng, l, r):
    vcols = tuple(rng.randrange(r) for _ in range(l))
    rows = [[0] * l for _ in range(l)]
    for i in range(l):
        for j in range(i + 1, l):
            rows[i][j] = rows[j][i] = rng.randrange(r)
    return TotallyColouredPattern(ColouredCompleteGraph(l, r, rows), vcols)


class TestLibrary:
    def test_p1(self):
        p1 = get_pattern("P1")
        assert p1.num_vertices == 2
        assert p1.vertex_colours == (RED, RED)
        assert p1.edge_colour(0, 1) == BLUE

    def test_p2(self):
        p2 = get_pattern("P2")
        assert p2.vertex_colours == (RED, BLUE)
        assert p2.edge_colour(0, 1) == RED

    def test_p3_exact_colours(self):
        p3 = get_pattern("P3")
        assert p3.num_vertices == 4
        assert p3.vertex_colours == (RED, BLUE, BLUE, RED)
        blue_edges = {
            (i, j)
            for i in range(4)
            for j in range(i + 1, 4)
            if p3.edge_colour(i, j) == BLUE
        }
        assert blue_edges == {(0, 1), (1, 2), (2, 3)}

    def test_c4_red_cycle(self):
        c4 = get_pattern("C4")
        red_edges = {
            (i, j)
            for i in range(4)
            for j in range(i + 1, 4)
            if c4.edge_colour(i, j) == RED
        }
        assert red_edges == {(0, 1), (1, 2), (2, 3), (0, 3)}
        assert c4.vertex_colours_ignored

    def test_m1_is_the_proper_k22(self):
        m1 = BipartiteColouring(np.eye(2, dtype=bool))
        assert (m1.nx, m1.ny) == (2, 2)
        for x in range(2):
            assert m1.red[x, 0] != m1.red[x, 1]
        for y in range(2):
            assert m1.red[0, y] != m1.red[1, y]

    def test_p3_self_complementary(self):
        p3 = get_pattern("P3")
        assert patterns_isomorphic(p3, p3.swap())

    def test_bars_are_swaps(self):
        lib = pattern_library()
        for name in ("P1", "P2", "C4"):
            assert patterns_isomorphic(lib[name].swap(), lib[name + "bar"])

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_pattern("P9")
        with pytest.raises(KeyError, match="unknown pattern 'M1'"):
            get_pattern("M1")

    @pytest.mark.parametrize("bad", [300, -1, 1.5, True])
    def test_from_parts_names_the_bad_edge(self, bad):
        # bytes(row) raised "bytes must be in range(0, 256)" or a TypeError,
        # and read True as colour 1
        message = rf"^colour {re.escape(repr(bad))} out of range at edge \(0,1\)$"
        with pytest.raises(ValueError, match=message):
            TotallyColouredPattern.from_parts(2, (0, 0), {(0, 1): bad})

    @pytest.mark.parametrize("bad", [0.5, True, 2, -1, "1"])
    def test_vertex_colours_follow_the_colour_rule(self, bad):
        # 0.5 was kept: blow_up read it as colour 0 and to_dict wrote a
        # pattern that from_dict refused
        message = rf"^vertex colour {re.escape(repr(bad))} is not an integer in range\(2\)$"
        with pytest.raises(ValueError, match=message):
            TotallyColouredPattern.from_parts(2, (0, bad), {(0, 1): 1})

    def test_numpy_vertex_colours_are_stored_as_ints(self):
        H = TotallyColouredPattern.from_parts(2, (np.uint8(1), np.int64(0)), {(0, 1): 1})
        assert H.vertex_colours == (1, 0)
        assert all(type(c) is int for c in H.vertex_colours)
        assert TotallyColouredPattern.from_dict(H.to_dict()) == H


class TestBlowUp:
    def test_p1_blowup_is_blue_ktt(self):
        for t in (2, 3):
            G = blow_up(get_pattern("P1"), t)
            assert G.n == 2 * t
            for u in range(2 * t):
                for v in range(u + 1, 2 * t):
                    same = (u < t) == (v < t)
                    assert G.colour(u, v) == (RED if same else BLUE)

    def test_p3_blowup_equals_pk(self):
        for k in (1, 2, 3, 4):
            assert blow_up(get_pattern("P3"), k) == make_Pk(k)

    def test_blowup_at_one_keeps_edge_colours(self):
        rng = random.Random(3)
        for _ in range(5):
            H = random_pattern(rng, 5, 3)
            G = blow_up(H, 1)
            assert G.n == 5
            for i in range(5):
                for j in range(i + 1, 5):
                    assert G.colour(i, j) == H.edge_colour(i, j)

    def test_matches_per_pair_definition(self):
        rng = random.Random(5)
        for l, r in ((1, 2), (3, 2), (5, 3), (4, 5)):
            H = random_pattern(rng, l, r)
            for t in (2, 3):
                G = blow_up(H, t)
                assert (G.n, G.r) == (l * t, r)
                for u in range(G.n):
                    for v in range(u + 1, G.n):
                        pu, pv = u // t, v // t
                        want = H.vertex_colour(pu) if pu == pv else H.edge_colour(pu, pv)
                        assert G.colour(u, v) == want

    def test_swap_commutes_with_blowup(self):
        rng = random.Random(4)
        for _ in range(5):
            H = random_pattern(rng, 4, 2)
            for t in (2, 3):
                assert colour_swap(blow_up(H, t)) == blow_up(H.swap(), t)

    def test_rejects_bad_t(self):
        with pytest.raises(ValueError):
            blow_up(get_pattern("P1"), 0)

    @pytest.mark.parametrize("t", [2.0, True, "2", None])
    def test_t_must_be_an_int(self, t):
        # 2.0 raised IndexError and True built the 1-blow-up
        with pytest.raises(ValueError, match=f"^t must be an integer, got {re.escape(repr(t))}$"):
            blow_up(get_pattern("P1"), t)

    def test_numpy_t_is_read_as_an_int(self):
        assert blow_up(get_pattern("P3"), np.int64(2)) == blow_up(get_pattern("P3"), 2)


class TestUnibalanced:
    def test_library_values(self):
        assert is_unibalanced(get_pattern("P1"))
        assert is_unibalanced(get_pattern("P3"))
        assert not is_unibalanced(get_pattern("P2"))

    def test_single_vertex(self):
        H = TotallyColouredPattern(ColouredCompleteGraph(1, 2, [[0]]), (RED,))
        assert not is_unibalanced(H)

    def test_unibalanced_iff_blowup_locally_balanced(self):
        # both directions, library plus random patterns, t = 2 and 3
        lib = list(pattern_library().values())
        rng = random.Random(11)
        pats = lib + [
            random_pattern(rng, rng.randrange(1, 6), rng.randrange(2, 4))
            for _ in range(30)
        ]
        for H in pats:
            uni = is_unibalanced(H)
            for t in (2, 3):
                eps = balance_profile(blow_up(H, t)).epsilon_local
                assert (eps > 0) == uni


class TestVerifyWitness:
    def test_defining_partition_all_library_patterns(self):
        for name, H in pattern_library().items():
            for t in (1, 2, 3, 4):
                G = blow_up(H, t)
                parts = tuple(
                    tuple(range(i * t, (i + 1) * t)) for i in range(H.num_vertices)
                )
                w = BlowupWitness(H, parts, t, homogeneous=False)
                assert verify_witness(G, w), (name, t)

    def test_pk_partition_matches_p3(self):
        k = 2
        G = make_Pk(k)
        parts = tuple(tuple(range(i * k, (i + 1) * k)) for i in range(4))
        w = BlowupWitness(get_pattern("P3"), parts, k, homogeneous=False)
        assert verify_witness(G, w)

    def test_broken_cross_edge_rejected(self):
        H = get_pattern("P3")
        G = blow_up(H, 2)
        parts = tuple(tuple(range(i * 2, (i + 1) * 2)) for i in range(4))
        rows = G.table().copy()
        # break one cross edge between parts 0 and 1 (pattern colour blue)
        rows[0, 2] = rows[2, 0] = RED
        broken = ColouredCompleteGraph(G.n, 2, rows)
        w = BlowupWitness(H, parts, 2, homogeneous=False)
        assert verify_witness(G, w)
        assert not verify_witness(broken, w)

    def test_wrong_part_colour_rejected_unless_homogeneous(self):
        H = get_pattern("P1")
        # both parts blue cliques, cross blue: a blow-up of P1bar's edge
        # pattern but with the wrong clique colours for P1
        G = graph_from(4, 2, lambda u, v: BLUE)
        parts = ((0, 1), (2, 3))
        assert not verify_witness(G, BlowupWitness(H, parts, 2, homogeneous=False))
        assert verify_witness(G, BlowupWitness(H, parts, 2, homogeneous=True))

    def test_overlap_raises(self):
        G = blow_up(get_pattern("P1"), 2)
        w = BlowupWitness(get_pattern("P1"), ((0, 1), (1, 2)), 2, homogeneous=False)
        with pytest.raises(InvalidWitnessError, match="repeats"):
            verify_witness(G, w)

    def test_out_of_range_raises(self):
        G = blow_up(get_pattern("P1"), 2)
        w = BlowupWitness(get_pattern("P1"), ((0, 1), (2, 9)), 2, homogeneous=False)
        with pytest.raises(InvalidWitnessError, match="range"):
            verify_witness(G, w)

    def test_wrong_size_raises(self):
        G = blow_up(get_pattern("P1"), 2)
        w = BlowupWitness(get_pattern("P1"), ((0, 1), (2,)), 2, homogeneous=False)
        with pytest.raises(InvalidWitnessError, match="size"):
            verify_witness(G, w)

    def test_singleton_parts_vacuous(self):
        H = get_pattern("P3")
        G = blow_up(H, 1)
        parts = ((0,), (1,), (2,), (3,))
        assert verify_witness(G, BlowupWitness(H, parts, 1, homogeneous=False))

    def test_cross_colour_beyond_host_rejected(self):
        H = TotallyColouredPattern.from_parts(3, (0, 0), {(0, 1): 2})
        G = graph_from(4, 2, lambda u, v: RED)
        assert not verify_witness(G, BlowupWitness(H, ((0, 1), (2, 3)), 2, homogeneous=True))


class TestNumpyVertices:
    """Vertex ids past 63 as numpy integers: 1 << np.int64(70) is int64
    arithmetic and overflows, so the bitmask checks read vertices as Python
    ints."""

    G = make_random(200, 2, 0)
    # a homogeneous C4 2-blow-up of this host; swapping its first two parts breaks it
    PARTS = ((13, 26), (41, 121), (27, 56), (62, 90))

    @pytest.mark.parametrize("order, want", [((0, 1, 2, 3), True), ((1, 0, 2, 3), False)])
    def test_verify_witness(self, order, want):
        parts = [self.PARTS[i] for i in order]
        as_np = tuple(tuple(np.array(p, dtype=np.int64)) for p in parts)
        for ps in (tuple(parts), as_np):
            assert verify_witness(self.G, BlowupWitness(get_pattern("C4"), ps, 2, True)) is want

    @pytest.mark.parametrize("verts, colour, unibalanced", [
        ((70, 121, 150), 0, False),
        ((65, 66, 67), None, False),
        ((3, 150, 170, 190, 20), None, False),
        ((3, 150, 170, 190, 20, 77, 99), None, True),
    ])
    def test_clique_colour_and_unibalanced(self, verts, colour, unibalanced):
        for vs in (verts, np.array(verts, dtype=np.int64)):
            assert clique_colour(self.G, vs) == colour
            assert induced_unibalanced(self.G, vs) is unibalanced

    def test_float_vertex_raises(self):
        with pytest.raises(ValueError):
            clique_colour(self.G, (41.0, 121))
        with pytest.raises(ValueError):
            induced_unibalanced(self.G, (3, 150.0))
        parts = ((13, 26), (41, 121.0), (27, 56), (62, 90))
        with pytest.raises(InvalidWitnessError):
            verify_witness(self.G, BlowupWitness(get_pattern("C4"), parts, 2, True))


class TestExhaustiveFinder:
    def test_pk2_has_no_p1_blowup(self):
        G = make_Pk(2)
        assert find_pattern_blowup_exhaustive(G, get_pattern("P1"), 2) is None
        assert find_pattern_blowup_exhaustive(G, get_pattern("P1bar"), 2) is None

    def test_planted_p1_found_lex_least(self):
        G = blow_up(get_pattern("P1"), 3)
        w = find_pattern_blowup_exhaustive(G, get_pattern("P1"), 3)
        assert w is not None
        assert w.parts == ((0, 1, 2), (3, 4, 5))
        assert verify_witness(G, w)

    def test_pk2_contains_p3_blowup(self):
        G = make_Pk(2)
        w = find_pattern_blowup_exhaustive(G, get_pattern("P3"), 2)
        assert w is not None
        assert w.parts == ((0, 1), (2, 3), (4, 5), (6, 7))
        assert verify_witness(G, w)

    def test_homogeneous_mode_ignores_part_colours(self):
        G = graph_from(4, 2, lambda u, v: BLUE)
        assert find_pattern_blowup_exhaustive(G, get_pattern("P1"), 2) is None
        w = find_pattern_blowup_exhaustive(G, get_pattern("P1"), 2, homogeneous=True)
        assert w is not None and verify_witness(G, w)

    def test_t_must_be_an_int(self):
        with pytest.raises(ValueError, match="^t must be an integer, got 2.0$"):
            find_pattern_blowup_exhaustive(make_Pk(2), get_pattern("P1"), 2.0)

    def test_deep_search_within_budget_runs(self):
        # l * t = 1199 choices deep; a recursive walk raised RecursionError
        G = ColouredCompleteGraph(1200, 2, np.zeros((1200, 1200), dtype=np.uint8))
        H = TotallyColouredPattern.from_parts(2, (RED,), {})
        w = find_pattern_blowup_exhaustive(G, H, 1199)
        assert w.parts == (tuple(range(1199)),)
        assert find_pattern_blowup_exhaustive(G, H.swap(), 1199) is None

    def test_budget_guard(self):
        # C(46, 2)^4 is about 1.15e12, over the 1e12 budget; C(45, 2)^4 is under it
        G = make_random(46, 2, 0)
        with pytest.raises(SearchBudgetExceeded):
            find_pattern_blowup_exhaustive(G, get_pattern("P3"), 2)

    def test_matches_the_combination_loop(self):
        # the vertex-by-vertex search against the combination loop it
        # replaced: the same least witness, or None, on small random hosts
        rng = random.Random(24)
        found = searches = 0
        for seed in range(24):
            n, r = rng.randrange(1, 14), rng.choice((2, 3))
            G = make_random(n, r, seed)
            patterns = list(pattern_library().values())
            for _ in range(4):
                l = rng.randrange(1, 5)
                edges = [(i, j, rng.randrange(r)) for i in range(l) for j in range(i + 1, l)]
                patterns.append(TotallyColouredPattern.from_parts(
                    r, [rng.randrange(r) for _ in range(l)], edges,
                    vertex_colours_ignored=rng.random() < 0.5))
            for H in patterns:
                for t in (1, 2, 3):
                    for homogeneous in (False, True):
                        w = find_pattern_blowup_exhaustive(G, H, t, homogeneous)
                        assert w == find_pattern_blowup_reference(G, H, t, homogeneous)
                        searches += 1
                        found += w is not None
        assert 0 < found < searches

    def test_found_witnesses_always_verify(self):
        rng = random.Random(6)
        lib = pattern_library()
        for _ in range(20):
            G = graph_from(
                8, 2, lambda u, v: rng.randrange(2)
            )
            for name in ("P1", "P1bar", "P3o"):
                H = lib[name]
                w = find_pattern_blowup_exhaustive(G, H, 2)
                if w is not None:
                    assert verify_witness(G, w)


class TestPatternJson:
    def test_round_trip(self):
        for name, H in pattern_library().items():
            again = TotallyColouredPattern.from_dict(H.to_dict())
            assert again == H and again.name == name

    @pytest.mark.parametrize("data", [
        [1, 2],
        "P3",
        None,
        {"r": 2, "vertexColours": [0, 0], "edges": [[0, 1, 1]]},
        {"l": 2, "r": 2, "vertexColours": [0, 0]},
        {"l": 2.7, "r": 2, "vertexColours": [0, 0], "edges": [[0, 1, 1]]},
        {"l": 2, "r": "2", "vertexColours": [0, 0], "edges": [[0, 1, 1]]},
        {"l": 0, "r": 2, "vertexColours": [], "edges": []},
        {"l": 2, "r": 2, "vertexColours": [0], "edges": [[0, 1, 1]]},
        {"l": 2, "r": 2, "vertexColours": [0, 1.0], "edges": [[0, 1, 1]]},
        {"l": 2, "r": 2, "vertexColours": [0, True], "edges": [[0, 1, 1]]},
        {"l": 2, "r": 2, "vertexColours": [0, 0], "edges": [[0, 1, 1]],
         "vertexColoursIgnored": 1},
        {"l": 2, "r": 2, "vertexColours": [0, 0], "edges": {"0": [0, 1, 1]}},
        {"l": 3, "r": 2, "vertexColours": [0, 0, 0], "edges": [[0, 1, 1], [0, 5, 0], [1, 2, 1]]},
        {"l": 3, "r": 2, "vertexColours": [0, 0, 0], "edges": [[0, 1, 1], [0, -1, 0], [1, 2, 1]]},
        {"l": 3, "r": 2, "vertexColours": [0, 0, 0], "edges": [[0, 1, 1], [1, 2, 1]]},
        {"l": 3, "r": 2, "vertexColours": [0, 0, 0], "edges": [[0, 1, 1], [1, 0, 0], [1, 2, 1]]},
        {"l": 3, "r": 2, "vertexColours": [0, 0, 0], "edges": [[0, 1, 1], [0, 2, 2], [1, 2, 1]]},
        {"l": 3, "r": 2, "vertexColours": [0, 0, 0], "edges": [[0, 1, 1], [0, 2], [1, 2, 1]]},
        {"l": 3, "r": 2, "vertexColours": [0, 0, 0], "edges": [[0, 1, 1], [0, 2, 0.0], [1, 2, 1]]},
        {"l": 3, "r": 2, "vertexColours": [0, 0, 0], "edges": [[0, 1, 1], [1, 1, 0], [1, 2, 1]]},
        {"l": 2, "r": 2, "vertexColours": [0, 0], "edges": [[0, 1, 1]], "name": 5},
        {"l": 2, "r": 2, "vertexColours": [0, 0], "edges": [[0, 1, 1]], "name": None},
        {"l": 2, "r": 2, "vertexColours": [0, 0], "edges": [[0, 1, 1]], "name": ["P1"]},
    ])
    def test_from_dict_rejects_malformed(self, data):
        with pytest.raises(GraphFormatError):
            TotallyColouredPattern.from_dict(data)

    def test_name_survives_its_json(self):
        data = {"l": 2, "r": 2, "vertexColours": [0, 0], "edges": [[0, 1, 1]]}
        assert TotallyColouredPattern.from_dict(data).name is None
        assert "name" not in TotallyColouredPattern.from_dict(data).to_dict()
        named = TotallyColouredPattern.from_dict({**data, "name": "café"})
        assert named.name == "café"
        assert named.to_dict() == {**data, "vertexColoursIgnored": False, "name": "café"}

    @pytest.mark.parametrize("r, colour", [(1, 0), (256, 0), (300, 299)])
    def test_from_dict_rejects_colour_count_hosts_cannot_have(self, r, colour):
        data = {"l": 2, "r": r, "vertexColours": [0, 0], "edges": [[0, 1, colour]]}
        with pytest.raises(ValueError, match="2 <= r <= 255"):
            TotallyColouredPattern.from_dict(data)

    def test_from_dict_checks_pair_count_before_allocation(self):
        data = {"l": 5000, "r": 2, "vertexColours": [0] * 5000, "edges": []}
        tracemalloc.start()
        try:
            with pytest.raises(GraphFormatError, match="expected 12497500 edges"):
                TotallyColouredPattern.from_dict(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_bipartite_round_trip(self):
        m1 = BipartiteColouring(np.eye(2, dtype=bool))
        assert m1.to_dict() == {"kind": "bipartite", "x": 2, "y": 2, "rows": ["01", "10"]}
        assert BipartiteColouring.from_dict(m1.to_dict()) == m1

    @pytest.mark.parametrize("data", [
        ["x", "y", "rows"],
        None,
        {"y": 1, "rows": ["0"]},
        {"x": 1, "rows": ["0"]},
        {"x": 1, "y": 1},
        {"x": 2.9, "y": True, "rows": ["0", "1"]},
        {"x": 2, "y": True, "rows": ["0", "1"]},
        {"x": 2.0, "y": 1, "rows": ["0", "1"]},
        {"x": "2", "y": 1, "rows": ["0", "1"]},
        {"x": 0, "y": 1, "rows": []},
        {"x": 1, "y": 0, "rows": [""]},
        {"x": 2, "y": 2, "rows": [[0, 1], [1, 0]]},
        {"x": 2, "y": 2, "rows": "0110"},
        {"x": 2, "y": 2, "rows": ["01"]},
        {"x": 2, "y": 2, "rows": ["01", "1"]},
        {"x": 2, "y": 2, "rows": ["01", "12"]},
        {"x": 2, "y": 2, "rows": ["01", " 1"]},
        {"x": 1, "y": 1, "rows": ["\u0660"]},
    ])
    def test_bipartite_from_dict_rejects_malformed(self, data):
        with pytest.raises(GraphFormatError):
            BipartiteColouring.from_dict(data)

    def test_bipartite_from_dict_checks_shape_before_allocation(self):
        tracemalloc.start()
        try:
            with pytest.raises(GraphFormatError, match="5000 strings"):
                BipartiteColouring.from_dict({"x": 5000, "y": 5000, "rows": []})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestInducedEdgePattern:
    def test_recovers_blown_up_pattern_edges(self):
        from localbalance import induced_edge_pattern

        rng = random.Random(5)
        for _ in range(8):
            H = random_pattern(rng, 4, 2)
            G = blow_up(H, 1)
            back = induced_edge_pattern(G, range(4))
            assert back.vertex_colours_ignored
            for i in range(4):
                for j in range(i + 1, 4):
                    assert back.edge_colour(i, j) == H.edge_colour(i, j)

    def test_subset_ordering(self):
        from localbalance import induced_edge_pattern, make_multicolour_cycle

        G = make_multicolour_cycle(6, 2)
        pat = induced_edge_pattern(G, (10, 0, 4, 2))  # sorted to 0,2,4,10
        assert pat.num_vertices == 4
        assert pat.edge_colour(0, 1) == G.colour(0, 2)
        assert pat.edge_colour(2, 3) == G.colour(4, 10)

    def test_rejects_empty(self):
        from localbalance import induced_edge_pattern

        with pytest.raises(ValueError):
            induced_edge_pattern(make_Pk(1), ())

    @pytest.mark.parametrize("S, bad", [
        ([-1, 0, 2], -1), ([0, 6], 6), ([6], 6), ([0, -1], -1), ([True, 2], True),
        ([0, True, 2], True),
    ])
    def test_rejects_vertex_out_of_range(self, S, bad):
        # a negative vertex must not count from the end of the table, a vertex
        # past it must not raise IndexError, and a bool is no vertex number;
        # the functions here that take a host vertex set all read it in core
        from localbalance import induced_edge_pattern, make_random

        G = make_random(6, 2, 0)
        message = rf"^vertex {bad} is not an integer in range\(6\)$"
        for f in (induced_edge_pattern, induced_unibalanced, clique_colour):
            with pytest.raises(ValueError, match=message):
                f(G, S)
        w = BlowupWitness(induced_edge_pattern(G, [3]), (S,), len(S), homogeneous=True)
        with pytest.raises(InvalidWitnessError, match=message):
            verify_witness(G, w)

    def test_rejects_repeated_vertex(self):
        # a repeat used to be dropped silently
        from localbalance import induced_edge_pattern

        with pytest.raises(ValueError, match="^vertex 1 repeats"):
            induced_edge_pattern(make_random(6, 2, 0), [1, 1, 2])

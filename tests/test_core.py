import json
import random
import tracemalloc
from fractions import Fraction

import pytest

from localbalance import (
    ColouredCompleteGraph,
    GraphFormatError,
    balance_profile,
    coloured_graphs_isomorphic,
    colour_swap,
    graph_from_json,
    graph_to_json,
    is_locally_balanced,
    make_Pk,
    make_random,
    make_split,
)


def mono(n, colour=0, r=2):
    return ColouredCompleteGraph.from_function(n, r, lambda u, v: colour)


def naive_min_colour_degree(G):
    """Independent degree count straight from the colour table."""
    best = None
    for v in range(G.n):
        for c in range(G.r):
            d = sum(1 for u in range(G.n) if u != v and G.colour(u, v) == c)
            best = d if best is None else min(best, d)
    return best


class TestConstruction:
    def test_rejects_asymmetric_table(self):
        rows = [bytes([0, 0, 1]), bytes([1, 0, 0]), bytes([1, 0, 0])]
        with pytest.raises(ValueError, match="symmetric"):
            ColouredCompleteGraph(3, 2, rows)

    def test_rejects_colour_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            ColouredCompleteGraph.from_function(3, 2, lambda u, v: 2)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            ColouredCompleteGraph.from_function(0, 2, lambda u, v: 0)
        with pytest.raises(ValueError):
            ColouredCompleteGraph.from_function(3, 1, lambda u, v: 0)

    def test_bitrows_partition_each_row(self):
        G = make_random(17, 3, seed=4)
        for v in range(G.n):
            union = 0
            for c in range(G.r):
                mask = G.neighbours(c, v)
                assert union & mask == 0
                union |= mask
            assert union == ((1 << G.n) - 1) & ~(1 << v)

    def test_colour_degrees_sum_to_n_minus_1(self):
        for G in (make_Pk(3), make_random(11, 3, 0), make_split(4, 5, seed=2)):
            prof = balance_profile(G)
            for v in range(G.n):
                assert sum(prof.degrees[v]) == G.n - 1


class TestBalanceProfile:
    def test_pk1_quarter_balanced(self):
        # each vertex of the 4-vertex construction has minority degree 1 = n/4
        assert balance_profile(make_Pk(1)).epsilon_local == Fraction(1, 4)

    def test_mono_k5_zero(self):
        assert balance_profile(mono(5)).epsilon_local == 0

    def test_pk3_exact_quarter_by_direct_count(self):
        G = make_Pk(3)
        assert naive_min_colour_degree(G) == 3  # k = n/4 minority edges per vertex
        prof = balance_profile(G)
        assert prof.min_degree_per_colour == 3
        assert prof.epsilon_local == Fraction(3, 12) == Fraction(1, 4)

    def test_single_vertex(self):
        prof = balance_profile(mono(1))
        assert prof.epsilon_local == 0
        assert prof.epsilon_global == 0

    def test_epsilon_global(self):
        # blue class of make_Pk(1) has 3 of 6 edges
        prof = balance_profile(make_Pk(1))
        assert prof.epsilon_global == Fraction(3, 6)

    def test_invariant_under_relabelling(self):
        G = make_random(13, 2, seed=9)
        base = balance_profile(G)
        rng = random.Random(1)
        for _ in range(5):
            perm = list(range(G.n))
            rng.shuffle(perm)
            prof = balance_profile(G.relabelled(perm))
            assert prof.epsilon_local == base.epsilon_local
            assert prof.epsilon_global == base.epsilon_global
            assert sorted(prof.degrees) == sorted(base.degrees)

    def test_range_of_epsilon_local(self):
        for seed in range(5):
            G = make_random(9, 3, seed)
            eps = balance_profile(G).epsilon_local
            assert 0 <= eps <= Fraction(G.r - 1, G.r)

    def test_local_balance_bounds_global(self):
        # each colour class has at least n * (eps_local * n) / 2 edges
        for seed in range(6):
            G = make_random(11, 2, seed)
            prof = balance_profile(G)
            assert prof.epsilon_global >= prof.epsilon_local * Fraction(G.n, G.n - 1)


class TestIsLocallyBalanced:
    def test_pk2_quarter_true(self):
        assert is_locally_balanced(make_Pk(2), Fraction(1, 4))

    def test_pk2_above_quarter_false(self):
        assert not is_locally_balanced(make_Pk(2), Fraction(1, 4) + Fraction(1, 1000))

    def test_zero_threshold_true(self):
        assert is_locally_balanced(mono(6), 0)
        assert is_locally_balanced(make_random(9, 3, 0), 0)

    def test_boundary_is_exactly_own_epsilon(self):
        for seed in range(8):
            G = make_random(10, 2, seed)
            prof = balance_profile(G)
            assert is_locally_balanced(G, prof.epsilon_local)
            above = prof.epsilon_local + Fraction(1, 2 * G.n)
            if above <= 1:
                assert not is_locally_balanced(G, above)

    def test_rejects_out_of_range_eps(self):
        with pytest.raises(ValueError):
            is_locally_balanced(mono(4), Fraction(3, 2))


class TestColourSwap:
    def test_mono_red_becomes_mono_blue(self):
        assert colour_swap(mono(4, colour=0)) == mono(4, colour=1)

    def test_involution(self):
        for seed in range(4):
            G = make_random(10, 2, seed)
            assert colour_swap(colour_swap(G)) == G

    def test_pk1_self_complementary_up_to_iso(self):
        G = make_Pk(1)
        assert coloured_graphs_isomorphic(G, colour_swap(G))

    def test_split_swap_is_again_split(self):
        # the colour swap of a split colouring is a split colouring with the
        # two cliques exchanged; with random cross edges the swap need not be
        # isomorphic to the original, so the claim lives on the clique sides
        from localbalance import closeness_to_split

        G = make_split(3, 3, seed=5)
        swapped = closeness_to_split(colour_swap(G))
        assert swapped.delta == 0
        assert set(swapped.red_side) == {3, 4, 5}

    def test_split_swap_isomorphic_when_cross_symmetric(self):
        # equal cliques plus a swap-symmetric cross colouring: exchanging the
        # sides is a genuine colour-preserving isomorphism after the swap
        def colour(u, v):
            if v < 2:
                return 0
            if u >= 2:
                return 1
            return 0 if (u, v) in ((0, 3), (1, 2)) else 1

        G = ColouredCompleteGraph.from_function(4, 2, colour)
        assert coloured_graphs_isomorphic(G, colour_swap(G))

    def test_epsilon_invariant_under_swap(self):
        for seed in range(4):
            G = make_random(12, 2, seed)
            assert (
                balance_profile(G).epsilon_local
                == balance_profile(colour_swap(G)).epsilon_local
            )

    def test_rejects_three_colours(self):
        with pytest.raises(ValueError):
            colour_swap(make_random(5, 3, 0))


class TestJson:
    def test_full_round_trip(self):
        G = make_random(9, 3, seed=2)
        assert graph_from_json(graph_to_json(G)) == G

    def test_compact_round_trip(self):
        G = make_Pk(2)
        data = graph_to_json(G, compact=True)
        assert [len(row) for row in data["rows"]] == [7, 6, 5, 4, 3, 2, 1, 0]
        assert graph_from_json(data) == G

    def test_rejects_self_loop(self):
        data = graph_to_json(mono(3))
        data["edges"][0] = [1, 1, 0]
        with pytest.raises(GraphFormatError, match="self-loop"):
            graph_from_json(data)

    def test_rejects_duplicate(self):
        data = graph_to_json(mono(3))
        data["edges"][1] = data["edges"][0]
        with pytest.raises(GraphFormatError, match="duplicate"):
            graph_from_json(data)

    def test_rejects_missing_pair(self):
        data = graph_to_json(mono(4))
        data["edges"] = data["edges"][:-1]
        with pytest.raises(GraphFormatError, match="expected"):
            graph_from_json(data)

    def test_rejects_colour_too_big(self):
        data = graph_to_json(mono(3))
        data["edges"][0][2] = 2
        with pytest.raises(GraphFormatError, match="out of range"):
            graph_from_json(data)

    def test_rejects_bad_compact_digit(self):
        with pytest.raises(GraphFormatError, match="digit"):
            graph_from_json({"n": 3, "r": 2, "rows": ["0x", "0", ""]})

    def test_rejects_wrong_row_length(self):
        with pytest.raises(GraphFormatError, match="length"):
            graph_from_json({"n": 3, "r": 2, "rows": ["000", "0", ""]})

    @pytest.mark.parametrize("data", [
        {"n": 3, "r": 2, "edges": 5},
        {"n": 3, "r": 2, "edges": {"0": [0, 1, 0]}},
        {"n": 3, "r": 2, "edges": [[0, 1, 0], 7, [1, 2, 0]]},
        {"n": 3, "r": 2, "edges": [[0, 1, 0], "012", [1, 2, 0]]},
        {"n": 3, "r": 2, "edges": [[0, 1, 0], [0, 2, None], [1, 2, 0]]},
        {"n": 3, "r": 2, "edges": [[0, 1, 0], [0, "x", 0], [1, 2, 0]]},
        {"n": 3, "r": 2, "rows": [1, 2, 3]},
        {"n": 3, "r": 2, "rows": ["00", ["0"], ""]},
        {"n": 3, "r": 2, "rows": "00"},
        {"n": 0, "r": 2, "edges": []},
    ])
    def test_rejects_malformed_structure(self, data):
        with pytest.raises(GraphFormatError):
            graph_from_json(data)

    def test_edge_count_checked_before_allocation(self):
        tracemalloc.start()
        try:
            with pytest.raises(GraphFormatError, match="expected 12497500 edges"):
                graph_from_json({"n": 5000, "r": 2, "edges": []})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_json_is_serialisable(self):
        G = make_random(6, 2, 0)
        json.dumps(graph_to_json(G))
        json.dumps(graph_to_json(G, compact=True))

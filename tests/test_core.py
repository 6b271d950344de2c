import json
import random
import re
import tracemalloc
from collections import namedtuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localbalance import (
    ColouredCompleteGraph,
    GraphFormatError,
    balance_profile,
    colour_swap,
    graph_from_json,
    graph_to_json,
    is_locally_balanced,
    least_balanced_degree,
    make_Pk,
    make_random,
    make_split,
)
from hosts import (
    coloured_graphs_isomorphic,
    from_edges_reference,
    graph_from,
    graph_to_json_reference,
    outcome,
    relabelled,
)
from localbalance.core import _read_graph_json


MALFORMED = [
    {"n": 3, "r": 2, "edges": 5},
    {"n": 3, "r": 2, "edges": {"0": [0, 1, 0]}},
    {"n": 3, "r": 2, "edges": [[0, 1, 0], 7, [1, 2, 0]]},
    {"n": 3, "r": 2, "edges": [[0, 1, 0], "012", [1, 2, 0]]},
    {"n": 3, "r": 2, "edges": [[0, 1, 0], [0, 2, None], [1, 2, 0]]},
    {"n": 3, "r": 2, "edges": [[0, 1, 0], [0, "x", 0], [1, 2, 0]]},
    {"n": 3, "r": 2, "rows": [1, 2, 3]},
    {"n": 3, "r": 2, "rows": ["00", ["0"], ""]},
    {"n": 3, "r": 2, "rows": "00"},
    {"n": 3, "r": 2, "rows": ["02", "0", ""]},
    {"n": 4, "r": 3, "rows": ["012", "01", "9", ""]},
    {"n": 2, "r": 2, "rows": ["\u0661", ""]},
    {"n": 0, "r": 2, "edges": []},
    {"n": 3, "r": 2, "edges": [[0, 1, 0], [0, 1.7, True], [1, 2, 0]]},
    {"n": 3, "r": 2, "edges": [[0, 1, 0], [0, 2, True], [1, 2, 0]]},
    {"n": 3, "r": 2, "edges": [[0, 1, 0], [0, 2.0, 1], [1, 2, 0]]},
    {"n": 3, "r": 2, "edges": [[0, 1, 0], [0, 2, 1], [1, 2, 0.0]]},
    {"n": "3", "r": 2, "rows": ["00", "0", ""]},
    {"n": 3, "r": 2.9, "rows": ["00", "0", ""]},
    {"n": 3.0, "r": 2, "rows": ["00", "0", ""]},
    {"n": 3, "r": True, "rows": ["00", "0", ""]},
    {"n": 3, "r": None, "rows": ["00", "0", ""]},
    {"r": 2, "rows": ["00", "0", ""]},
]


def mono(n, colour=0, r=2):
    return graph_from(n, r, lambda u, v: colour)


def naive_bits(rows, n, r):
    """Per-colour neighbourhood bitmasks by the per-pair loop (reference)."""
    bits = []
    for c in range(r):
        per_vertex = []
        for u in range(n):
            mask = 0
            for v in range(n):
                if v != u and rows[u][v] == c:
                    mask |= 1 << v
            per_vertex.append(mask)
        bits.append(tuple(per_vertex))
    return tuple(bits)


def random_rows(rng, n, r):
    """A random symmetric colour table with zero diagonal, as bytearrays."""
    rows = [bytearray(n) for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            rows[u][v] = rows[v][u] = rng.randrange(r)
    return rows


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
            graph_from(3, 2, lambda u, v: 2)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            graph_from(0, 2, lambda u, v: 0)
        with pytest.raises(ValueError):
            graph_from(3, 1, lambda u, v: 0)

    def test_bitrows_partition_each_row(self):
        G = make_random(17, 3, seed=4)
        for v in range(G.n):
            union = 0
            for c in range(G.r):
                mask = G.neighbours(c, v)
                assert union & mask == 0
                union |= mask
            assert union == ((1 << G.n) - 1) & ~(1 << v)

    @pytest.mark.parametrize("r", [2, 3, 5])
    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 63, 64, 65])
    def test_matches_per_pair_reference(self, n, r):
        # n around the byte boundaries of the packed bitmask rows
        rng = random.Random(1000 * n + r)
        rows = random_rows(rng, n, r)
        G = ColouredCompleteGraph(n, r, rows)
        assert G.table().tobytes() == b"".join(bytes(row) for row in rows)
        assert G._bits == naive_bits(rows, n, r)
        assert G.table().tolist() == [list(row) for row in rows]
        perm = list(range(n))
        rng.shuffle(perm)
        H = relabelled(G, perm)
        want = [bytearray(n) for _ in range(n)]
        for u in range(n):
            for v in range(u + 1, n):
                want[perm[u]][perm[v]] = want[perm[v]][perm[u]] = rows[u][v]
        assert H.table().tobytes() == b"".join(bytes(row) for row in want)
        assert H._bits == naive_bits(want, n, r)
        if r == 2:
            S = colour_swap(G)
            want = [bytes(0 if v == u else 1 - row[v] for v in range(n))
                    for u, row in enumerate(rows)]
            assert S.table().tobytes() == b"".join(want)
            assert S._bits == naive_bits(want, n, 2)

    def test_diagonal_is_stored_as_zero(self):
        rows = random_rows(random.Random(2), 6, 3)
        other = [bytearray(row) for row in rows]
        for u in range(6):
            other[u][u] = 200 if u % 2 else 2
        G, H = ColouredCompleteGraph(6, 3, rows), ColouredCompleteGraph(6, 3, other)
        assert G == H and hash(G) == hash(H)
        assert H.table()[3, 3] == 0 and H._bits == naive_bits(rows, 6, 3)

    def test_table_is_read_only(self):
        T = make_random(5, 3, seed=1).table()
        assert T.shape == (5, 5) and T.dtype == "uint8"
        with pytest.raises(ValueError):
            T[0, 1] = 2

    def test_table_is_a_view_of_the_one_buffer(self):
        # the graph kept its rows as n bytes objects, and table() joined them per call
        G = make_random(5, 3, seed=1)
        assert np.shares_memory(G.table(), G.table())
        assert type(G.colour(0, 1)) is int
        assert not hasattr(G, "_rows")

    def test_pair_colours_hold_one_mask(self):
        # the table and its upper-triangle mask; ~np.tri and table | table.T
        # were two more n x n temporaries, and the mask outlived the fill
        n = 1024
        colours = np.random.default_rng(0).integers(0, 2, n * (n - 1) // 2, dtype=np.uint8)
        tracemalloc.start()
        try:
            G = ColouredCompleteGraph.from_pair_colours(n, 2, colours)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        us, vs = np.triu_indices(n, 1)
        assert np.array_equal(G.table()[us, vs], colours)
        assert np.array_equal(G.table(), G.table().T)
        assert peak < 4.75 * n * n

    def test_masks_are_packed_one_colour_at_a_time(self):
        # an (r, n, n) one-hot of the masks alone is r * n^2 bytes
        n, r = 512, 16
        table = make_random(n, r, 0).table().copy()
        tracemalloc.start()
        try:
            G = ColouredCompleteGraph(n, r, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert G.colour_bits(r - 1) == tuple(
            sum(1 << v for v in range(n) if v != u and table[u, v] == r - 1) for u in range(n))
        assert peak < r * n * n // 2

    @pytest.mark.parametrize("bad, message", [
        # the first bad pair u < v in row-major order is the one reported
        ({(1, 4): 7, (2, 3): 1}, "colour 7 out of range at edge (1,4)"),
        ({(2, 3): 1, (4, 1): 7}, "not symmetric at (1,4)"),
        ({(3, 2): 9}, "not symmetric at (2,3)"),
        ({(0, 5): 3, (5, 0): 3}, "colour 3 out of range at edge (0,5)"),
    ])
    def test_names_first_bad_pair(self, bad, message):
        rows = [bytearray(6) for _ in range(6)]
        for (u, v), c in bad.items():
            rows[u][v] = c
        with pytest.raises(ValueError, match=re.escape(message)):
            ColouredCompleteGraph(6, 3, rows)

    @pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint16, np.uint64, np.intp])
    def test_numpy_tables_are_read_by_value(self, dtype):
        # bytes() of a wide row gave 8 bytes per int64 entry, a shape error
        rows = random_rows(random.Random(3), 6, 3)
        table = np.array([list(row) for row in rows], dtype=dtype)
        assert ColouredCompleteGraph(6, 3, table) == ColouredCompleteGraph(6, 3, rows)
        assert ColouredCompleteGraph(2, 2, np.array([[0, 1], [1, 0]])).colour(0, 1) == 1

    @pytest.mark.parametrize("dtype", [bool, np.float64, np.float32, object])
    def test_refuses_non_integer_numpy_tables(self, dtype):
        # a bool table used to build colour(0, 1) == 1, a float one to
        # report a shape error
        table = np.array([[0, 1], [1, 0]], dtype=dtype)
        message = f"^colour table must have an integer dtype, got {np.dtype(dtype)}$"
        with pytest.raises(ValueError, match=message):
            ColouredCompleteGraph(2, 2, table)

    @pytest.mark.parametrize("bad, dtype", [(256, np.int64), (-1, np.int8), (2**40, np.uint64)])
    def test_numpy_range_is_checked_before_the_cast(self, bad, dtype):
        # a cast to uint8 first would read 256 and 2**40 as 0 and -1 as 255
        table = np.zeros((3, 3), dtype=dtype)
        table[1, 2] = table[2, 1] = bad
        with pytest.raises(ValueError, match=rf"^colour {bad} out of range at edge \(1,2\)$"):
            ColouredCompleteGraph(3, 2, table)

    @pytest.mark.parametrize("rows", [[[0, True], [True, 0]], ((0, 1), (False, 0))])
    def test_refuses_bool_entries_in_python_rows(self, rows):
        # bytes([True]) is b"\x01": the graph had colour(0, 1) == 1
        u, v = (0, 1) if rows[0][1] is True else (1, 0)
        message = rf"^colour {rows[u][v]!r} out of range at edge \({u},{v}\)$"
        with pytest.raises(ValueError, match=message):
            ColouredCompleteGraph(2, 2, rows)

    @pytest.mark.parametrize("diagonal", [300, -1])
    def test_integer_diagonal_of_any_value_is_ignored(self, diagonal):
        # Python rows raised "colour 300 out of range at edge (0,0)" while
        # the same numpy table built a graph
        want = ColouredCompleteGraph(3, 2, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        rows = [[diagonal, 1, 0], [1, 0, 1], [0, 1, diagonal]]
        for table in (rows, tuple(map(tuple, rows)), np.array(rows)):
            G = ColouredCompleteGraph(3, 2, table)
            assert G == want and G.table()[0, 0] == G.table()[2, 2] == 0

    @pytest.mark.parametrize("bad, dtype", [(True, bool), (1.5, np.float64)])
    def test_refuses_bool_and_non_integer_diagonal_entries(self, bad, dtype):
        rows = [[0, 1], [1, bad]]
        with pytest.raises(ValueError, match=rf"^colour {bad!r} out of range at edge \(1,1\)$"):
            ColouredCompleteGraph(2, 2, rows)
        with pytest.raises(ValueError, match="integer dtype"):
            ColouredCompleteGraph(2, 2, np.array(rows, dtype=dtype))

    def test_rejects_ragged_table(self):
        with pytest.raises(ValueError, match="n x n"):
            ColouredCompleteGraph(3, 2, [bytes(3), bytes(2), bytes(3)])
        with pytest.raises(ValueError, match="n x n"):
            ColouredCompleteGraph(3, 2, [bytes(3), bytes(3)])

    @pytest.mark.parametrize("bad", [-1, True, 6, 1.0, "2", None])
    def test_vertex_readers_follow_the_vertex_rule(self, bad):
        # -1 used to read vertex n - 1 and True vertex 1; n raised a bare
        # IndexError and 1.0 a TypeError
        from localbalance import induced_edge_pattern

        G = make_random(6, 2, 0)
        H = induced_edge_pattern(G, range(6))
        message = rf"^vertex {re.escape(repr(bad))} is not an integer in range\(6\)$"
        readers = [lambda: G.colour(0, bad), lambda: G.colour(bad, 2), lambda: G.neighbours(0, bad),
                   lambda: H.edge_colour(0, bad), lambda: H.edge_colour(bad, 2)]
        for read in readers:
            with pytest.raises(ValueError, match=message):
                read()

    @pytest.mark.parametrize("bad", [-1, 3, True, 1.0])
    def test_colour_readers_follow_the_colour_rule(self, bad):
        # -1 used to read colour 2's masks and 3 raised a bare IndexError
        G = make_random(6, 3, 0)
        message = rf"^colour {re.escape(repr(bad))} is not an integer in range\(3\)$"
        for read in (lambda: G.colour_bits(bad), lambda: G.neighbours(bad, 0)):
            with pytest.raises(ValueError, match=message):
                read()

    def test_vertex_readers_take_numpy_integers(self):
        G = make_random(6, 2, 0)
        assert G.colour(np.int64(0), np.uint8(5)) == G.colour(0, 5) == G.table()[0, 5]
        assert G.neighbours(1, np.int32(4)) == G.colour_bits(1)[4]
        assert G.neighbours(np.uint8(1), 4) == G.colour_bits(np.int64(1))[4]
        with pytest.raises(ValueError, match="self-loops"):
            G.colour(3, np.int64(3))

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
            prof = balance_profile(relabelled(G, perm))
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

    @pytest.mark.parametrize("eps, n, need", [
        (0, 7, 0), (Fraction(1, 4), 12, 3), (Fraction(3, 11), 11, 3),
        (Fraction(1, 3), 10, 4), ("0.3", 16, 5), (0.25, 9, 3), (1, 5, 5),
    ])
    def test_least_degree_is_the_integer_ceiling(self, eps, n, need):
        assert least_balanced_degree(eps, n) == need
        # the least degree d with d >= eps * n, found by exact comparison
        assert need == min(d for d in range(n + 1) if d >= Fraction(str(eps)) * n)

    @pytest.mark.parametrize("eps", [Fraction(-1, 9), Fraction(10, 9), float("nan")])
    def test_least_degree_rejects_out_of_range_eps(self, eps):
        with pytest.raises(ValueError):
            least_balanced_degree(eps, 8)

    def test_float_eps_reads_as_its_decimal(self):
        assert is_locally_balanced(make_Pk(3), 0.25)
        assert not is_locally_balanced(make_Pk(3), 0.2501)
        # every vertex has blue degree 1 of n = 10: exactly 1/10-balanced,
        # while the binary float nearest 0.1 lies just above 1/10
        matching = graph_from(10, 2, lambda u, v: int(u // 2 == v // 2))
        assert balance_profile(matching).epsilon_local == Fraction(1, 10)
        assert is_locally_balanced(matching, 0.1)
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                is_locally_balanced(matching, bad)


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

        G = graph_from(4, 2, colour)
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

    @pytest.mark.parametrize("rows, r, message", [
        (["012", "01", "9", ""], 3, "colour 9 out of range in edge (2,3)"),
        (["010", "05", "3", ""], 2, "colour 5 out of range in edge (1,3)"),
        (["300", "00", "0", ""], 3, "colour 3 out of range in edge (0,1)"),
    ])
    def test_compact_colour_error_names_first_pair(self, rows, r, message):
        with pytest.raises(GraphFormatError) as exc:
            graph_from_json({"n": 4, "r": r, "rows": rows})
        assert str(exc.value) == message

    def test_compact_colour_error_scans_the_rows_only(self):
        # the first bad pair was found in n x n tables, three of them at once
        n = 1000
        rng = random.Random(5)
        rows = ["".join(rng.choice("01") for _ in range(n - u - 1)) for u in range(n)]
        for u in (0, 3, 498, 998):
            k = rng.randrange(len(rows[u]))
            bad = rows[:u] + [rows[u][:k] + "7" + rows[u][k + 1:]] + rows[u + 1:]
            tracemalloc.start()
            try:
                with pytest.raises(GraphFormatError) as exc:
                    graph_from_json({"n": n, "r": 2, "rows": bad})
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert str(exc.value) == f"colour 7 out of range in edge ({u},{u + 1 + k})"
            assert peak < 2 * n * n

    @pytest.mark.parametrize("data", [
        {"n": 2, "r": 300, "edges": [[0, 1, 0]]},
        {"n": 3, "r": 1, "rows": ["00", "0", ""]},
    ])
    def test_bad_r_reads_like_the_generators(self, data):
        # one n/r check serves the loaders and the random families
        with pytest.raises(ValueError, match=r"^need 2 <= r <= 255, got r=\d+$"):
            graph_from_json(data)

    def test_rejects_wrong_row_length(self):
        with pytest.raises(GraphFormatError, match="length"):
            graph_from_json({"n": 3, "r": 2, "rows": ["000", "0", ""]})

    @pytest.mark.parametrize("data", MALFORMED)
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

    @pytest.mark.parametrize("r", [2, 3])
    @pytest.mark.parametrize("compact", [False, True])
    def test_writer_matches_per_pair_reference(self, r, compact):
        for n in (1, 2, 7, 40):
            for seed in range(2):
                G = make_random(n, r, seed)
                data = graph_to_json(G, compact=compact)
                assert data == graph_to_json_reference(G, compact=compact)
                assert json.dumps(data) == json.dumps(graph_to_json_reference(G, compact=compact))

    def test_json_is_serialisable(self):
        G = make_random(6, 2, 0)
        json.dumps(graph_to_json(G))
        json.dumps(graph_to_json(G, compact=True))


Pair = namedtuple("Pair", "u v c")
OK3 = [[0, 1, 0], [0, 2, 1], [1, 2, 0]]
# (n, r, edge list) cases for ColouredCompleteGraph.from_edges beyond MALFORMED
EDGE_LISTS = [
    (3, 2, OK3),
    (3, 2, [[0, 1, 0], [-1, 2, 1], [1, 2, 0]]),          # negative vertex
    (3, 2, [[0, 1, 0], [0, 10**30, 1], [1, 2, 0]]),      # vertex past int64
    (3, 2, [[0, 1, 0], [0, 2**31, 1], [1, 2, 0]]),       # vertex past int32
    (3, 2, [[0, 1, 0], [0, 2, 10**30], [1, 2, 0]]),      # colour past int64
    (3, 2, [[0, 1, 0], [0, 2, -1], [1, 2, 0]]),
    (3, 2, [[0, 1, 0], [2, 2, 1], [1, 2, 0]]),           # self-loop
    (3, 2, [(0, 1, 0), (0, 2, 1), (1, 2, 0)]),           # tuple entries
    (3, 2, [(0, 1, 0), (0, 2, 5), (1, 2, 0)]),
    (3, 2, [Pair(0, 1, 0), Pair(0, 2, 1), Pair(1, 2, 0)]),
    (3, 2, [[0, 1, 0], [1, 0, 1], [1, 2, 0]]),           # duplicate after its twin
    (3, 2, [[0, 1, 0], [0, 2, 1], [0, 1, 1]]),
    (3, 2, [[0, 1, 0], [0, 1, 0], "x"]),                 # duplicate before a bad entry
    (3, 2, [[0, 1, 0], "x", [0, 1, 0]]),
    (3, 2, [[0, 1, 0], [0, 2, 1]]),                      # missing pair
    (3, 2, OK3 + [[1, 2, 0]]),
    (3, 2, [[0, 1, 0], [0, 2, 1], [1, 2, 0, 0]]),
    (3, 1, OK3),                                         # r out of range, entries fine
    (3, 0, OK3),
    (3, 255, [[0, 1, 254], [0, 2, 1], [1, 2, 0]]),
    (3, 256, OK3),
    (1, 2, []),
    (0, 2, []),
    (2, 2, [[0, 1, True]]),
    (4, 3, [list(e) for e in reversed([(u, v, (u + v) % 3) for u in range(4) for v in range(u + 1, 4)])]),
]


def plain_edges(edges) -> bool:
    """Whether edges serialises as a plain array: [u, v, c] triples of ints
    in [0, 10^18)."""
    return isinstance(edges, list) and all(
        isinstance(e, (list, tuple)) and len(e) == 3
        and all(type(x) is int and 0 <= x < 10**18 for x in e) for e in edges)


class TestBulkEdgeLoader:
    """from_edges checks a valid list in bulk and scans only a bad one; the
    result, or the error type and message, must be the per-entry reference's."""

    @pytest.mark.parametrize("data", [
        d for d in MALFORMED if isinstance(d.get("edges"), list)
    ])
    def test_malformed_cases_match_reference(self, data):
        n, r, edges = data["n"], data["r"], data["edges"]
        want = outcome(lambda: from_edges_reference(n, r, edges))
        assert outcome(lambda: ColouredCompleteGraph.from_edges(n, r, edges)) == want
        if n >= 1:
            assert outcome(lambda: graph_from_json(data)) == want

    @pytest.mark.parametrize("n, r, edges", EDGE_LISTS)
    def test_edge_lists_match_reference(self, n, r, edges):
        want = outcome(lambda: from_edges_reference(n, r, edges))
        assert outcome(lambda: ColouredCompleteGraph.from_edges(n, r, edges)) == want
        assert outcome(lambda: ColouredCompleteGraph.from_edges(n, r, iter(edges))) == want
        if n >= 1:
            assert outcome(lambda: graph_from_json({"n": n, "r": r, "edges": list(edges)})) == want

    @pytest.mark.parametrize("edges, message", [
        ([[0, 1, 0], [0, 10**30, 1], [1, 2, 0]],
         "vertex out of range in edge (0,1000000000000000000000000000000)"),
        ([[0, 1, 0], [0, 2, 10**30], [1, 2, 0]],
         "colour 1000000000000000000000000000000 out of range in edge (0,2)"),
        ([[0, 1, 0], [1, 0, 1], [1, 2, 0]], "duplicate edge (1,0)"),
        ([[0, 1, 0], [0, 1, 0], "x"], "duplicate edge (0,1)"),
        ([[0, 1, 0], "x", [0, 1, 0]], "edge entry 'x' is not a [u, v, c] triple"),
        ([[0, 1, 0], [0, 2, 1]], "expected 3 edges, got 2"),
    ])
    def test_named_messages(self, edges, message):
        with pytest.raises(GraphFormatError, match=re.escape(message) + "$"):
            ColouredCompleteGraph.from_edges(3, 2, edges)

    @pytest.mark.parametrize("n, r, edges", [case for case in EDGE_LISTS if plain_edges(case[2])])
    @pytest.mark.parametrize("dtype", [np.int64, np.uint32])
    def test_integer_arrays_match_lists(self, n, r, edges, dtype):
        # the host file reader's (m, 3) arrays take the same path as lists
        array = np.array(edges, dtype=dtype).reshape(-1, 3)
        want = outcome(lambda: ColouredCompleteGraph.from_edges(n, r, edges))
        assert outcome(lambda: ColouredCompleteGraph.from_edges(n, r, array)) == want
        if n >= 1:
            assert outcome(lambda: graph_from_json({"n": n, "r": r, "edges": array})) == want

    def test_generator_argument(self):
        G = make_random(9, 3, 4)
        edges = graph_to_json(G)["edges"]
        assert ColouredCompleteGraph.from_edges(9, 3, (e for e in edges)) == G
        bad = edges[:5] + [edges[2]] + edges[5:-1]
        with pytest.raises(GraphFormatError, match=r"duplicate edge \(0,3\)"):
            ColouredCompleteGraph.from_edges(9, 3, (e for e in bad))

    def test_shuffled_lists_of_larger_hosts(self):
        # n = 300 has vertex fields past one byte
        rng = random.Random(0)
        for n, r in ((300, 2), (25, 4)):
            G = make_random(n, r, 1)
            edges = [[v, u, c] if rng.random() < 0.5 else [u, v, c]
                     for u, v, c in graph_to_json(G)["edges"]]
            rng.shuffle(edges)
            assert ColouredCompleteGraph.from_edges(n, r, edges) == G
            edges[-1] = edges[7]
            assert outcome(lambda: ColouredCompleteGraph.from_edges(n, r, edges)) == outcome(
                lambda: from_edges_reference(n, r, edges))


def reader_matches_json(raw: bytes) -> object:
    """Assert that the host file bytes raw load through _read_graph_json as
    through json.loads: the same graph, or the same error type and message;
    return what the reader gave, or its error."""
    want = outcome(lambda: graph_from_json(json.loads(raw)))
    assert outcome(lambda: graph_from_json(_read_graph_json(raw))) == want
    return outcome(lambda: _read_graph_json(raw))


class TestGraphJsonReader:
    """_read_graph_json reads a plain edge array as one int64 array and every
    other document as json.loads does; graph_from_json must give the same
    graph, or the same error, either way."""

    @pytest.mark.parametrize("indent", [None, 2])
    @pytest.mark.parametrize("sort_keys", [False, True])
    @pytest.mark.parametrize("data", MALFORMED + [
        {"n": n, "r": r, "edges": list(edges)} for n, r, edges in EDGE_LISTS
    ])
    def test_loader_cases_match_json(self, data, indent, sort_keys):
        got = reader_matches_json(json.dumps(data, indent=indent, sort_keys=sort_keys).encode())
        if plain_edges(data.get("edges")):
            assert isinstance(got["edges"], np.ndarray) and got["edges"].dtype == np.int64
            assert got["edges"].tolist() == [list(e) for e in data["edges"]]

    @pytest.mark.parametrize("raw", [
        b"", b" ", b"{}", b"[]", b"null", b"{", b"\xff\xfe", b"\xc3",
        b'{"n": 2, "r": 2, "edges": [[0, 1, 1]]}',
        b'\xef\xbb\xbf{"n": 2, "r": 2, "edges": [[0, 1, 1]]}',
        b'{"n":2,"r":2,"edges":[[0,1,1]]}\n',
        b' {\t"edges" : [ [ 1 ,\r\n0 , 1 ] ] , "n" : 2 , "r" : 2 } ',
        b'{"n": 2, "r": 2, "edges": [[0, 1, 1]]} x',
        b'{"n": 2, "r": 2, "edges": [[0, 1, 1]],}',
        b'{"n": 2, "r": 2, "edges": [[0, 1, 1]]]}',
        b'{"n": 2, "r": 2, "edges": [[0, 1, 1],]}',
        b'{"n": 2, "r": 2, "edges": [[0, 1,]1]}',
        b'{"n": 2, "r": 2, "edges": [1[0, 1,]]}',
        b'{"n": 2, "r": 2, "edges": [[0, 1, 1]],, "x": 1}',
        b'{"n": 2, "r": 2, "edges": [[0, 1, 1]] 5}',
        b'{"n": 2, "r": 2, "edges": [[0, 1, 1]], 5}',
        b'{"n": 2, "r": 2, "edges": [[0, 1,\x0b1]]}',
        b'{"n": 2, "r": 2, "edges": [[0, 1, \xc3\xa9]]}',
        b'{"n": 2, "r": 2, "edges": [[0, 1, 1]], "edges": 5}',
        b'{"n": 2, "r": 2, "edges": 5, "edges": [[0, 1, 1]]}',
        b'{"n": 2, "r": 2, "edges": [[0, 1, 1]], "note": "}]\\" [[0, 1, 0]]"}',
        b'{"n": 2 "r": 2, "edges": [[0, 1, 1]]}',
        b'{"n": 2, "r": 2, "edges": [[0, 1, 1]], "x": NaN, "y": -Infinity}',
        b'{"n": 3, "r": 2, "edges": [[0, 1, 0], [0, 2, 1], [1, 2, 0]] [[0, 1, 1]]}',
        b'{"n": 3, "r": 2, "edges": [[0, 1, 0], [0, 2, 1]], [1, 2, 0]]}',
        b'{"n": 1, "r": 2, "edges": []}',
        b'{"n": 1, "r": 2, "edges": [ ]}',
        b'{"n": 1, "r": 2, "edges": [[]]}',
        '{"n": 2, "r": 2, "edges": [[0, 1, 1]]}'.encode("utf-16"),
        '{"n": 2, "r": 2, "edges": [[0, 1, 1]], "m": "caf\u00e9"}'.encode("utf-32-le"),
    ])
    def test_documents_match_json(self, raw):
        reader_matches_json(raw)

    def test_plain_arrays_of_every_size_and_layout(self):
        for n, r in ((1, 2), (2, 2), (7, 3), (40, 2)):
            data = graph_to_json(make_random(n, r, n))
            for indent in (None, 0, 2, "\t"):
                raw = json.dumps(data, indent=indent).encode()
                got = reader_matches_json(raw)
                assert isinstance(got["edges"], np.ndarray)
                assert got["edges"].shape == (len(data["edges"]), 3)

    def test_deep_nesting_raises_what_json_raises(self):
        raw = b'{"n": 2, "r": 2, "edges": [[0, 1, 1]], "x": ' + b"[" * 10**6 + b"]" * 10**6 + b"}"
        with pytest.raises(RecursionError):
            json.loads(raw)
        with pytest.raises(RecursionError):
            _read_graph_json(raw)


# mutations of the edge-array text: applied to one drawn field, or to the text
FIELD_MUTATIONS = {
    "01": lambda f: "0" + f,
    "-0": lambda f: "-0",
    "1.0": lambda f: f + ".0",
    "1e0": lambda f: f + "e0",
    "true": lambda f: "true",
    "NaN": lambda f: "NaN",
    "1 2": lambda f: f + " 2",
    "empty slot": lambda f: "",
    "4 fields": lambda f: f + ", 0",
    "nested": lambda f: "[" + f + "]",
    "19 digits": lambda f: str(10**18),
    "31 digits": lambda f: str(10**30),
}
DOCUMENT_MUTATIONS = ["none", "field moved out of its slot", "trailing comma", "edges before", "edges after", "truncated",
                      "garbage"]
SPACE = st.sampled_from(["", " ", "  ", "\n", "\t", "\r\n", "\n    "])
NOTE = st.text(st.sampled_from(list('ab[]{},:"\\/0\n\t\u00e9\u2014\u2028') + ["\U0001f600"]),
               max_size=10)


@st.composite
def host_documents(draw, mutation):
    """The bytes of a host file: a small random host, its edge array written
    with drawn separators and indentation, the other members in a drawn
    order with drawn whitespace and a manifest whose strings hold
    brackets, quotes, escapes and non-ASCII text; then the mutation."""
    n, r = draw(st.integers(1, 6)), draw(st.integers(2, 3))
    edges = [[v, u, c] if draw(st.booleans()) else [u, v, c]
             for u, v, c in draw(st.permutations(graph_to_json(make_random(n, r, n))["edges"]))]
    item_sep = draw(SPACE) + "," + draw(SPACE)
    text = json.dumps(edges, indent=draw(st.sampled_from([None, 0, 2, "\t"])),
                      separators=(item_sep, ":"))
    fields = list(re.finditer(r"[0-9]+", text))
    if mutation in FIELD_MUTATIONS and fields:
        f = draw(st.sampled_from(fields))
        text = text[:f.start()] + FIELD_MUTATIONS[mutation](f.group()) + text[f.end():]
    elif mutation == "trailing comma":
        text = text[:-1] + ",]"
    elif mutation == "field moved out of its slot" and fields:
        f = draw(st.sampled_from(fields))
        close = text.index("]", f.end()) + 1
        text = text[:f.start()] + text[f.end():close] + f.group() + text[close:]
    manifest = {"note": draw(NOTE), "argv": [draw(NOTE), 1, [2.5, None]]}
    members = draw(st.permutations([
        ("n", json.dumps(n)), ("r", json.dumps(r)), ("edges", text),
        ("manifest", json.dumps(manifest, ensure_ascii=draw(st.booleans()))),
    ]))
    if mutation in ("edges before", "edges after"):
        other = json.dumps(graph_to_json(make_random(n, r, n + 1))["edges"])
        at = members.index(("edges", text)) + (mutation == "edges after")
        members.insert(at, ("edges", other))
    space = draw(SPACE)
    doc = "{" + space + ("," + space).join(
        f'"{key}"{space}:{space}{value}' for key, value in members) + space + "}"
    doc += draw(SPACE)
    if mutation == "truncated":
        doc = doc[:draw(st.integers(0, len(doc) - 1))]
    elif mutation == "garbage":
        doc += draw(st.sampled_from(["x", "]", "}", "0", ",", "[]", "{}"]))
    return doc.encode(draw(st.sampled_from(["utf-8", "utf-8-sig", "utf-16"])))


@pytest.mark.parametrize("mutation", list(FIELD_MUTATIONS) + DOCUMENT_MUTATIONS)
def test_reader_matches_json_on_drawn_documents(mutation):
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(host_documents(mutation))
    def check(raw):
        got = reader_matches_json(raw)
        if mutation == "none":
            assert isinstance(got["edges"], np.ndarray)

    check()

import itertools
import pickle
import random
import re
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localbalance import (
    BipartiteColouring,
    C4_KEY,
    C4BAR_KEY,
    CLASS_KEYS,
    P3O_KEY,
    blow_up,
    census_k4,
    colour_swap,
    count_alternating_c4,
    count_m1,
    get_pattern,
    make_Pk,
    make_random,
    make_split,
)
from hosts import (
    ALTERNATING_SPLITS_PER_CLASS,
    CLASS_SWAP,
    bipartite_from,
    census_k4_reference,
    census_tables_reference,
    count_m1_reference,
    graph_from,
    m1_copies_in_quadruples,
    mono_k4_reference,
)
import localbalance.census as census_module

PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

# frozen from the O(n^4) reference enumeration
PK2_CENSUS = {
    "000000": 1,
    "000001": 10,
    "000011": 8,
    "000111": 8,
    "001011": 8,
    "001100": 0,
    "001101": 16,
    "001111": 8,
    "011110": 0,
    "011111": 10,
    "111111": 1,
}


def census_by_permutation_oracle(G):
    """Third, dead-simple path: canonicalise each quadruple by minimising
    its colour tuple over all 24 relabellings."""
    counts = dict.fromkeys(CLASS_KEYS, 0)
    for quad in itertools.combinations(range(G.n), 4):
        best = None
        for perm in itertools.permutations(range(4)):
            code = tuple(
                G.colour(quad[perm[a]], quad[perm[b]]) for (a, b) in PAIRS
            )
            if best is None or code < best:
                best = code
        counts["".join(map(str, best))] += 1
    return counts


class TestClassTable:
    def test_eleven_classes(self):
        assert len(CLASS_KEYS) == 11
        assert len(set(CLASS_KEYS)) == 11

    def test_named_keys_are_distinct_classes(self):
        assert len({C4_KEY, C4BAR_KEY, P3O_KEY}) == 3

    def test_c4_key_matches_library_pattern(self):
        c4 = get_pattern("C4")
        counts = census_k4_reference(blow_up(c4, 1)).counts
        assert counts[C4_KEY] == 1
        assert sum(counts.values()) == 1

    def test_p3o_key_matches_library_pattern(self):
        counts = census_k4_reference(make_Pk(1)).counts
        assert counts[P3O_KEY] == 1

    def test_only_alternating_classes_are_the_named_three(self):
        # an alternating 4-cycle completes to exactly C4, C4bar or P3o
        alternating = {
            key
            for key, alt in zip(CLASS_KEYS, ALTERNATING_SPLITS_PER_CLASS)
            if alt > 0
        }
        assert alternating == {C4_KEY, C4BAR_KEY, P3O_KEY}

    def test_swap_fixes_p3o_and_exchanges_c4(self):
        idx = {k: i for i, k in enumerate(CLASS_KEYS)}
        assert CLASS_SWAP[idx[P3O_KEY]] == idx[P3O_KEY]
        assert CLASS_SWAP[idx[C4_KEY]] == idx[C4BAR_KEY]

    def test_tables_match_the_two_phase_reference(self):
        # pickled, so that a list for a tuple or an int for a Fraction shows
        want = census_tables_reference()
        canonical = tuple(census_module._canonical(census_module._code_tuple(p)) for p in range(64))
        assert canonical == want.pop("canonical")
        for name, value in want.items():
            assert pickle.dumps(getattr(census_module, name)) == pickle.dumps(value), name

    def test_rank_deficient_system_is_refused(self, monkeypatch):
        rows = census_module._CLASS_ROWS
        monkeypatch.setattr(census_module, "_CLASS_ROWS", rows[:-1] + rows[:1])
        with pytest.raises(AssertionError, match="rank-deficient"):
            census_module._pivot_rows_and_inverse()


class TestCensus:
    def test_mono_k6(self):
        G = graph_from(6, 2, lambda u, v: 0)
        c = census_k4(G)
        assert c.count_c4 == c.count_c4bar == c.count_p3o == 0
        assert c.counts["000000"] == 15
        assert sum(c.counts.values()) == comb(6, 4)

    def test_pk1_single_p3o(self):
        c = census_k4(make_Pk(1))
        assert c.count_p3o == 1
        assert c.count_c4 == c.count_c4bar == 0

    def test_pk2_regression_fixture(self):
        assert census_k4(make_Pk(2)).counts == PK2_CENSUS
        assert census_k4_reference(make_Pk(2)).counts == PK2_CENSUS

    def test_counts_sum_to_quadruples(self):
        for seed in range(5):
            G = make_random(14, 2, seed)
            c = census_k4(G)
            assert sum(c.counts.values()) == comb(14, 4)

    def test_optimized_equals_reference_seeded(self):
        rng = random.Random(0)
        for _ in range(30):
            n = rng.randrange(4, 25)
            G = make_random(n, 2, rng.randrange(10**6))
            assert census_k4(G).counts == census_k4_reference(G).counts

    def test_optimized_equals_reference_constructions(self):
        hosts = [make_Pk(k) for k in (1, 2, 3, 4, 5)]
        hosts += [make_split(a, 16 - a, seed=a, flips=2) for a in (4, 8, 12)]
        hosts += [blow_up(get_pattern("C4"), t) for t in (2, 4)]
        for G in hosts:
            assert census_k4(G).counts == census_k4_reference(G).counts

    def test_reference_equals_permutation_oracle(self):
        for seed in range(6):
            G = make_random(8, 2, seed)
            assert census_k4_reference(G).counts == census_by_permutation_oracle(G)

    def test_swap_symmetry(self):
        for seed in range(6):
            G = make_random(12, 2, seed)
            c = census_k4(G)
            cs = census_k4(colour_swap(G))
            assert cs.count_c4 == c.count_c4bar
            assert cs.count_c4bar == c.count_c4
            assert cs.count_p3o == c.count_p3o

    def test_rejects_three_colours(self):
        with pytest.raises(ValueError):
            census_k4(make_random(6, 3, 0))

    def test_tiny_hosts(self):
        for n in (1, 2, 3):
            c = census_k4(make_random(n, 2, 0))
            assert sum(c.counts.values()) == 0


class TestCensusKernels:
    """Edge cases of the float32 codegree products and the forward-neighbourhood
    K4 count, each checked against the O(n^4) enumeration."""

    def test_one_colour_hosts(self):
        # the absent colour has no forward neighbourhood of size >= 3
        for n in range(4, 9):
            for colour, key in ((0, "000000"), (1, "111111")):
                G = graph_from(n, 2, lambda u, v: colour)
                c = census_k4(G)
                assert c.counts == census_k4_reference(G).counts
                assert c.counts[key] == comb(n, 4)

    def test_noiseless_split_hosts(self):
        for a, b in ((4, 4), (5, 9), (1, 10), (10, 0)):
            G = make_split(a, b, seed=0, flips=0)
            assert census_k4(G).counts == census_k4_reference(G).counts

    def test_random_host_at_n64(self):
        G = make_random(64, 2, 11)
        assert census_k4(G).counts == census_k4_reference(G).counts

    @pytest.mark.parametrize("colour, key", [(0, "000000"), (1, "111111")])
    def test_one_colour_host_past_float32_integers(self, colour, key):
        # vertex 0's forward-block tally is 6 C(299, 3), past 2^24, where a
        # float32 running sum is no longer exact; its float32 row sums (each
        # at most 299^2) and their float64 total are
        n = 300
        assert 6 * comb(n - 1, 3) > 2**24
        c = census_k4(graph_from(n, 2, lambda u, v: colour))
        assert c.counts[key] == comb(n, 4)
        assert sum(c.counts.values()) == comb(n, 4)

    def test_random_host_at_n96(self):
        G = make_random(96, 2, 5)
        assert census_k4(G).counts == census_k4_reference(G).counts

    def test_noisy_split_host_at_n96(self):
        G = make_split(48, 48, seed=0, flips=200)
        assert census_k4(G).counts == census_k4_reference(G).counts

    def test_row_blocks_match_reference(self, monkeypatch):
        # several codegree row blocks, including a short last one
        monkeypatch.setattr(census_module, "_ROW_BLOCK", 5)
        for seed in range(3):
            G = make_random(23, 2, seed)
            assert census_k4(G).counts == census_k4_reference(G).counts

    def test_size_guard_runs_before_any_allocation(self):
        class Huge:
            n, r = 3001, 2

            def table(self):
                raise AssertionError("the size guard must fire before reading the host")

        with pytest.raises(ValueError, match="n <= 3000"):
            census_k4(Huge())

    @staticmethod
    def fake_row_sums(monkeypatch, shape):
        # row sums 2^24, 1, 1: a float32 total loses both ones, a float64
        # total is exact; faked, since a real block this large takes seconds
        def row_sums(x1, x2):
            assert x1.shape == x2.shape == shape
            return np.array([2**24, 1, 1], dtype=np.float32).reshape(shape[:-1])

        monkeypatch.setattr(np, "vecdot", row_sums)

    def test_mono_k4_rows_are_summed_in_float64(self, monkeypatch):
        # the K4's one forward block goes to the stack, a batch of one
        self.fake_row_sums(monkeypatch, (1, 3, 3))
        k4 = ~np.eye(4, dtype=bool)
        assert census_module._mono_k4_count(k4) == (2**24 + 2) // 6

    def test_large_block_rows_are_summed_in_float64(self, monkeypatch):
        # below the stacking bound the same block is multiplied on its own
        monkeypatch.setattr(census_module, "_STACK_MAX", 2)
        self.fake_row_sums(monkeypatch, (3, 3))
        k4 = ~np.eye(4, dtype=bool)
        assert census_module._mono_k4_count(k4) == (2**24 + 2) // 6


def colour_tables(G):
    """The red and blue bool tables of a 2-coloured host, False diagonals."""
    red = G.table() == 0
    np.fill_diagonal(red, False)
    blue = ~red
    np.fill_diagonal(blue, False)
    return red, blue


class TestMonoK4Count:
    """_mono_k4_count against the triangle-by-triangle 4-clique count,
    including hosts whose forward blocks, after the degree relabelling,
    fall on both sides of the stacking bound, so that one count runs both
    paths."""

    @staticmethod
    def spy_paths(monkeypatch):
        # records the rank of every vecdot operand: 2 for a block multiplied
        # on its own, 3 for the stack of small blocks
        ranks = set()
        vecdot = np.vecdot

        def spy(x1, x2):
            ranks.add(x1.ndim)
            return vecdot(x1, x2)

        monkeypatch.setattr(np, "vecdot", spy)
        return ranks

    # ranks: the paths the two counts must run.  After the relabelling a
    # random host's largest forward block is small (31 vertices at n = 76,
    # 34 at n = 80), so the random hosts up to n = 64 stack every block
    @pytest.mark.parametrize("G, ranks", [
        pytest.param(make_random(n, 2, seed), ranks, id=f"random{n}-{seed}")
        for n, seed, ranks in ((33, 0, {3}), (48, 2, {3}), (64, 4, {3}),
                               (80, 5, {2, 3}), (88, 6, {2, 3}))
    ] + [
        pytest.param(make_split(a, b, seed=1, flips=flips), {2, 3}, id=f"split{a}+{b}")
        for a, b, flips in ((45, 15, 0), (50, 20, 40), (12, 60, 25))
    ] + [
        pytest.param(make_Pk(k), ranks, id=f"pk{k}")
        for k, ranks in ((9, {3}), (17, {2, 3}), (20, {2, 3}))
    ] + [
        pytest.param(graph_from(40, 2, lambda u, v: 0), {2, 3}, id="red40"),
        pytest.param(graph_from(36, 2, lambda u, v: 1), {2, 3}, id="blue36"),
    ])
    def test_hosts_match_reference(self, monkeypatch, G, ranks):
        seen = self.spy_paths(monkeypatch)
        for adj in colour_tables(G):
            assert census_module._mono_k4_count(adj) == mono_k4_reference(adj)
        assert seen == ranks

    def test_every_table_up_to_five_vertices(self):
        # no forward block, or stacked blocks only
        for n in (4, 5):
            pairs = list(itertools.combinations(range(n), 2))
            for code in range(2 ** len(pairs)):
                adj = np.zeros((n, n), dtype=bool)
                for k, (u, v) in enumerate(pairs):
                    adj[u, v] = adj[v, u] = code >> k & 1
                assert census_module._mono_k4_count(adj) == mono_k4_reference(adj)

    def test_random_tables_at_six_and_seven_vertices(self, monkeypatch):
        ranks = self.spy_paths(monkeypatch)
        rng = np.random.default_rng(0)
        for n in (6, 7):
            for _ in range(200):
                adj = np.triu(rng.random((n, n)) < rng.random(), 1)
                adj |= adj.T
                assert census_module._mono_k4_count(adj) == mono_k4_reference(adj)
        assert ranks == {3}

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(4, 70).flatmap(lambda n: st.tuples(
        st.integers(0, 2**32 - 1), st.floats(0.2, 0.95), st.permutations(range(n)))))
    def test_count_is_invariant_under_relabelling(self, args):
        seed, density, perm = args
        n = len(perm)
        adj = np.triu(np.random.default_rng(seed).random((n, n)) < density, 1)
        adj |= adj.T
        perm = np.array(perm)
        assert (census_module._mono_k4_count(adj)
                == census_module._mono_k4_count(adj[np.ix_(perm, perm)]))


class TestRedundantEquations:
    """A statistic off by one on a host past n = 4 is refused; the class
    rows, which the kernel computes at n = 4, are unaffected."""

    @staticmethod
    def off_by_one(monkeypatch, index):
        exact = census_module._statistics

        def faulty(red):
            stats = exact(red)
            if red.shape[0] > 4:
                stats[index] += 1
            return stats

        monkeypatch.setattr(census_module, "_statistics", faulty)

    @pytest.mark.parametrize("sid", census_module.STAT_IDS, ids=str)
    def test_every_statistic_is_checked(self, monkeypatch, sid):
        # a non-pivot statistic fails its own equation; a pivot one makes
        # the solve a non-count or fails one of the others
        index = census_module.STAT_IDS.index(sid)
        self.off_by_one(monkeypatch, index)
        if index in census_module._PIVOT_ROWS:
            match = r"^census s(olve|tatistic)"
        else:
            match = re.escape(f"census statistic {sid} inconsistent")
        with pytest.raises(AssertionError, match=match):
            census_k4(make_random(24, 2, 0))

    def test_pivot_fault_with_a_whole_solve_fails_a_redundant_equation(self, monkeypatch):
        # one more red K4 still solves to counts; a non-pivot equation
        # (the blue K4 count) refuses them
        index = census_module.STAT_IDS.index(("k4", 0))
        assert index in census_module._PIVOT_ROWS
        self.off_by_one(monkeypatch, index)
        with pytest.raises(AssertionError, match=re.escape("census statistic ('k4', 1) inconsistent")):
            census_k4(make_random(24, 2, 0))


class TestCountM1:
    def test_mono_red_k22(self):
        B = bipartite_from(2, 2, lambda x, y: 0)
        assert count_m1(B) == 0

    def test_proper_k22_is_one(self):
        B = bipartite_from(2, 2, lambda x, y: int(x == y))
        assert count_m1(B) == 1
        assert count_m1_reference(B) == 1

    def test_seeded_k55_fixture(self):
        B = bipartite_from(
            5, 5, lambda x, y: random.Random(42 + 11 * x + y).randrange(2)
        )
        assert count_m1_reference(B) == 12  # frozen brute-force value
        assert count_m1(B) == 12

    def test_codegree_equals_pairs_seeded(self):
        rng = random.Random(7)
        for _ in range(40):
            nx, ny = rng.randrange(1, 9), rng.randrange(1, 9)
            B = bipartite_from(
                nx, ny, lambda x, y: rng.randrange(2)
            )
            assert count_m1(B) == count_m1_reference(B)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 10).flatmap(lambda nx: st.lists(
        st.lists(st.booleans(), min_size=nx, max_size=nx), min_size=1, max_size=10)))
    def test_product_equals_reference_on_any_table(self, columns):
        B = BipartiteColouring(np.array(columns, dtype=bool).T)
        assert count_m1(B) == count_m1_reference(B)


class TestBipartiteColouring:
    @pytest.mark.parametrize("red", [
        np.ones(3, dtype=bool),
        np.ones((2, 2, 2), dtype=bool),
        np.zeros((0, 3), dtype=bool),
        np.zeros((3, 0), dtype=bool),
        np.ones((2, 2), dtype=np.uint8),
    ])
    def test_rejects_tables_that_are_not_nonempty_2d_bool(self, red):
        with pytest.raises(ValueError, match="nonempty 2-D bool table"):
            BipartiteColouring(red)

    def test_equal_tables_give_equal_records(self):
        a = BipartiteColouring(np.eye(3, dtype=bool))
        b = bipartite_from(3, 3, lambda x, y: int(x != y))
        assert a == b and hash(a) == hash(b)
        assert (a.nx, a.ny) == (3, 3)
        assert a != BipartiteColouring(np.eye(3, dtype=bool)[:, :2])
        assert a != BipartiteColouring(~np.eye(3, dtype=bool))

    def test_copies_the_callers_table(self):
        red = np.eye(2, dtype=bool)
        B = BipartiteColouring(red)
        red[0, 1] = True
        assert not B.red[0, 1]
        with pytest.raises(ValueError):
            B.red[0, 1] = True


class TestAlternatingC4:
    def test_p1_blowup_cross_all_blue(self):
        G = blow_up(get_pattern("P1"), 2)
        assert count_alternating_c4(G, (0, 1), (2, 3)) == 0

    def test_pk1_value(self):
        # 4 cross edges: (0,2) r, (0,3) r, (1,2) b, (1,3) r: vertex 0 sees no blue
        assert count_alternating_c4(make_Pk(1), (0, 1), (2, 3)) == 0

    def test_planted_single_alternator(self):
        def colour(u, v):
            x, y = min(u, v), max(u, v)
            if (x, y) in {(0, 4), (1, 5)}:
                return 1
            return 0

        G = graph_from(6, 2, colour)
        # X = {0,1,2}, Y = {3,4,5}: only {0,1} x {4,5} alternates
        assert count_alternating_c4(G, (0, 1, 2), (3, 4, 5)) == 1

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            count_alternating_c4(make_Pk(1), (0, 1), (1, 2))

    @pytest.mark.parametrize("X, Y", [
        ((-1, 0), (1, 2)), ((0, 1), (2, 8)), ((1.5, 0), (2, 3)), ((True, False), (2, 3)),
    ])
    def test_vertex_outside_host_rejected(self, X, Y):
        # -1 must not be read as vertex n - 1, 8 raise a bare IndexError, 1.5
        # become 1 or True be read as vertex 1
        with pytest.raises(ValueError, match=r"range\(8\)"):
            count_alternating_c4(make_Pk(2), X, Y)

    def test_matches_direct_enumeration(self):
        rng = random.Random(12)
        for _ in range(10):
            G = make_random(10, 2, rng.randrange(10**6))
            X, Y = (0, 1, 2, 3), (4, 5, 6, 7, 8)
            direct = 0
            for x1, x2 in itertools.combinations(X, 2):
                for y1, y2 in itertools.combinations(Y, 2):
                    a, b = G.colour(x1, y1), G.colour(x1, y2)
                    c, d = G.colour(x2, y1), G.colour(x2, y2)
                    if a != b and c != d and a != c:
                        direct += 1
            assert count_alternating_c4(G, X, Y) == direct


class TestCompletionIdentity:
    def quadruple_m1_total(self, G):
        total = 0
        for quad in itertools.combinations(range(G.n), 4):
            for (i, j), (k, l) in (
                ((0, 1), (2, 3)),
                ((0, 2), (1, 3)),
                ((0, 3), (1, 2)),
            ):
                a = G.colour(quad[i], quad[k])
                b = G.colour(quad[i], quad[l])
                c = G.colour(quad[j], quad[k])
                d = G.colour(quad[j], quad[l])
                if a != b and c != d and a != c:
                    total += 1
        return total

    def test_m1_total_matches_class_decomposition(self):
        for seed in range(5):
            G = make_random(10, 2, seed)
            assert m1_copies_in_quadruples(census_k4(G)) == self.quadruple_m1_total(G)

    def test_zero_classes_imply_zero_m1(self):
        # hosts with no C4, C4bar or P3o quadruples have no alternating splits
        hosts = [
            graph_from(7, 2, lambda u, v: 0),
            blow_up(get_pattern("P1"), 3),
            blow_up(get_pattern("P2"), 3),
            make_split(5, 4, seed=0),
        ]
        for G in hosts:
            c = census_k4(G)
            if c.count_c4 + c.count_c4bar + c.count_p3o == 0:
                assert self.quadruple_m1_total(G) == 0

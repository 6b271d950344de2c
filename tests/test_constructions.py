import json
import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from localbalance import (
    ResamplingBudgetExceeded,
    balance_profile,
    blow_up,
    closeness_to_split,
    count_m1,
    get_pattern,
    graph_to_json,
    make_bipartite_mindeg,
    make_multicolour_cycle,
    make_Pk,
    make_random,
    make_split,
    ramsey_bound,
    sample_locally_balanced,
    verify_prop_optimize,
)
from localbalance.blowup_finder import asymptotic_target_size
from localbalance.constructions import _split_violations, draw_below
from localbalance.core import _check_size
from hosts import closeness_table_reference, flipped_edges_reference, split_cost_reference

RED, BLUE, GREEN = 0, 1, 2


def naive_closeness_flips(G):
    """Brute force over all bipartitions, cost recomputed from scratch.

    Returns (fewest flips, lowest red-side mask attaining it)."""
    best = best_mask = None
    for mask in range(1 << G.n):
        flips = 0
        for u in range(G.n):
            for v in range(u + 1, G.n):
                both_red = (mask >> u) & 1 and (mask >> v) & 1
                both_blue = not (mask >> u) & 1 and not (mask >> v) & 1
                c = G.colour(u, v)
                if (both_red and c == BLUE) or (both_blue and c == RED):
                    flips += 1
        if best is None or flips < best:
            best, best_mask = flips, mask
    return best, best_mask


def local_search_reference(G, starts=32, seed=0):
    """The seeded multi-start steepest descent closeness_to_split once used
    above n = 24, with every cost recomputed by split_cost_reference: the
    red-side mask it settles on, an upper bound on the optimum."""
    rng = random.Random(seed)
    best_mask = best_cost = None
    for _ in range(starts):
        mask = rng.getrandbits(G.n)
        while True:
            cost = split_cost_reference(G, mask)
            moves = [split_cost_reference(G, mask ^ 1 << v) - cost for v in range(G.n)]
            if min(moves) >= 0:
                break
            mask ^= 1 << moves.index(min(moves))  # ties to the lowest vertex
        if best_cost is None or cost < best_cost:
            best_mask, best_cost = mask, cost
    return best_mask


def mask_of(side):
    return sum(1 << v for v in side)


def optimize_instances():
    """The 679 hosts of verify_prop_optimize's default run."""
    hosts = [make_split(a, n - a, seed=a * 1000 + flips, flips=flips)
             for n in range(2, 21) for a in range(n + 1) for flips in (0, 2, 4)
             if flips <= n * (n - 1) // 2]
    return hosts + [make_Pk(k) for k in range(1, 6)]


class TestMakePk:
    def test_block_rule(self):
        for k in range(1, 20):
            G = make_Pk(k)
            blocks = [range(i * k, (i + 1) * k) for i in range(4)]
            red_block_pairs = {(0, 0), (3, 3), (0, 3), (0, 2), (1, 3)}
            for bi in range(4):
                for bj in range(bi, 4):
                    want = RED if (bi, bj) in red_block_pairs else BLUE
                    for u in blocks[bi]:
                        for v in blocks[bj]:
                            if u < v:
                                assert G.colour(u, v) == want, (k, bi, bj)

    def test_equals_p3_blowup(self):
        for k in (1, 2, 3, 4):
            assert make_Pk(k) == blow_up(get_pattern("P3"), k)

    def test_quarter_balanced(self):
        for k in (1, 2, 5):
            assert balance_profile(make_Pk(k)).epsilon_local == Fraction(1, 4)

    def test_rejects_k0(self):
        with pytest.raises(ValueError):
            make_Pk(0)


class TestMakeSplit:
    def test_zero_flips_is_split(self):
        assert closeness_to_split(make_split(3, 3, seed=0)).delta == 0

    def test_flips_bound_delta(self):
        c = closeness_to_split(make_split(4, 4, seed=1, flips=2))
        assert c.delta <= Fraction(2, 64)

    def test_one_sided_is_monochromatic(self):
        G = make_split(4, 0, seed=0)
        assert all(G.colour(u, v) == RED for u in range(4) for v in range(u + 1, 4))
        assert closeness_to_split(G).delta == 0

    def test_cliques_always_present(self):
        G = make_split(5, 3, seed=7)
        assert all(G.colour(u, v) == RED for u in range(5) for v in range(u + 1, 5))
        assert all(G.colour(u, v) == BLUE for u in range(5, 8) for v in range(u + 1, 8))

    def test_deterministic(self):
        assert make_split(5, 5, seed=3, flips=4) == make_split(5, 5, seed=3, flips=4)
        assert make_split(5, 5, seed=3) != make_split(5, 5, seed=4) or True  # seeds differ

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            make_split(1, 0)
        with pytest.raises(ValueError):
            make_split(3, 3, flips=100)


class TestMakeMulticolourCycle:
    def test_one_sixth_balanced(self):
        for m in (1, 2, 4):
            G = make_multicolour_cycle(6, m)
            assert balance_profile(G).epsilon_local == Fraction(1, 6)

    def test_k4_degrees(self):
        G = make_multicolour_cycle(4, 1)
        prof = balance_profile(G)
        for v in range(4):
            assert sorted(prof.degrees[v]) == [1, 1, 1]

    def test_colour_layout(self):
        G = make_multicolour_cycle(6, 2)
        assert G.colour(0, 2) == RED       # parts 0-1, even low index
        assert G.colour(2, 4) == BLUE      # parts 1-2
        assert G.colour(0, 10) == BLUE     # parts 0-5 wrap, odd high index
        assert G.colour(0, 1) == GREEN     # inside a part
        assert G.colour(0, 4) == GREEN     # non-consecutive parts
        for l, m in ((4, 1), (6, 2), (8, 3)):
            G = make_multicolour_cycle(l, m)
            for u in range(l * m):
                for v in range(u + 1, l * m):
                    lo, hi = u // m, v // m
                    if hi - lo == 1:
                        want = RED if lo % 2 == 0 else BLUE
                    elif (lo, hi) == (0, l - 1):
                        want = BLUE
                    else:
                        want = GREEN
                    assert G.colour(u, v) == want, (l, m, u, v)

    def test_rejects_odd_or_small(self):
        with pytest.raises(ValueError):
            make_multicolour_cycle(5, 2)
        with pytest.raises(ValueError):
            make_multicolour_cycle(2, 2)


class TestMakeRandom:
    def test_single_vertex(self):
        G = make_random(1, 2, 0)
        assert G.n == 1

    def test_deterministic(self):
        assert make_random(20, 3, 9) == make_random(20, 3, 9)
        assert graph_to_json(make_random(12, 2, 5)) == graph_to_json(make_random(12, 2, 5))

    def test_epsilon_sanity_band(self):
        for seed in (0, 1, 2, 3, 4):
            eps = balance_profile(make_random(100, 2, seed)).epsilon_local
            assert Fraction(3, 10) < eps < Fraction(7, 10), (seed, eps)


class TestMakeBipartiteMindeg:
    def test_min_degrees(self):
        B = make_bipartite_mindeg(10, Fraction(1, 5), seed=3)
        assert B.red.sum(axis=1).min() >= 2  # least red degree on X
        assert (~B.red).sum(axis=0).min() >= 2  # least blue degree on Y

    def test_k22_forced_proper(self):
        B = make_bipartite_mindeg(2, Fraction(1, 2), seed=0)
        assert count_m1(B) == 1

    def test_alternating_c4_exists_at_third(self):
        for seed in range(5):
            B = make_bipartite_mindeg(3, Fraction(1, 3), seed=seed)
            assert count_m1(B) >= 1

    def test_deterministic(self):
        a = make_bipartite_mindeg(8, Fraction(1, 4), seed=11)
        b = make_bipartite_mindeg(8, Fraction(1, 4), seed=11)
        assert a == b

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            make_bipartite_mindeg(8, Fraction(3, 4), seed=0)
        with pytest.raises(ValueError):
            make_bipartite_mindeg(8, 0, seed=0)

    def test_resampling_budget_exceeded(self):
        with pytest.raises(ResamplingBudgetExceeded):
            make_bipartite_mindeg(4, Fraction(1, 2), seed=0, max_retries=0)


class TestHostSizeCheck:
    @pytest.mark.parametrize("build, n", [
        (lambda: make_split(4097, 0), 4097),
        (lambda: make_Pk(1025), 4100),
        (lambda: make_multicolour_cycle(6, 683), 4098),
        (lambda: blow_up(get_pattern("C4"), 1025), 4100),
        (lambda: make_bipartite_mindeg(2049, Fraction(1, 4), 0), 4098),
        # r * n^2 wraps in int32, so the guard compares Python ints
        (lambda: _check_size(np.int32(4096), 255), 4096),
        (lambda: make_random(np.int32(4096), 255, 0), 4096),
    ], ids=["split", "pk", "mcycle", "blow_up", "bipartite", "int32-size", "int32-random"])
    def test_refused_before_allocating(self, build, n):
        # the builder checks the host size before it allocates an n x n table
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"^host too large: n={n}, "):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


# every public count argument: its function, its name, and a call that passes x for it
COUNT_ARGUMENTS = [
    ("make_random", "n", lambda x: make_random(x, 2, 0)),
    ("make_random", "r", lambda x: make_random(6, x, 0)),
    ("make_random", "seed", lambda x: make_random(6, 2, x)),
    ("make_split", "a", lambda x: make_split(x, 3)),
    ("make_split", "b", lambda x: make_split(3, x)),
    ("make_split", "flips", lambda x: make_split(3, 3, flips=x)),
    ("make_split", "seed", lambda x: make_split(3, 3, seed=x)),
    ("make_Pk", "k", lambda x: make_Pk(x)),
    ("make_multicolour_cycle", "l", lambda x: make_multicolour_cycle(x, 2)),
    ("make_multicolour_cycle", "part_size", lambda x: make_multicolour_cycle(4, x)),
    ("make_bipartite_mindeg", "n_side", lambda x: make_bipartite_mindeg(x, Fraction(1, 4), 0)),
    ("make_bipartite_mindeg", "seed", lambda x: make_bipartite_mindeg(4, Fraction(1, 4), x)),
    ("make_bipartite_mindeg", "max_retries",
     lambda x: make_bipartite_mindeg(4, Fraction(1, 4), 0, max_retries=x)),
    ("draw_below", "r", lambda x: draw_below(random.Random(0), x, 5)),
    ("draw_below", "count", lambda x: draw_below(random.Random(0), 2, x)),
    ("sample_locally_balanced", "n",
     lambda x: sample_locally_balanced(x, 2, Fraction(1, 4), random.Random(0))),
    ("sample_locally_balanced", "r",
     lambda x: sample_locally_balanced(12, x, Fraction(1, 4), random.Random(0))),
    ("sample_locally_balanced", "max_attempts",
     lambda x: sample_locally_balanced(12, 2, Fraction(1, 4), random.Random(0), max_attempts=x)),
    ("ramsey_bound", "n", lambda x: ramsey_bound(x, 2)),
    ("ramsey_bound", "r", lambda x: ramsey_bound(16, x)),
    ("asymptotic_target_size", "n", lambda x: asymptotic_target_size(x, 4, 2)),
    ("asymptotic_target_size", "l", lambda x: asymptotic_target_size(16, x, 2)),
    ("asymptotic_target_size", "r", lambda x: asymptotic_target_size(16, 4, x)),
]


class TestCountArguments:
    @pytest.mark.parametrize("bad", [1.5, True, "3", np.float64(3)], ids=repr)
    @pytest.mark.parametrize("name, call", [(name, call) for _, name, call in COUNT_ARGUMENTS],
                             ids=[f"{function}-{name}" for function, name, _ in COUNT_ARGUMENTS])
    def test_non_integers_are_refused_by_name(self, name, call, bad):
        # a float seed used to seed random.Random silently, and a float
        # part_size was reported as t
        message = f"^{name} must be an integer, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            call(bad)

    def test_numpy_integers_read_as_ints(self):
        G = make_random(np.int64(24), np.int64(2), np.int64(3))
        assert G == make_random(24, 2, 3)
        assert type(G.n) is int and type(G.r) is int
        assert make_split(np.int64(3), np.int64(4), seed=np.int64(1), flips=np.int64(2)) == \
            make_split(3, 4, seed=1, flips=2)
        B = make_bipartite_mindeg(np.int64(6), Fraction(1, 4), np.int64(2), np.int64(5))
        assert B.to_dict() == make_bipartite_mindeg(6, Fraction(1, 4), 2, 5).to_dict()

    def test_draw_below_reads_numpy_integers(self):
        rng, ref = random.Random(4), random.Random(4)
        got = draw_below(rng, np.uint8(3), np.int64(100))
        assert got.tolist() == draw_below(ref, 3, 100).tolist()
        assert rng.getstate() == ref.getstate()


class TestCloseness:
    def test_exact_matches_naive_oracle(self):
        rng = random.Random(0)
        hosts = []
        for _ in range(12):
            n = rng.randrange(2, 10)
            hosts.append(make_random(n, 2, rng.randrange(10**6)))
        for a, b, flips in ((5, 5, 0), (6, 4, 3), (0, 7, 2), (3, 0, 1), (2, 8, 5), (1, 1, 1)):
            hosts.append(make_split(a, b, seed=a * 10 + b, flips=flips))
        hosts += [make_Pk(1), make_Pk(2), make_Pk(3)]
        for n in (10, 11, 12):
            hosts += [make_random(n, 2, n), make_split(n // 2, n - n // 2, seed=n, flips=n)]
        for G in hosts:
            flips, mask = naive_closeness_flips(G)
            c = closeness_to_split(G)
            assert c.flips == flips
            assert c.red_side == tuple(v for v in range(G.n) if (mask >> v) & 1)

    def test_matches_table_reference(self):
        # every default optimize host and 400 random ones: the same cost
        # (also as the number of listed pairs) and the same lowest red side
        # as the 2^n table
        hosts = optimize_instances()
        assert len(hosts) == 679
        rng = random.Random(16)
        hosts += [make_random(rng.randrange(2, 17), 2, rng.randrange(10**9)) for _ in range(400)]
        for G in hosts:
            flips, mask = closeness_table_reference(G)
            c = closeness_to_split(G)
            assert (c.flips, mask_of(c.red_side)) == (flips, mask)
            assert c.blue_side == tuple(v for v in range(G.n) if not (mask >> v) & 1)
            assert c.flips == len(flipped_edges_reference(G, mask))
            assert c.delta == Fraction(flips, G.n ** 2)

    def test_memory_is_linear(self):
        # n = 24 needed a 64 MB cost table and as much in temporaries
        G = make_random(24, 2, 3)
        tracemalloc.start()
        try:
            c = closeness_to_split(G)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert c.mode == "exact"
        assert peak < 1 << 20

    def test_optimize_takes_any_size(self):
        G = make_random(25, 2, 0)
        assert closeness_to_split(G).mode == "exact"
        report = verify_prop_optimize([G])
        assert report.passed and report.instances == 1

    def test_p1_blowup_fixture(self):
        # frozen from the exhaustive bipartition oracle: one flip suffices
        # (make one clique's internal edge match its side)
        c = closeness_to_split(blow_up(get_pattern("P1"), 2))
        assert c.flips == 1
        assert c.delta == Fraction(1, 16)

    def test_pk2_fixture_is_already_split(self):
        # V1 u V4 and V2 u V3 are the red and blue cliques
        c = closeness_to_split(make_Pk(2))
        assert c.flips == 0
        assert set(c.red_side) in ({0, 1, 6, 7}, {2, 3, 4, 5})

    def test_flipped_edges_consistent(self):
        for seed in range(5):
            G = make_random(9, 2, seed)
            c = closeness_to_split(G)
            red_set, blue_set = set(c.red_side), set(c.blue_side)
            assert red_set | blue_set == set(range(G.n))
            assert not red_set & blue_set
            expect = []
            for u in range(G.n):
                for v in range(u + 1, G.n):
                    if u in red_set and v in red_set and G.colour(u, v) == BLUE:
                        expect.append((u, v))
                    if u in blue_set and v in blue_set and G.colour(u, v) == RED:
                        expect.append((u, v))
            assert c.flips == len(expect)

    def test_planted_split_above_24(self):
        # past the table's range: no worse than the planted split or the
        # steepest descent that used to run there
        for n in range(25, 31):
            a = n // 2 - n % 3
            G = make_split(a, n - a, seed=n, flips=3)
            c = closeness_to_split(G)
            assert c.mode == "exact"
            assert c.flips <= split_cost_reference(G, (1 << a) - 1) <= 3
            assert c.flips <= split_cost_reference(G, local_search_reference(G))

    def test_random_above_24_beats_local_search(self):
        for n in range(25, 31):
            G = make_random(n, 2, n)
            c = closeness_to_split(G)
            assert c.mode == "exact"
            assert c.flips <= split_cost_reference(G, local_search_reference(G, seed=n))
            assert closeness_to_split(G) == c

    def test_rejects_three_colours(self):
        with pytest.raises(ValueError):
            closeness_to_split(make_random(6, 3, 0))


class TestSplitViolations:
    def test_matches_per_pair_references(self):
        rng = random.Random(5)
        for n in range(2, 31):
            hosts = (make_random(n, 2, rng.randrange(10**6)),
                     make_split(n // 2, n - n // 2, seed=n, flips=n // 2))
            for G in hosts:
                for mask in [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(6)]:
                    count = _split_violations(G, mask)
                    assert count == split_cost_reference(G, mask)
                    assert count == len(flipped_edges_reference(G, mask))

    @pytest.mark.parametrize("n, reference", [(9, "exact"), (20, "exact"),
                                              (25, "local-search"), (30, "local-search")])
    def test_closeness_reports_reference_pairs(self, n, reference):
        # checked against the exact table up to n = 20, and past it against
        # single-vertex moves and the steepest descent once used there
        for seed in range(3):
            G = make_random(n, 2, seed)
            c = closeness_to_split(G)
            mask = mask_of(c.red_side)
            assert c.mode == "exact"
            assert c.flips == len(flipped_edges_reference(G, mask))
            if reference == "exact":
                assert closeness_table_reference(G) == (c.flips, mask)
            else:
                assert all(split_cost_reference(G, mask ^ 1 << v) >= c.flips for v in range(n))
                assert c.flips <= split_cost_reference(G, local_search_reference(G, seed=seed))


class TestOptimizeInequality:
    def test_split_instances_small(self):
        # min colour degree <= (1/4 + 3 delta) n, exact closeness
        for a, b in ((4, 4), (5, 3), (6, 6), (2, 7)):
            for flips in (0, 2):
                G = make_split(a, b, seed=a * 10 + flips, flips=flips)
                delta = closeness_to_split(G).delta
                bound = (Fraction(1, 4) + 3 * delta) * G.n
                assert balance_profile(G).min_degree_per_colour <= bound

    def test_pk_is_extremal(self):
        # make_Pk is split (delta 0) and meets the bound with equality
        G = make_Pk(2)
        assert closeness_to_split(G).delta == 0
        assert balance_profile(G).min_degree_per_colour == G.n // 4


class TestSeededDeterminismJson:
    def test_byte_identical_outputs(self):
        pairs = [
            (make_split(6, 6, seed=1, flips=2), make_split(6, 6, seed=1, flips=2)),
            (make_random(15, 3, 8), make_random(15, 3, 8)),
        ]
        for a, b in pairs:
            assert json.dumps(graph_to_json(a)) == json.dumps(graph_to_json(b))
        a = make_bipartite_mindeg(7, Fraction(1, 4), seed=2)
        b = make_bipartite_mindeg(7, Fraction(1, 4), seed=2)
        assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())

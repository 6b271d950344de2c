import itertools
import json
import random
import re
import warnings
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np
import pytest

from localbalance import (
    TotallyColouredPattern,
    balance_profile,
    blow_up,
    get_pattern,
    induced_unibalanced,
    is_locally_balanced,
    make_multicolour_cycle,
    make_random,
    min_unibalanced_subgraph,
    pattern_library,
    sample_unibalanced_subset,
)
from localbalance.multicolour import _previous_twins, size_cap, zeta
from hosts import (
    graph_from,
    min_unibalanced_reference,
    naive_min_unibalanced,
    previous_twins_reference,
    relabelled,
    with_twins,
)

EXPECTED_SEED0 = Path(__file__).resolve().parent.parent / "perfbench" / "expected_seed0.json"


class TestInducedUnibalanced:
    def test_transversal_of_cycle_construction(self):
        G = make_multicolour_cycle(6, 2)
        transversal = tuple(range(0, 12, 2))  # one vertex per part
        assert induced_unibalanced(G, transversal)

    def test_singleton_false(self):
        G = make_random(6, 2, 0)
        assert not induced_unibalanced(G, (3,))

    def test_inside_green_part_false(self):
        G = make_multicolour_cycle(6, 3)
        assert not induced_unibalanced(G, (0, 1, 2))  # one part, green only

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            induced_unibalanced(make_random(5, 2, 0), ())

    def test_superset_monotone(self):
        # in a complete host, adding vertices only adds incident edges
        rng = random.Random(1)
        for _ in range(20):
            G = make_random(10, 3, rng.randrange(10**6))
            for k in (3, 4):
                S = tuple(rng.sample(range(10), k))
                if induced_unibalanced(G, S):
                    extra = [v for v in range(10) if v not in S]
                    T = S + tuple(rng.sample(extra, 2))
                    assert induced_unibalanced(G, T)


class TestSamplerArguments:
    def test_formulas(self):
        import math

        eps = Fraction(1, 6)
        assert zeta(eps, 3) == pytest.approx(120 * (math.log(3) + math.log(6)))
        assert size_cap(eps) == pytest.approx(480 * math.log(6))
        assert zeta(eps, 3) <= size_cap(eps) / 2

    def test_rejects_r_above_inverse_eps(self):
        with pytest.raises(ValueError, match="r <= 1/eps"):
            sample_unibalanced_subset(make_random(12, 3, 0), Fraction(1, 2))

    @pytest.mark.parametrize("r", [93, 186])
    def test_accepts_r_equal_to_inverse_eps(self, r):
        # zeta(r) = size_cap / 2 exactly here; in floats it reads larger
        G = make_random(4, r, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sample_unibalanced_subset(G, Fraction(1, r), max_draws=1)

    def test_rejects_bad_eps(self):
        G = make_random(6, 2, 0)
        with pytest.raises(ValueError, match="^need 0 < eps < 1, got 0$"):
            sample_unibalanced_subset(G, Fraction(0))
        with pytest.raises(ValueError, match="^need 0 < eps < 1, got 3/2$"):
            sample_unibalanced_subset(G, Fraction(3, 2))

    @pytest.mark.parametrize("draws", [2.5, True, "4", None])
    def test_max_draws_must_be_an_int(self, draws):
        # 2.5 raised TypeError at the first sample, and True meant one draw
        message = f"^max_draws must be an integer, got {re.escape(repr(draws))}$"
        with pytest.raises(ValueError, match=message):
            sample_unibalanced_subset(make_random(6, 2, 0), Fraction(1, 4), max_draws=draws)

    @pytest.mark.parametrize("seed", [2.5, True, "4", None])
    def test_seed_must_be_an_int(self, seed):
        # True ran seed 1, and 2.5 ran seed hash(2.5)
        message = f"^seed must be an integer, got {re.escape(repr(seed))}$"
        with pytest.raises(ValueError, match=message):
            sample_unibalanced_subset(make_random(6, 2, 0), Fraction(1, 6), seed=seed)

    def test_numpy_seed_and_draws_are_read_as_ints(self):
        G = make_multicolour_cycle(6, 10)
        eps = Fraction(1, 6)
        assert sample_unibalanced_subset(G, eps, seed=np.int64(9), max_draws=np.int64(3)) == \
            sample_unibalanced_subset(G, eps, seed=9, max_draws=3)

    def test_max_draws_range(self):
        with pytest.raises(ValueError, match="^max_draws must be >= 1$"):
            sample_unibalanced_subset(make_random(6, 2, 0), Fraction(1, 4), max_draws=0)

    def test_checks_run_in_order_before_any_warning(self):
        # an unbalanced 3-coloured host with eps = 1/2 would warn and be
        # refused for r > 1/eps; each bad argument is named first, in turn
        G = make_random(12, 3, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^need 0 < eps"):
                sample_unibalanced_subset(G, Fraction(0), seed=None, max_draws=0)
            with pytest.raises(ValueError, match="^max_draws must be >= 1$"):
                sample_unibalanced_subset(G, Fraction(1, 2), seed=None, max_draws=0)
            with pytest.raises(ValueError, match="^seed must be an integer"):
                sample_unibalanced_subset(G, Fraction(1, 2), seed=None)
            with pytest.raises(ValueError, match="r <= 1/eps"):
                sample_unibalanced_subset(G, Fraction(1, 2))


class TestSampler:
    def test_cycle_construction_found_quickly(self):
        G = make_multicolour_cycle(6, 40)
        eps = Fraction(1, 6)
        for seed in range(5):
            got = sample_unibalanced_subset(G, eps, seed=seed, max_draws=64)
            assert got is not None
            S, draws = got
            assert induced_unibalanced(G, S)
            assert len(S) <= size_cap(eps)
            assert draws <= 64

    def test_mono_host_none(self):
        mono = graph_from(12, 2, lambda u, v: 0)
        with pytest.warns(UserWarning):
            assert sample_unibalanced_subset(mono, Fraction(1, 4), seed=0, max_draws=8) is None

    def test_p3_blowup_found_within_cap(self):
        G = blow_up(get_pattern("P3"), 30)
        got = sample_unibalanced_subset(G, Fraction(1, 4), seed=3, max_draws=64)
        assert got is not None
        assert len(got[0]) <= size_cap(Fraction(1, 4))

    def test_deterministic(self):
        G = make_multicolour_cycle(6, 10)
        eps = Fraction(1, 6)
        assert sample_unibalanced_subset(G, eps, seed=9, max_draws=16) == \
            sample_unibalanced_subset(G, eps, seed=9, max_draws=16)

    def test_eps_is_read_exactly(self):
        G = make_multicolour_cycle(6, 10)
        got = sample_unibalanced_subset(G, Fraction(1, 6), seed=2)
        assert got is not None
        assert sample_unibalanced_subset(G, "1/6", seed=2) == got

    def test_refuses_an_eps_for_another_r(self):
        # eps = 1/2 admits r = 2 only (r <= 1/eps): it samples a 2-coloured
        # host, and a 3-coloured one is refused before the local-balance
        # warning and any draw
        eps = Fraction(1, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sample_unibalanced_subset(make_random(40, 2, 0), eps)
        G = make_random(40, 3, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=(
                r"^zeta = 71\.67 exceeds size_cap/2 = 55\.45; "
                r"this needs r <= 1/eps \(r=3, eps=1/2\)$"
            )):
                sample_unibalanced_subset(G, eps)

    def test_per_draw_success_rate(self):
        # desk-scale analogue of the half-probability guarantee, loosened
        G = make_multicolour_cycle(6, 40)
        eps = Fraction(1, 6)
        assert is_locally_balanced(G, eps)
        successes = 0
        draws = 1000
        for seed in range(draws):
            if sample_unibalanced_subset(G, eps, seed=seed, max_draws=1) is not None:
                successes += 1
        assert successes / draws >= 0.25


class TestMinUnibalanced:
    def test_cycle_sizes_are_the_part_counts(self):
        assert len(min_unibalanced_subgraph(make_multicolour_cycle(6, 2), cap=8)) == 6
        assert len(min_unibalanced_subgraph(make_multicolour_cycle(4, 2), cap=8)) == 4

    def test_p1_blowup_needs_all_four(self):
        G = blow_up(get_pattern("P1"), 2)
        assert len(min_unibalanced_subgraph(G, cap=4)) == 4
        assert len(naive_min_unibalanced(G, 4)) == 4

    def test_exceeds_cap(self):
        mono = graph_from(8, 2, lambda u, v: 0)
        assert min_unibalanced_subgraph(mono, cap=6) is None
        assert min_unibalanced_subgraph(make_multicolour_cycle(6, 2), cap=5) is None

    def test_matches_naive_oracle_on_random_hosts(self):
        rng = random.Random(4)
        for _ in range(15):
            G = make_random(9, 3, rng.randrange(10**6))
            assert min_unibalanced_subgraph(G, cap=6) == naive_min_unibalanced(G, 6)

    def test_two_colour_minimum_is_three_or_four(self):
        # a single edge cannot be unibalanced; r=2 needs at least 3 vertices
        rng = random.Random(7)
        for _ in range(10):
            G = make_random(8, 2, rng.randrange(10**6))
            got = min_unibalanced_subgraph(G, cap=8)
            if got is not None:
                assert len(got) >= 3

    def test_no_unibalanced_triangle_for_two_colours(self):
        # an odd cycle has no proper 2-edge-colouring, so r = 2 starts at k = 4
        for colours in itertools.product(range(2), repeat=3):
            G = graph_from(3, 2, lambda u, v: colours[u + v - 1])
            assert not induced_unibalanced(G, range(3))
            assert min_unibalanced_subgraph(G, cap=3) is None

    @staticmethod
    def proper_edge_colourings(m, r):
        """The proper r-edge-colourings of K_m, by a DFS over the edges in
        row-major order that prunes a colour already on an edge at u or v."""
        pairs = list(itertools.combinations(range(m), 2))
        used = [set() for _ in range(m)]
        colouring = []

        def dfs(k):
            if k == len(pairs):
                yield tuple(colouring)
                return
            u, v = pairs[k]
            for c in sorted(set(range(r)) - used[u] - used[v]):
                used[u].add(c)
                used[v].add(c)
                colouring.append(c)
                yield from dfs(k + 1)
                colouring.pop()
                used[u].discard(c)
                used[v].discard(c)

        return dfs(0)

    def test_k5_has_no_proper_four_edge_colouring(self):
        # the even-r skip: a unibalanced 5-set of a 4-colouring would be one
        assert next(self.proper_edge_colourings(5, 4), None) is None
        # the DFS does find one where one exists: K_4 with 3 colours (r = 3, k = 4)
        assert len(list(self.proper_edge_colourings(4, 3))) == 6

    @pytest.mark.parametrize("r, n", [(2, 9), (4, 16)])
    def test_even_r_matches_enumeration(self, r, n):
        # the enumeration starts at k = 2, so it checks the skipped k = r + 1
        rng = random.Random(4)
        found = 0
        for _ in range(6):
            G = make_random(n, r, rng.randrange(10**6))
            S = min_unibalanced_subgraph(G, cap=6)
            assert S == naive_min_unibalanced(G, 6)
            found += S is not None
        assert found >= 2

    def test_four_colour_witness_pinned(self):
        # the witness of the search that tried k = 5 first, which took about 4 s
        assert min_unibalanced_subgraph(make_random(128, 4, 0), cap=8) == (0, 1, 2, 14, 75, 115)

    def test_rejects_big_cap(self):
        with pytest.raises(ValueError):
            min_unibalanced_subgraph(make_random(6, 2, 0), cap=13)

    @pytest.mark.parametrize("cap", [8.0, True, "8", None])
    def test_cap_must_be_an_int(self, cap):
        # 8.0 raised TypeError inside the search, and True searched size 1
        with pytest.raises(ValueError, match=f"^cap must be an integer, got {re.escape(repr(cap))}$"):
            min_unibalanced_subgraph(make_random(6, 2, 0), cap=cap)

    def test_cap_range_message_is_unchanged(self):
        with pytest.raises(ValueError, match=r"^cap must lie in 1\.\.12, got 0$"):
            min_unibalanced_subgraph(make_random(6, 2, 0), cap=0)

    def test_witness_subset(self):
        G = make_multicolour_cycle(6, 2)
        S = min_unibalanced_subgraph(G, cap=8)
        assert S is not None
        assert len(S) == 6
        assert induced_unibalanced(G, S)
        # lexicographically least witness: the first transversal
        assert S == (0, 2, 4, 6, 8, 10)

    def test_witness_is_lex_least_on_random_hosts(self):
        rng = random.Random(2)
        for _ in range(10):
            G = make_random(8, 3, rng.randrange(10**6))
            S = min_unibalanced_subgraph(G, cap=6)
            if S is None:
                continue
            k = len(S)
            least = min(
                T
                for T in itertools.combinations(range(G.n), k)
                if induced_unibalanced(G, T)
            )
            assert S == least


def unibalanced_pattern(rng: random.Random, r: int, l: int) -> TotallyColouredPattern:
    """A random l-vertex pattern whose 2-blow-up is unibalanced as a whole:
    uniform edge colours, redrawn until each vertex's edges miss at most
    one colour, and each vertex coloured with the colour its edges miss
    (a uniform one if none)."""
    while True:
        edges = {(i, j): rng.randrange(r) for i in range(l) for j in range(i + 1, l)}
        colours = []
        for i in range(l):
            missing = set(range(r)).difference(c for e, c in edges.items() if i in e)
            if len(missing) > 1:
                break
            colours.append(missing.pop() if missing else rng.randrange(r))
        else:
            return TotallyColouredPattern.from_parts(r, colours, edges)


def hosts_with_twins(seed: int, count: int):
    """Random hosts on 4..10 vertices with a few vertices duplicated into
    cliques of 2 or 3 twins, relabelled at random so that twins need not
    be consecutive."""
    rng = random.Random(seed)
    for _ in range(count):
        r, n = rng.randint(2, 5), rng.randint(4, 10)
        sizes = [rng.choice((1, 1, 1, 2, 3)) for _ in range(n)]
        G = with_twins(make_random(n, r, rng.randrange(10**6)), sizes,
                       [rng.randrange(r) for _ in range(n)])
        perm = list(range(G.n))
        rng.shuffle(perm)
        yield relabelled(G, perm)


class TestTwinClasses:
    """_previous_twins against the definition: u and v are twins when they
    have the same colour to every third vertex."""

    def test_hosts_with_duplicated_vertices(self):
        twins = 0
        for G in hosts_with_twins(0, 30):
            prev = _previous_twins(G)
            assert prev == previous_twins_reference(G)
            twins += sum(u >= 0 for u in prev)
        assert twins >= 30

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_random_hosts(self, r):
        # small two-coloured hosts have twins by chance
        rng = random.Random(r)
        for n in range(1, 10):
            G = make_random(n, r, rng.randrange(10**6))
            assert _previous_twins(G) == previous_twins_reference(G)

    def test_twins_of_every_colour(self):
        # a class in colour c is found only with the diagonal set to c
        G = with_twins(make_random(5, 4, 1), [2, 1, 3, 2, 1], [3, 0, 1, 2, 0])
        assert previous_twins_reference(G) == [-1, 0, -1, -1, 3, 4, -1, 6, -1]
        assert _previous_twins(G) == previous_twins_reference(G)

    def test_cycle_parts_are_the_classes(self):
        G = make_multicolour_cycle(8, 3)
        assert _previous_twins(G) == [-1 if v % 3 == 0 else v - 1 for v in range(24)]

    def test_one_colour_host_is_one_class(self):
        G = graph_from(5, 3, lambda u, v: 2)
        assert _previous_twins(G) == [-1, 0, 1, 2, 3]


class TestBitmaskSearchMatchesReference:
    """Identical witnesses, not only sizes, against the set-based DFS."""

    @pytest.mark.parametrize("l, m", [
        *itertools.product((4, 6, 8), (1, 2, 3)), (6, 6),
    ])
    def test_multicolour_cycles(self, l, m):
        G = make_multicolour_cycle(l, m)
        assert min_unibalanced_subgraph(G, cap=8) == min_unibalanced_reference(G, cap=8)

    @pytest.mark.parametrize("name", sorted(pattern_library()))
    def test_library_blowups(self, name):
        for t in (1, 2, 3):
            G = blow_up(get_pattern(name), t)
            assert min_unibalanced_subgraph(G, cap=8) == min_unibalanced_reference(G, cap=8)

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_random_hosts(self, r):
        rng = random.Random(r)
        for n in range(1, 13):
            G = make_random(n, r, rng.randrange(10**6))
            for cap in (1, 4, 12):
                assert min_unibalanced_subgraph(G, cap) == min_unibalanced_reference(G, cap)

    @pytest.mark.parametrize("r", [3, 4, 5])
    def test_random_pattern_blowups(self, r):
        # parts of 1 to 4 twins, n <= 20; with parts of 2 or more the whole
        # host is unibalanced, so cap 12 >= 2l finds a witness
        rng = random.Random(r)
        found = 0
        for _ in range(8):
            H = unibalanced_pattern(rng, r, rng.randint(r, 6))
            G = blow_up(H, rng.randint(1, min(4, 20 // H.num_vertices)))
            S = min_unibalanced_subgraph(G, cap=12)
            assert S == min_unibalanced_reference(G, cap=12)
            found += S is not None
        assert found >= 4

    def test_hosts_with_duplicated_vertices(self):
        found = 0
        for G in hosts_with_twins(1, 30):
            S = min_unibalanced_subgraph(G, cap=8)
            assert S == min_unibalanced_reference(G, cap=8)
            found += S is not None
        assert found >= 10

    def test_eight_by_four_cycle_pinned(self):
        G = make_multicolour_cycle(8, 4)
        assert min_unibalanced_subgraph(G, cap=8) == tuple(range(0, 32, 4))

    def test_large_cycles_pinned(self):
        # blow-ups with 3 and 2 twins per part: fast only because twins are
        # chosen in order
        G = make_multicolour_cycle(12, 3)
        assert min_unibalanced_subgraph(G, cap=12) == tuple(range(0, 36, 3))
        assert min_unibalanced_subgraph(make_multicolour_cycle(12, 2), cap=11) is None


class TestBenchmarkFingerprints:
    """The benchmark's recorded min-unibalanced outputs, reproduced in
    process from perfbench/expected_seed0.json (read, never written)."""

    def entries(self):
        expected = json.loads(EXPECTED_SEED0.read_text())
        for scale in ("full", "small"):
            for label, record in expected[scale]["blowup"].items():
                if label.startswith("min-unibalanced:"):
                    yield label, record

    def test_every_scale_has_both_cycles(self):
        labels = sorted(label for label, _ in self.entries())
        assert labels == [f"min-unibalanced:mcycle{c}.json" for c in ("4x3", "6x2", "6x6", "8x3")]

    def test_witnesses_reproduce(self):
        for label, record in self.entries():
            l, m = map(int, label.removeprefix("min-unibalanced:mcycle").removesuffix(".json")
                       .split("x"))
            S = min_unibalanced_subgraph(make_multicolour_cycle(l, m), cap=8)
            assert list(S) == record["S"] and len(S) == record["minSize"], label


class TestQuarterDensitySpotCheck:
    def test_some_size_reaches_quarter_density(self):
        # enumeration analogue of the random-subset claim at toy scale:
        # for a locally balanced host some k <= min(C, n) has at least a
        # quarter of the k-subsets unibalanced (k = n gives fraction 1)
        for G in (make_multicolour_cycle(4, 2), make_multicolour_cycle(6, 2)):
            eps = balance_profile(G).epsilon_local
            assert eps > 0
            fractions = {}
            for k in range(2, 5):
                hits = sum(
                    1
                    for S in itertools.combinations(range(G.n), k)
                    if induced_unibalanced(G, S)
                )
                fractions[k] = hits / comb(G.n, k)
            assert induced_unibalanced(G, tuple(range(G.n)))  # k = n works
            # record-style sanity: small-k fractions exist and are in [0, 1]
            assert all(0 <= f <= 1 for f in fractions.values())

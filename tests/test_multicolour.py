import itertools
import json
import random
import warnings
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from localbalance import (
    SamplerConfig,
    balance_profile,
    blow_up,
    get_pattern,
    induced_unibalanced,
    is_locally_balanced,
    make_multicolour_cycle,
    make_random,
    min_unibalanced_subgraph,
    pattern_library,
    min_unibalanced_subgraph_size,
    sample_unibalanced_subset,
)
from hosts import graph_from, min_unibalanced_reference, naive_min_unibalanced

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


class TestSamplerConfig:
    def test_formulas(self):
        cfg = SamplerConfig(eps=Fraction(1, 6), r=3)
        import math

        assert cfg.zeta == pytest.approx(120 * (math.log(3) + math.log(6)))
        assert cfg.size_cap == pytest.approx(480 * math.log(6))
        assert cfg.zeta <= cfg.size_cap / 2

    def test_rejects_r_above_inverse_eps(self):
        with pytest.raises(ValueError, match="r <= 1/eps"):
            SamplerConfig(eps=Fraction(1, 2), r=3)

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            SamplerConfig(eps=Fraction(0), r=2)
        with pytest.raises(ValueError):
            SamplerConfig(eps=Fraction(3, 2), r=2)


class TestSampler:
    def test_cycle_construction_found_quickly(self):
        G = make_multicolour_cycle(6, 40)
        for seed in range(5):
            cfg = SamplerConfig(eps=Fraction(1, 6), r=3, max_draws=64, seed=seed)
            got = sample_unibalanced_subset(G, cfg)
            assert got is not None
            S, draws = got
            assert induced_unibalanced(G, S)
            assert len(S) <= cfg.size_cap
            assert draws <= 64

    def test_mono_host_none(self):
        mono = graph_from(12, 2, lambda u, v: 0)
        cfg = SamplerConfig(eps=Fraction(1, 4), r=2, max_draws=8, seed=0)
        with pytest.warns(UserWarning):
            assert sample_unibalanced_subset(mono, cfg) is None

    def test_p3_blowup_found_within_cap(self):
        G = blow_up(get_pattern("P3"), 30)
        cfg = SamplerConfig(eps=Fraction(1, 4), r=2, max_draws=64, seed=3)
        got = sample_unibalanced_subset(G, cfg)
        assert got is not None
        assert len(got[0]) <= cfg.size_cap

    def test_deterministic(self):
        G = make_multicolour_cycle(6, 10)
        cfg = SamplerConfig(eps=Fraction(1, 6), r=3, max_draws=16, seed=9)
        assert sample_unibalanced_subset(G, cfg) == sample_unibalanced_subset(G, cfg)

    def test_refuses_a_config_for_another_r(self):
        # SamplerConfig(eps=1/2, r=3) is refused (zeta > size_cap/2), yet
        # the r=2 config used to sample this 3-coloured host
        G = make_random(40, 3, 0)
        cfg = SamplerConfig(eps=Fraction(1, 2), r=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^sampler config is for r=2, the host has r=3$"):
                sample_unibalanced_subset(G, cfg)

    def test_per_draw_success_rate(self):
        # desk-scale analogue of the half-probability guarantee, loosened
        G = make_multicolour_cycle(6, 40)
        eps = Fraction(1, 6)
        assert is_locally_balanced(G, eps)
        successes = 0
        draws = 1000
        for seed in range(draws):
            cfg = SamplerConfig(eps=eps, r=3, max_draws=1, seed=seed)
            if sample_unibalanced_subset(G, cfg) is not None:
                successes += 1
        assert successes / draws >= 0.25


class TestMinUnibalanced:
    def test_cycle_sizes_are_the_part_counts(self):
        assert min_unibalanced_subgraph_size(make_multicolour_cycle(6, 2), cap=8) == 6
        assert min_unibalanced_subgraph_size(make_multicolour_cycle(4, 2), cap=8) == 4

    def test_p1_blowup_needs_all_four(self):
        G = blow_up(get_pattern("P1"), 2)
        assert min_unibalanced_subgraph_size(G, cap=4) == 4
        assert len(naive_min_unibalanced(G, 4)) == 4

    def test_exceeds_cap(self):
        mono = graph_from(8, 2, lambda u, v: 0)
        assert min_unibalanced_subgraph_size(mono, cap=6) is None
        assert min_unibalanced_subgraph_size(make_multicolour_cycle(6, 2), cap=5) is None

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
            got = min_unibalanced_subgraph_size(G, cap=8)
            if got is not None:
                assert got >= 3

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
            min_unibalanced_subgraph_size(make_random(6, 2, 0), cap=13)

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

    def test_eight_by_four_cycle_pinned(self):
        G = make_multicolour_cycle(8, 4)
        assert min_unibalanced_subgraph(G, cap=8) == tuple(range(0, 32, 4))


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

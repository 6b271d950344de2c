import hashlib
import json
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from localbalance import (
    blow_up,
    find_pattern_blowup_exhaustive,
    get_pattern,
    graph_to_json,
    is_locally_balanced,
    make_bipartite_mindeg,
    make_Pk,
    sample_locally_balanced,
    verify_lemma_m1_bound,
    verify_prop_3colourfail,
    verify_prop_cute,
    verify_prop_many_p3c4,
    verify_prop_optimize,
    verify_theorem_anybalanced_small,
)
from hosts import graph_from


class TestCute:
    def test_exhaustive_zero_failures(self):
        report = verify_prop_cute()
        assert report.passed
        assert report.instances > 0
        assert len(report.notes) == 2

    def test_all_red_excluded_from_hypothesis(self):
        # an all-red K33 violates "every A-vertex has a blue neighbour" and
        # must not be counted, let alone failed
        report = verify_prop_cute(sizes=((3, 3),))
        full = 1 << 9
        assert report.instances < full

    def test_rejects_small_sides(self):
        with pytest.raises(ValueError):
            verify_prop_cute(sizes=((2, 3),))

    def test_failure_record_names_rows_msb_first(self, monkeypatch):
        # code bits x * nb + y are red[x, y]; each row is printed as an nb-bit
        # binary number, so y = nb - 1 comes first.  The first code in the
        # hypothesis at K_{3,3} is 6 + 8 * 1: rows 6, 1, 0.
        monkeypatch.setattr("localbalance.verify.count_m1", lambda B: 0)
        report = verify_prop_cute(sizes=((3, 3),))
        assert len(report.failures) == report.instances
        assert report.failures[0] == {"sides": [3, 3], "colouring": ["110", "001", "000"]}


class TestP3c4:
    def test_small_run_passes(self):
        report = verify_prop_many_p3c4(per_n=3, ns=(16,), seed=1)
        assert report.passed
        assert report.instances == 7 + 3  # seven block constructions + samples

    def test_p1_blowup_instance(self):
        # the bound is met through the mono-K4-free classes of the blow-up
        G = blow_up(get_pattern("P1"), 4)
        report = verify_prop_many_p3c4(instances=[G])
        assert report.passed
        entry = report.bounds[0]
        assert entry["ok"]

    def test_violation_detected_on_doctored_instance(self):
        # a split host has eps = 0 only when some colour misses a vertex;
        # build a fake entry by checking the bound machinery on mono host
        mono = graph_from(8, 2, lambda u, v: 0)
        report = verify_prop_many_p3c4(instances=[mono])
        # eps = 0 makes the bound vacuous: passes, observed 0 >= 0
        assert report.passed

    def test_failure_record_carries_the_host(self, monkeypatch):
        # with no copies counted, P_2 (eps = 1/4, n = 8) misses the bound
        none = SimpleNamespace(count_c4=0, count_c4bar=0, count_p3o=0)
        monkeypatch.setattr("localbalance.verify.census_k4", lambda G: none)
        G = make_Pk(2)
        report = verify_prop_many_p3c4(instances=[G])
        entry = {"n": 8, "eps": "1/4", "bound": 0.00016, "observed": 0, "ok": False}
        assert report.instances == 1 and report.bounds == [entry]
        assert report.failures == [{"entry": entry, "colouring": graph_to_json(G, compact=True)}]


class TestOptimize:
    def test_default_family_small(self):
        report = verify_prop_optimize(max_n=10, seed=0)
        assert report.passed
        assert report.instances > 50

    def test_split_8_8_entry(self):
        from localbalance import make_split

        report = verify_prop_optimize(instances=[make_split(8, 8, seed=0)])
        assert report.passed
        assert report.bounds[0]["delta"] == "0"

    def test_large_hosts_pass(self):
        # closeness is exact at every n, so the suite takes hosts past n = 24
        from localbalance import make_Pk, make_split

        report = verify_prop_optimize(instances=[make_Pk(64), make_split(100, 156, flips=50)])
        assert report.passed and report.instances == 2
        pk, split = report.bounds
        assert pk["n"] == 256 and pk["delta"] == "0"
        assert pk["minDegree"] == pk["bound"] == 64  # P_k is extremal
        assert split["n"] == 256 and Fraction(split["delta"]) <= Fraction(50, 256**2)

    def test_failure_record_carries_the_host(self, monkeypatch):
        # delta = -1/12 puts the bound at (1/4 - 1/4) n = 0, under P_2's min degree 2
        monkeypatch.setattr("localbalance.verify.closeness_to_split",
                            lambda G: SimpleNamespace(delta=Fraction(-1, 12)))
        G = make_Pk(2)
        report = verify_prop_optimize(instances=[G])
        entry = {"n": 8, "delta": "-1/12", "minDegree": 2, "bound": 0.0, "ok": False}
        assert report.instances == 1 and report.bounds == [entry]
        assert report.failures == [{"entry": entry, "colouring": graph_to_json(G, compact=True)}]


class TestM1Bound:
    def test_small_run_passes(self):
        report = verify_lemma_m1_bound(n_sides=(20,), eps_list=(Fraction(1, 10),),
                                       per_cell=5, seed=3)
        assert report.passed
        assert report.instances == 5
        assert all(e["ok"] for e in report.bounds)

    def test_default_counts_pinned(self):
        # the 300 per-instance counts of the default run, as the per-pair
        # codegree loop that count_m1 replaced computed them
        observed = [e["observed"] for e in verify_lemma_m1_bound().bounds]
        assert (len(observed), sum(observed), min(observed), max(observed)) == (
            300, 10_637_549, 4361, 79_867)
        digest = hashlib.sha256(json.dumps(observed).encode()).hexdigest()
        assert digest[:16] == "84d6f554450cab40"

    def test_failure_record_carries_the_colouring(self, monkeypatch):
        monkeypatch.setattr("localbalance.verify.count_m1", lambda B: 0)
        report = verify_lemma_m1_bound(n_sides=(20,), eps_list=(Fraction(1, 10),),
                                       per_cell=2, seed=3)
        assert report.instances == 2
        assert report.bounds == [{"nSide": 20, "eps": "1/10", "bound": 0.10666666666666667,
                                  "observed": 0, "ok": False}] * 2
        assert report.failures == [
            {"nSide": 20, "eps": "1/10", "observed": 0,
             "colouring": make_bipartite_mindeg(20, Fraction(1, 10), seed=3 + 7919 * i + 20).to_dict()}
            for i in range(2)
        ]


class Test3ColourFail:
    def test_all_cells(self):
        report = verify_prop_3colourfail()
        assert report.passed
        assert report.instances == 4
        assert all(e["minSize"] == e["l"] for e in report.bounds)

    def test_failure_record_is_the_entry(self, monkeypatch):
        monkeypatch.setattr("localbalance.verify.min_unibalanced_subgraph",
                            lambda G, cap: None)
        report = verify_prop_3colourfail(ls=(4,), ms=(1,))
        entry = {"l": 4, "partSize": 1, "expected": 4, "minSize": None, "ok": False}
        assert report.instances == 1
        assert report.bounds == report.failures == [entry]


class TestAnybalancedSmall:
    def test_record_mode_never_fails(self):
        report = verify_theorem_anybalanced_small(n=10, samples=10, seed=0)
        assert report.passed  # record mode: absences are notes, not failures
        assert report.instances == 10

    def test_strict_mode_fails_each_recorded_absence(self, monkeypatch):
        # every sample holds a P1 2-blow-up; hide all three targets in every
        # second sample so that both modes see five absences
        seen = []

        def every_second_sample(G, pat, t, homogeneous):
            if not seen or seen[-1] is not G:
                seen.append(G)
            return None if len(seen) % 2 == 0 else find_pattern_blowup_exhaustive(G, pat, t, homogeneous)

        monkeypatch.setattr("localbalance.verify.find_pattern_blowup_exhaustive", every_second_sample)
        record = verify_theorem_anybalanced_small(n=10, samples=10, seed=0)
        sampled, seen[:] = seen[:], []
        strict = verify_theorem_anybalanced_small(n=10, samples=10, seed=0, strict=True)
        assert seen == sampled and len(sampled) == 10
        assert strict.bounds == record.bounds == [{"n": 10, "found": "P1"}, {"n": 10, "found": None}] * 5
        assert record.passed and not strict.passed
        assert strict.failures == [
            {"n": 10, "colouring": graph_to_json(G, compact=True)} for G in sampled[1::2]
        ]
        absent = "sample without P1/P1bar/P3 2-blow-up (recorded)"
        assert record.notes.count(absent) == 5 and absent not in strict.notes

    def test_pk3_contains_planted_p3_blowup(self):
        G = make_Pk(3)
        assert find_pattern_blowup_exhaustive(G, get_pattern("P3"), 2) is not None

    def test_p1_blowup_contains_p1(self):
        G = blow_up(get_pattern("P1"), 6)
        assert find_pattern_blowup_exhaustive(G, get_pattern("P1"), 2) is not None

    def test_rejects_large_n(self):
        with pytest.raises(ValueError):
            verify_theorem_anybalanced_small(n=20, samples=1)

    def test_report_embeds_seed_and_is_reproducible(self):
        a = verify_theorem_anybalanced_small(n=10, samples=5, seed=77)
        b = verify_theorem_anybalanced_small(n=10, samples=5, seed=77)
        assert a.seeds == [77]
        assert a.bounds == b.bounds


class TestSampling:
    def test_sample_locally_balanced_respects_eps(self):
        rng = random.Random(0)
        G = sample_locally_balanced(16, 2, Fraction(3, 10), rng)
        assert G is not None
        assert is_locally_balanced(G, Fraction(3, 10))

    def test_impossible_eps_returns_none(self):
        rng = random.Random(0)
        assert sample_locally_balanced(6, 2, Fraction(1, 2), rng, max_attempts=50) is None

    def test_report_serialisable(self):
        import json

        report = verify_prop_3colourfail()
        json.dumps(report.to_dict())

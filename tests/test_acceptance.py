"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances and instance grids are pinned here; nothing is deferred
to later calibration.
"""

import itertools
import random
import time
from fractions import Fraction
from math import comb

import pytest

from localbalance import (
    CanonicalHypergraph,
    balance_profile,
    blow_up,
    census_k4,
    closeness_to_split,
    count_m1,
    find_homogeneous_blowup,
    find_pattern_blowup_exhaustive,
    get_pattern,
    make_bipartite_mindeg,
    make_multicolour_cycle,
    make_Pk,
    make_random,
    make_split,
    min_degree_cleanup,
    min_unibalanced_subgraph,
    verify_prop_cute,
    verify_theorem_anybalanced_small,
    verify_witness,
)
from hosts import bipartite_from, census_k4_reference, count_m1_reference


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num}: {status} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_construction_fidelity():
    """make_Pk is exactly 1/4-balanced and avoids P1/P1bar 2-blow-ups."""
    start = time.perf_counter()
    p1, p1bar = get_pattern("P1"), get_pattern("P1bar")
    for k in range(1, 7):
        G = make_Pk(k)
        assert balance_profile(G).epsilon_local == Fraction(1, 4), k
        assert find_pattern_blowup_exhaustive(G, p1, 2) is None, k
        assert find_pattern_blowup_exhaustive(G, p1bar, 2) is None, k
    elapsed = time.perf_counter() - start
    report(
        1,
        elapsed < 10.0,
        f"k=1..6 exact 1/4 balance, no P1/P1bar 2-blow-up ({elapsed:.2f}s < 10s)",
    )


def test_criterion_2_cute_exhaustive():
    """Every in-hypothesis colouring of K33 and K34 has an alternating C4."""
    start = time.perf_counter()
    rep = verify_prop_cute(sizes=((3, 3), (3, 4)))
    elapsed = time.perf_counter() - start
    report(
        2,
        rep.passed and elapsed < 5.0,
        f"{rep.instances} in-hypothesis colourings of 512+4096, "
        f"{len(rep.failures)} failures ({elapsed:.2f}s < 5s)",
    )


def test_criterion_3_m1_lower_bound():
    """count_M1 >= eps^4 n^4 / 150 on conditioned bipartite instances."""
    start = time.perf_counter()
    violations = 0
    total = 0
    for n_side in (20, 30, 40):
        for eps in (Fraction(1, 10), Fraction(1, 5)):
            bound = eps**4 * n_side**4 / 150
            for i in range(50):
                B = make_bipartite_mindeg(n_side, eps, seed=100 * n_side + i)
                total += 1
                if Fraction(count_m1(B)) < bound:
                    violations += 1
    elapsed = time.perf_counter() - start
    report(
        3,
        violations == 0 and elapsed < 60.0,
        f"{total} instances over (20,30,40)x(1/10,1/5), {violations} violations "
        f"({elapsed:.1f}s < 60s)",
    )


def test_criterion_4_p3c4_lower_bound():
    """C4 + C4bar + P3o count >= eps^4 n^4 / 1e5 at the exact balance level."""
    instances = [make_Pk(k) for k in range(2, 9)]
    rng = random.Random(2024)
    for n in (16, 24, 32):
        got = 0
        while got < 100:
            G = make_random(n, 2, rng.randrange(2**31))
            if balance_profile(G).epsilon_local >= Fraction(3, 10):
                instances.append(G)
                got += 1
    violations = 0
    for G in instances:
        eps = balance_profile(G).epsilon_local
        c = census_k4(G)
        observed = c.count_c4 + c.count_c4bar + c.count_p3o
        if Fraction(observed) < eps**4 * G.n**4 / 100_000:
            violations += 1
    report(
        4,
        violations == 0,
        f"{len(instances)} instances (Pk k=2..8 plus 300 sampled 0.3-balanced), "
        f"{violations} violations",
    )


def test_criterion_5_optimize_inequality():
    """Exact closeness delta: min colour degree <= (1/4 + 3 delta) n."""
    violations = 0
    total = 0
    for n in range(2, 21):
        for a in range(0, n + 1):
            b = n - a
            for flips in (0, 2, 4):
                if flips > comb(n, 2):
                    continue
                G = make_split(a, b, seed=1000 * a + flips, flips=flips)
                delta = closeness_to_split(G).delta
                total += 1
                if balance_profile(G).min_degree_per_colour > (Fraction(1, 4) + 3 * delta) * n:
                    violations += 1
    for k in range(1, 6):
        G = make_Pk(k)
        delta = closeness_to_split(G).delta
        total += 1
        if balance_profile(G).min_degree_per_colour > (Fraction(1, 4) + 3 * delta) * G.n:
            violations += 1
    report(5, violations == 0, f"{total} split/Pk instances up to n=20, {violations} violations")


def test_criterion_6_three_colour_minimum():
    """The alternating-cycle colouring needs all l parts to be unibalanced."""
    ok = True
    for l, m in itertools.product((4, 6), (1, 2)):
        got = min_unibalanced_subgraph(make_multicolour_cycle(l, m), cap=12)
        ok = ok and got is not None and len(got) == l
    report(6, ok, "min unibalanced size equals part count for l in {4,6}, m in {1,2}")


def test_criterion_7_census_oracle_equivalence():
    """Optimized census == O(n^4) reference; codegree M1 == pair enumeration."""
    rng = random.Random(7)
    checked = 0
    for _ in range(200):
        n = rng.randrange(4, 41)
        G = make_random(n, 2, rng.randrange(2**31))
        assert census_k4(G).counts == census_k4_reference(G).counts
        checked += 1
    constructions = [make_Pk(k) for k in range(1, 9)]  # n up to 32
    constructions += [make_split(a, 2 * a, seed=a, flips=a % 5) for a in (2, 5, 8, 10)]
    constructions += [blow_up(get_pattern(nm), t) for nm in ("C4", "P3o", "P1") for t in (2, 5, 8)]
    for G in constructions:
        assert G.n <= 32
        assert census_k4(G).counts == census_k4_reference(G).counts
        checked += 1
    m1_checked = 0
    for _ in range(200):
        nx, ny = rng.randrange(1, 13), rng.randrange(1, 13)
        B = bipartite_from(nx, ny, lambda x, y: rng.randrange(2))
        assert count_m1(B) == count_m1_reference(B)
        m1_checked += 1
    report(7, True, f"{checked} census hosts and {m1_checked} bipartite instances agree exactly")


def test_criterion_8_pipeline_soundness_and_recovery():
    """Witnesses always verify; planted hosts reach t >= 2 on >= 8/10 seeds."""
    cells = []
    for name in ("C4", "P3o"):
        pat = get_pattern(name)
        for t in (4, 6, 8):
            host = blow_up(pat, t)
            hits = 0
            for seed in range(10):
                res = find_homogeneous_blowup(host, pat, seed=seed, retries=256, target_t=2)
                if res.witness is not None:
                    assert verify_witness(host, res.witness)  # structural, exact
                if res.achieved_t >= 2:
                    hits += 1
            cells.append((name, t, hits))
    ok = all(hits >= 8 for _, _, hits in cells)
    detail = ", ".join(f"{n}[t={t}]:{h}/10" for n, t, h in cells)
    report(8, ok, f"recovery {detail} (threshold 8/10 per cell)")


def test_criterion_9_cleanup_fixpoint():
    """min_degree_cleanup equals the repeat-until-stable oracle."""
    rng = random.Random(11)
    for trial in range(100):
        l = rng.randrange(2, 5)
        part_size = rng.randrange(2, 13)
        parts = [tuple(range(i * part_size, (i + 1) * part_size)) for i in range(l)]
        edges = [e for e in itertools.product(*parts) if rng.random() < 0.35]
        Hg = CanonicalHypergraph.from_edges(parts, edges)
        thr = Fraction(rng.randrange(0, 10), 10)
        got = set(min_degree_cleanup(Hg, thr).edges())
        want = set(Hg.edges())
        cut = thr * part_size
        while True:
            deg = {}
            for e in want:
                deg[e[:-1]] = deg.get(e[:-1], 0) + 1
            bad = {p for p, d in deg.items() if 0 < d < cut}
            if not bad:
                break
            want = {e for e in want if e[:-1] not in bad}
        assert got == want, trial
    report(9, True, "100 seeded hypergraphs (l<=4, parts<=12) match the naive fixpoint")


def test_criterion_10_anybalanced_recorded():
    """Small-n containment runs are recorded, not asserted."""
    rep = verify_theorem_anybalanced_small(n=12, eps=Fraction(1, 4), samples=100, seed=5)
    found = sum(1 for e in rep.bounds if e["found"] is not None)
    # record-only: the suite must complete and report; absences are notes
    report(
        10,
        rep.passed and rep.instances == 100,
        f"100 samples at n=12, t=2: {found} contained a target blow-up "
        f"(recorded, not asserted)",
    )

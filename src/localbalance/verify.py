"""Desk-scale verification suites for the subgraph-count statements.

Each suite returns a VerificationReport.  Statements with n-free
hypotheses (the alternating-cycle bipartite results, the split-closeness
optimisation, the minimum unibalanced-subgraph sizes) are asserted
strictly: an in-hypothesis violation lands in report.failures.  The
blow-up containment statement only holds above astronomically large n, so
its small-n suite records observations instead of asserting, unless
strict mode is requested.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import comb

import numpy as np

from .census import BipartiteColouring, census_k4, count_m1
from .constructions import (
    closeness_to_split,
    draw_below,
    make_bipartite_mindeg,
    make_multicolour_cycle,
    make_Pk,
    make_split,
)
from .core import (
    ColouredCompleteGraph,
    Rational,
    _as_fraction,
    _check_size,
    _integer,
    balance_profile,
    graph_to_json,
    least_balanced_degree,
)
from .multicolour import min_unibalanced_subgraph_size
from .patterns import find_pattern_blowup_exhaustive, get_pattern


@dataclass
class VerificationReport:
    suite: str
    instances: int = 0
    failures: list[dict] = field(default_factory=list)
    bounds: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    seeds: list[int] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, entry: dict, failure: dict | None = None) -> None:
        """Count one instance, with its bounds entry and, if it failed, its
        failure record."""
        self.instances += 1
        self.bounds.append(entry)
        if failure is not None:
            self.failures.append(failure)

    def to_dict(self) -> dict:
        return {**vars(self), "passed": self.passed}


@functools.lru_cache(maxsize=1)  # the callers sample every host of one size in a row
def _pair_cells(n: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """The (vertex, colour) cells vertex * r of the two ends of each pair
    u < v, in row-major order; read-only, since later calls share them."""
    us, vs = np.triu_indices(n, 1)
    us, vs = us * r, vs * r
    us.flags.writeable = vs.flags.writeable = False
    return us, vs


def sample_locally_balanced(
    n: int, r: int, eps: Rational, rng: random.Random, max_attempts: int = 10_000
) -> ColouredCompleteGraph | None:
    """Rejection-sample a locally eps-balanced uniform colouring.

    Attempt i draws make_random(n, r, rng.randrange(2**31)); the per-colour
    degrees are counted on the drawn pair colours and only the accepted
    draw is built into a graph.  An eps no colouring can meet, with
    r * ceil(eps * n) > n - 1 (a vertex has n - 1 edges to share among r
    colours), returns None without drawing; every other eps draws the same
    stream, and leaves rng in the same state, as the per-attempt loop.
    """
    n, r = _check_size(n, r)
    max_attempts = _integer(max_attempts, "max_attempts")
    need = least_balanced_degree(eps, n)
    if r * need > n - 1:
        return None
    us, vs = _pair_cells(n, r)
    for _ in range(max_attempts):
        colours = draw_below(random.Random(rng.randrange(2**31)), r, len(us))
        degrees = np.bincount(us + colours, minlength=n * r) + np.bincount(vs + colours, minlength=n * r)
        if int(degrees.min()) >= need:
            return ColouredCompleteGraph.from_pair_colours(n, r, colours)
    return None


def verify_prop_cute(sizes: tuple[tuple[int, int], ...] = ((3, 3), (3, 4))) -> VerificationReport:
    """Exhaustive check: every 2-coloured complete bipartite graph with
    both sides > 2, every A-vertex owning a blue edge and every B-vertex a
    red edge, contains an alternating 4-cycle."""
    report = VerificationReport(suite="cute")
    for na, nb in sizes:
        if na <= 2 or nb <= 2:
            raise ValueError("the hypothesis needs both sides > 2")
        shifts = np.arange(na * nb).reshape(na, nb)  # red[x, y] is bit x * nb + y of the code
        in_hypothesis = 0
        for bits in range(1 << (na * nb)):
            red = (bits >> shifts) & 1 == 1
            if red.all(axis=1).any() or not red.any(axis=0).all():
                continue  # some x all red, or some y with no red
            in_hypothesis += 1
            if count_m1(BipartiteColouring(red)) < 1:
                rows = [(bits >> (x * nb)) & ((1 << nb) - 1) for x in range(na)]
                report.failures.append(
                    {"sides": [na, nb], "colouring": [f"{row:0{nb}b}" for row in rows]}
                )
        report.instances += in_hypothesis
        report.notes.append(f"K_{{{na},{nb}}}: {in_hypothesis} in-hypothesis colourings")
    return report


def _record_host(report: VerificationReport, G: ColouredCompleteGraph, entry: dict) -> None:
    """Record entry for the host G; a failed entry's record carries G."""
    failure = None if entry["ok"] else {"entry": entry, "colouring": graph_to_json(G, compact=True)}
    report.record(entry, failure)


def _p3c4_bound_holds(G: ColouredCompleteGraph) -> dict:
    prof = balance_profile(G)
    eps = prof.epsilon_local
    c = census_k4(G)
    observed = c.count_c4 + c.count_c4bar + c.count_p3o
    bound = eps**4 * G.n**4 / 100_000
    return {
        "n": G.n,
        "eps": str(eps),
        "bound": float(bound),
        "observed": observed,
        "ok": Fraction(observed) >= bound,
    }


def verify_prop_many_p3c4(
    instances: list[ColouredCompleteGraph] | None = None,
    per_n: int = 100,
    ns: tuple[int, ...] = (16, 24, 32),
    min_eps: Rational = Fraction(3, 10),
    seed: int = 0,
) -> VerificationReport:
    """Copies of the alternating-completable K4 classes vs eps^4 n^4 / 1e5,
    with eps the instance's exact local balance level."""
    report = VerificationReport(suite="p3c4", seeds=[seed])
    if instances is None:
        instances = [make_Pk(k) for k in range(2, 9)]
        rng = random.Random(seed)
        for n in ns:
            got = 0
            while got < per_n:
                G = sample_locally_balanced(n, 2, min_eps, rng)
                if G is None:
                    report.notes.append(f"rejection sampling exhausted at n={n}")
                    break
                instances.append(G)
                got += 1
    for G in instances:
        _record_host(report, G, _p3c4_bound_holds(G))
    return report


def verify_prop_optimize(
    instances: list[ColouredCompleteGraph] | None = None,
    max_n: int = 20,
    flips_list: tuple[int, ...] = (0, 2, 4),
    seed: int = 0,
) -> VerificationReport:
    """Exact split-closeness delta against the minimum colour degree:
    min degree <= (1/4 + 3 delta) n on every instance, of any size (the
    closeness is exact at every n)."""
    report = VerificationReport(suite="optimize", seeds=[seed])
    if instances is None:
        instances = []
        for total in range(2, max_n + 1):
            for a in range(0, total + 1):
                b = total - a
                for flips in flips_list:
                    if flips <= comb(total, 2):
                        instances.append(make_split(a, b, seed=seed + a * 1000 + flips, flips=flips))
        for k in range(1, max_n // 4 + 1):
            instances.append(make_Pk(k))
    for G in instances:
        closeness = closeness_to_split(G)
        prof = balance_profile(G)
        bound = (Fraction(1, 4) + 3 * closeness.delta) * G.n
        _record_host(report, G, {
            "n": G.n,
            "delta": str(closeness.delta),
            "minDegree": prof.min_degree_per_colour,
            "bound": float(bound),
            "ok": prof.min_degree_per_colour <= bound,
        })
    return report


def verify_lemma_m1_bound(
    n_sides: tuple[int, ...] = (20, 30, 40),
    eps_list: tuple[Fraction, ...] = (Fraction(1, 10), Fraction(1, 5)),
    per_cell: int = 50,
    seed: int = 0,
) -> VerificationReport:
    """Alternating-K22 count vs eps^4 n^4 / 150 on min-degree-conditioned
    bipartite instances."""
    report = VerificationReport(suite="m1bound", seeds=[seed])
    for n_side, eps in product(n_sides, [_as_fraction(e) for e in eps_list]):
        bound = eps**4 * n_side**4 / 150
        for i in range(per_cell):
            B = make_bipartite_mindeg(n_side, eps, seed=seed + 7919 * i + n_side)
            observed = count_m1(B)
            ok = Fraction(observed) >= bound
            report.record(
                {"nSide": n_side, "eps": str(eps), "bound": float(bound),
                 "observed": observed, "ok": ok},
                None if ok else {"nSide": n_side, "eps": str(eps), "observed": observed,
                                 "colouring": B.to_dict()},
            )
    return report


def verify_prop_3colourfail(
    ls: tuple[int, ...] = (4, 6), ms: tuple[int, ...] = (1, 2)
) -> VerificationReport:
    """The alternating-cycle 3-colouring has no unibalanced subgraph
    smaller than its number of parts, and a transversal attains it."""
    report = VerificationReport(suite="3colourfail")
    for l, m in product(ls, ms):
        G = make_multicolour_cycle(l, m)
        got = min_unibalanced_subgraph_size(G, cap=min(12, G.n))
        entry = {"l": l, "partSize": m, "expected": l, "minSize": got, "ok": got == l}
        report.record(entry, None if entry["ok"] else entry)
    return report


def verify_theorem_anybalanced_small(
    n: int = 12,
    eps: Rational = Fraction(1, 4),
    samples: int = 100,
    seed: int = 0,
    strict: bool = False,
) -> VerificationReport:
    """Sampled locally eps-balanced hosts searched for a 2-blow-up of P1,
    P1bar or P3.

    The containment theorem only applies above enormous n, so by default
    instances without any of the three blow-ups are recorded as
    observations; strict mode turns them into failures.  Rejection
    sampling that stalls lowers eps by 10% (up to 5 times) and reports.
    """
    if n > 16:
        raise ValueError("the small containment suite is limited to n <= 16")
    eps = _as_fraction(eps)
    report = VerificationReport(suite="anybalanced", seeds=[seed])
    rng = random.Random(seed)
    pats = [get_pattern("P1"), get_pattern("P1bar"), get_pattern("P3")]
    eps_used = eps
    found_count = 0
    for _ in range(samples):
        G = None
        for _ in range(6):
            G = sample_locally_balanced(n, 2, eps_used, rng)
            if G is not None:
                break
            eps_used = eps_used * Fraction(9, 10)
            report.notes.append(f"lowered eps to {eps_used}")
        if G is None:
            report.notes.append("rejection sampling exhausted; sample skipped")
            continue
        hit = None
        for pat in pats:
            if find_pattern_blowup_exhaustive(G, pat, 2, homogeneous=False) is not None:
                hit = pat.name
                break
        failure = None
        if hit is not None:
            found_count += 1
        elif strict:
            failure = {"n": n, "colouring": graph_to_json(G, compact=True)}
        else:
            report.notes.append("sample without P1/P1bar/P3 2-blow-up (recorded)")
        report.record({"n": n, "found": hit}, failure)
    report.notes.append(f"{found_count}/{report.instances} samples contained a target blow-up")
    return report

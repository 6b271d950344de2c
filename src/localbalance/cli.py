"""Command-line entry point: generate / census / find-blowup /
sample-unibalanced / min-unibalanced / verify / experiment.

Every output JSON embeds a run manifest (command, argv, seeds, input file
hashes, version, wall time).  Outputs are deterministic given the same
command, seeds and inputs, except for the manifest's wallTimeMs field.
Exit codes: 0 pass, 1 assertion/suite failure, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import random
import sys
import time
from fractions import Fraction

from . import __version__
from .blowup_finder import FinderConfig, find_homogeneous_blowup
from .census import census_k4
from .constructions import (
    make_bipartite_mindeg,
    make_multicolour_cycle,
    make_Pk,
    make_random,
    make_split,
)
from .core import (
    ColouredCompleteGraph,
    GraphFormatError,
    balance_profile,
    graph_from_json,
    graph_to_json,
)
from .multicolour import (
    SamplerConfig,
    min_unibalanced_subgraph,
    sample_unibalanced_subset,
)
from .patterns import TotallyColouredPattern, get_pattern, induced_edge_pattern
from .verify import (
    sample_locally_balanced,
    verify_lemma_m1_bound,
    verify_prop_3colourfail,
    verify_prop_cute,
    verify_prop_many_p3c4,
    verify_prop_optimize,
    verify_theorem_anybalanced_small,
)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x]


def _fraction_list(text: str) -> list[Fraction]:
    return [_fraction(x) for x in text.split(",") if x]


def _hash_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def _manifest(args: argparse.Namespace, seeds: list[int], inputs: list[str], t0: float) -> dict:
    return {
        "command": args.command,
        "argv": args.argv,
        "seeds": seeds,
        "inputHashes": {p: _hash_file(p) for p in inputs},
        "version": __version__,
        "wallTimeMs": round(1000 * (time.perf_counter() - t0), 1),
    }


def _emit(payload: dict, out_path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_graph(path: str) -> ColouredCompleteGraph:
    with open(path) as fh:
        return graph_from_json(json.load(fh))


# --- subcommand handlers ----------------------------------------------------

def _cmd_generate(args) -> int:
    t0 = time.perf_counter()
    seed = args.seed
    if args.family == "pk":
        obj = graph_to_json(make_Pk(args.k), compact=args.compact)
    elif args.family == "split":
        obj = graph_to_json(make_split(args.a, args.b, seed=seed, flips=args.flips),
                            compact=args.compact)
    elif args.family == "mcycle":
        obj = graph_to_json(make_multicolour_cycle(args.parts, args.part_size),
                            compact=args.compact)
    elif args.family == "random":
        obj = graph_to_json(make_random(args.n, args.r, seed), compact=args.compact)
    elif args.family == "balanced":
        rng = random.Random(seed)
        G = sample_locally_balanced(args.n, args.r, args.eps, rng)
        if G is None:
            print(f"could not sample a locally {args.eps}-balanced colouring", file=sys.stderr)
            return 1
        obj = graph_to_json(G, compact=args.compact)
    else:  # bipartite
        obj = make_bipartite_mindeg(args.n_side, args.eps, seed).to_dict()
    obj["manifest"] = _manifest(args, [seed], [], t0)
    _emit(obj, args.out)
    return 0


def _cmd_census(args) -> int:
    t0 = time.perf_counter()
    G = _load_graph(args.graph)
    if G.n > args.max_n:
        print(f"census limited to n <= {args.max_n} (got n={G.n})", file=sys.stderr)
        return 2
    result = census_k4(G, method=args.method).to_dict()
    prof = balance_profile(G)
    result["epsilonLocal"] = str(prof.epsilon_local)
    result["manifest"] = _manifest(args, [], [args.graph], t0)
    _emit(result, args.json)
    return 0


def _cmd_find_blowup(args) -> int:
    t0 = time.perf_counter()
    G = _load_graph(args.graph)
    if args.pattern_file:
        with open(args.pattern_file) as fh:
            data = json.load(fh)
        pattern = TotallyColouredPattern.from_dict(data.get("pattern", data))
    else:
        pattern = get_pattern(args.pattern)
    config = FinderConfig(
        c=args.c,
        seed=args.seed,
        max_partition_retries=args.retries,
        subset_search_budget=args.budget,
    )
    res = find_homogeneous_blowup(G, pattern, config, target_t=args.target_t)
    payload = res.to_dict()
    payload["pattern"] = pattern.name or pattern.to_dict()
    payload["manifest"] = _manifest(args, [args.seed], [args.graph], t0)
    _emit(payload, args.json)
    if args.target_t is not None and res.achieved_t < args.target_t:
        return 1
    return 0


def _cmd_sample_unibalanced(args) -> int:
    t0 = time.perf_counter()
    G = _load_graph(args.graph)
    config = SamplerConfig(eps=args.eps, r=G.r, max_draws=args.max_draws, seed=args.seed)
    got = sample_unibalanced_subset(G, config)
    payload = {
        "zeta": config.zeta,
        "C": config.size_cap,
        "S": list(got[0]) if got else None,
        "draws": got[1] if got else args.max_draws,
        "found": got is not None,
        "manifest": _manifest(args, [args.seed], [args.graph], t0),
    }
    if got:
        # the induced pattern of the sampled subset; feeding this back into
        # find-blowup --pattern-file completes the sample -> extract ->
        # blow-up pipeline (patterns with more than 8 vertices are only
        # reported, the extractor does not accept them)
        payload["pattern"] = induced_edge_pattern(G, got[0], name="sampled").to_dict()
    _emit(payload, args.json)
    return 0 if got else 1


def _cmd_min_unibalanced(args) -> int:
    t0 = time.perf_counter()
    G = _load_graph(args.graph)
    witness = min_unibalanced_subgraph(G, cap=args.cap)
    payload = {
        "minSize": None if witness is None else len(witness),
        "S": None if witness is None else list(witness),
        "exceedsCap": witness is None,
        "cap": args.cap,
        "manifest": _manifest(args, [], [args.graph], t0),
    }
    if witness is not None:
        # feeding this back into find-blowup --pattern-file completes the
        # smallest-unibalanced-subgraph -> blow-up pipeline
        payload["pattern"] = induced_edge_pattern(G, witness, name="minimal").to_dict()
    _emit(payload, args.json)
    return 0


def _cmd_verify(args) -> int:
    t0 = time.perf_counter()
    if args.suite == "cute":
        report = verify_prop_cute()
    elif args.suite == "p3c4":
        report = verify_prop_many_p3c4(seed=args.seed)
    elif args.suite == "optimize":
        report = verify_prop_optimize(seed=args.seed)
    elif args.suite == "anybalanced":
        report = verify_theorem_anybalanced_small(seed=args.seed, strict=args.strict)
    elif args.suite == "m1bound":
        report = verify_lemma_m1_bound(seed=args.seed)
    else:  # 3colourfail
        report = verify_prop_3colourfail()
    payload = report.to_dict()
    payload["manifest"] = _manifest(args, [args.seed], [], t0)
    _emit(payload, args.json)
    print(
        f"suite {report.suite}: {report.instances} instances, "
        f"{len(report.failures)} failures -> {'PASS' if report.passed else 'FAIL'}",
        file=sys.stderr,
    )
    return 0 if report.passed else 1


def _cmd_experiment(args) -> int:
    t0 = time.perf_counter()
    pattern = get_pattern(args.pattern)
    rows = []
    hard_failure = False
    for eps in args.eps_list:
        for n in args.n_list:
            for seed in args.seeds:
                row = {"eps": str(eps), "n": n, "seed": seed}
                try:
                    rng = random.Random(seed)
                    G = sample_locally_balanced(n, 2, eps, rng)
                    if G is None:
                        row["status"] = "sampling-exhausted"
                        rows.append(row)
                        continue
                    prof = balance_profile(G)
                    row["epsilonLocal"] = str(prof.epsilon_local)
                    if n <= args.census_limit:
                        c = census_k4(G)
                        row["C4"] = c.count_c4
                        row["C4bar"] = c.count_c4bar
                        row["P3o"] = c.count_p3o
                    config = FinderConfig(seed=seed, max_partition_retries=args.retries,
                                          subset_search_budget=args.budget)
                    res = find_homogeneous_blowup(G, pattern, config, target_t=args.target_t)
                    row["achievedT"] = res.achieved_t
                    row["paperTargetT"] = round(res.asymptotic_target_t, 6)
                    row["status"] = "ok"
                except Exception as exc:  # recorded, run continues
                    row["status"] = f"error: {exc}"
                    hard_failure = True
                rows.append(row)
    payload = {"rows": rows, "manifest": _manifest(args, list(args.seeds), [], t0)}
    if args.csv:
        fields = ["eps", "n", "seed", "status", "epsilonLocal", "C4", "C4bar", "P3o",
                  "achievedT", "paperTargetT"]
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in fields})
        if args.csv == "-":
            sys.stdout.write(buf.getvalue())
        else:
            with open(args.csv, "w") as fh:
                fh.write(buf.getvalue())
    else:
        _emit(payload, args.json)
    return 1 if hard_failure else 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="localbalance",
        description="Locally balanced edge-colourings: generators, censuses, blow-up mining.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a named colouring as JSON")
    g.add_argument("--family", required=True,
                   choices=["pk", "split", "mcycle", "random", "balanced", "bipartite"])
    g.add_argument("--k", type=int, default=2, help="pk: block size")
    g.add_argument("--a", type=int, default=4)
    g.add_argument("--b", type=int, default=4)
    g.add_argument("--flips", type=int, default=0)
    g.add_argument("--parts", type=int, default=6, help="mcycle: number of parts (even)")
    g.add_argument("--part-size", type=int, default=2)
    g.add_argument("--n", type=int, default=16)
    g.add_argument("--r", type=int, default=2)
    g.add_argument("--n-side", type=int, default=10)
    g.add_argument("--eps", type=_fraction, default=Fraction(1, 5))
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--compact", action="store_true")
    g.add_argument("--out", default=None)
    g.set_defaults(func=_cmd_generate)

    c = sub.add_parser("census", help="K4 class census of a 2-coloured host")
    c.add_argument("graph")
    c.add_argument("--method", choices=["codegree", "reference"], default="codegree")
    c.add_argument("--max-n", type=int, default=1024)
    c.add_argument("--json", default=None)
    c.set_defaults(func=_cmd_census)

    f = sub.add_parser("find-blowup", help="extract a homogeneous blow-up")
    f.add_argument("graph")
    f.add_argument("--pattern", default="P3o")
    f.add_argument("--pattern-file", default=None,
                   help="JSON pattern (or a sample-unibalanced output) instead of a library name")
    f.add_argument("--target-t", type=int, default=None)
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--c", type=_fraction, default=Fraction(1, 8))
    f.add_argument("--retries", type=int, default=64)
    f.add_argument("--budget", type=int, default=200_000)
    f.add_argument("--json", default=None)
    f.set_defaults(func=_cmd_find_blowup)

    s = sub.add_parser("sample-unibalanced", help="Bernoulli sampling of unibalanced subsets")
    s.add_argument("graph")
    s.add_argument("--eps", type=_fraction, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--max-draws", type=int, default=64)
    s.add_argument("--json", default=None)
    s.set_defaults(func=_cmd_sample_unibalanced)

    m = sub.add_parser("min-unibalanced", help="smallest unibalanced induced subgraph")
    m.add_argument("graph")
    m.add_argument("--cap", type=int, default=8)
    m.add_argument("--json", default=None)
    m.set_defaults(func=_cmd_min_unibalanced)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", required=True,
                   choices=["cute", "p3c4", "optimize", "anybalanced", "m1bound", "3colourfail"])
    v.add_argument("--strict", action="store_true")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--json", default=None)
    v.set_defaults(func=_cmd_verify)

    e = sub.add_parser("experiment", help="sweep (eps, n, seed) cells")
    e.add_argument("--eps-list", type=_fraction_list, required=True)
    e.add_argument("--n-list", type=_int_list, required=True)
    e.add_argument("--pattern", default="C4")
    e.add_argument("--seeds", type=_int_list, default=[0])
    e.add_argument("--target-t", type=int, default=None)
    e.add_argument("--retries", type=int, default=32)
    e.add_argument("--budget", type=int, default=200_000)
    e.add_argument("--census-limit", type=int, default=1024)
    e.add_argument("--csv", default=None)
    e.add_argument("--json", default=None)
    e.set_defaults(func=_cmd_experiment)
    return p


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args.argv = argv  # recorded in every output manifest
    try:
        return args.func(args)
    except (GraphFormatError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

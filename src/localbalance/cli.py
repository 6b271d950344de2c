"""Command-line entry point: generate / census / find-blowup /
sample-unibalanced / min-unibalanced / verify / experiment.

main is the one runner: each _cmd_* handler only computes and returns
(payload, exit code); main adds the run manifest (command, argv, seeds,
input file hashes, version, wall time), writes the payload and prints each
error and warning as one stderr line.  Outputs are deterministic given the
same command, seeds and inputs, except for the manifest's wallTimeMs field,
the one timing in any output (verify reports included).
Exit codes: 0 pass, 1 assertion/suite failure or exhausted sampling, 2 usage
or I/O error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import random
import sys
import time
import warnings
from contextlib import nullcontext
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from . import __version__
from .blowup_finder import FinderConfig, find_homogeneous_blowup
from .census import CENSUS_MAX_N, BipartiteColouring, census_k4
from .constructions import (
    ResamplingBudgetExceeded,
    make_bipartite_mindeg,
    make_multicolour_cycle,
    make_Pk,
    make_random,
    make_split,
)
from .core import (
    ColouredCompleteGraph,
    _check_size,
    _read_graph_json,
    balance_profile,
    graph_from_json,
    graph_to_json,
)
from .multicolour import (
    SamplerConfig,
    min_unibalanced_subgraph,
    sample_unibalanced_subset,
)
from .patterns import TotallyColouredPattern, get_pattern, induced_edge_pattern, pattern_library
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


def _manifest(args: argparse.Namespace, t0: float) -> dict:
    """The run manifest, read off the parsed arguments and the loaders'
    input hashes.  The seeds are --seeds, else [--seed], else []."""
    opts = vars(args)
    seeds = list(opts["seeds"]) if "seeds" in opts else [opts["seed"]] if "seed" in opts else []
    return {
        "command": args.command,
        "argv": args.argv,
        "seeds": seeds,
        "inputHashes": args.input_hashes,
        "version": __version__,
        "wallTimeMs": round(1000 * (time.perf_counter() - t0), 1),
    }


# experiment --csv columns; a cell leaves the ones it did not reach empty
_CSV_FIELDS = ["eps", "n", "seed", "status", "epsilonLocal", "C4", "C4bar", "P3o",
               "achievedT", "paperTargetT"]


def _emit(payload: dict, args: argparse.Namespace) -> None:
    """Write the payload to --csv (experiment rows), --json or --out, or to
    stdout when the path is absent or "-"."""
    csv_path = vars(args).get("csv")
    path = csv_path or args.out
    with open(path, "w", newline="") if path and path != "-" else nullcontext(sys.stdout) as fh:
        if csv_path:
            writer = csv.DictWriter(fh, fieldnames=_CSV_FIELDS, restval="")
            writer.writeheader()
            writer.writerows(payload["rows"])
        else:
            fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# generate family -> (the options its builder reads, builder).  --seed and
# --out are shared; any other option given for a family that does not read it
# is refused.  Each builder checks its own arguments and host size before it
# allocates.  The builders here and the runners below look their functions up
# when called, so a test or tracer that rebinds a module global reaches them.
_FAMILIES = {
    "pk": (("k", "compact"), lambda a: make_Pk(a.k)),
    "split": (("a", "b", "flips", "compact"),
              lambda a: make_split(a.a, a.b, seed=a.seed, flips=a.flips)),
    "mcycle": (("parts", "part_size", "compact"),
               lambda a: make_multicolour_cycle(a.parts, a.part_size)),
    "random": (("n", "r", "compact"), lambda a: make_random(a.n, a.r, a.seed)),
    "balanced": (("n", "r", "eps", "compact"),
                 lambda a: sample_locally_balanced(a.n, a.r, a.eps, random.Random(a.seed))),
    "bipartite": (("n_side", "eps"), lambda a: make_bipartite_mindeg(a.n_side, a.eps, a.seed)),
}

# the family options' defaults; the parser leaves out the options not given
_GENERATE_DEFAULTS = {"k": 2, "a": 4, "b": 4, "flips": 0, "parts": 6, "part_size": 2,
                      "n": 16, "r": 2, "n_side": 10, "eps": Fraction(1, 5), "compact": False}

# verify suite -> runner
_SUITES = {
    "cute": lambda a: verify_prop_cute(),
    "p3c4": lambda a: verify_prop_many_p3c4(seed=a.seed),
    "optimize": lambda a: verify_prop_optimize(seed=a.seed),
    "anybalanced": lambda a: verify_theorem_anybalanced_small(seed=a.seed, strict=a.strict),
    "m1bound": lambda a: verify_lemma_m1_bound(seed=a.seed),
    "3colourfail": lambda a: verify_prop_3colourfail(),
}


def _load_graph(args) -> ColouredCompleteGraph:
    """The host in the file args.graph; the manifest hashes its bytes."""
    raw = Path(args.graph).read_bytes()
    args.input_hashes[args.graph] = hashlib.sha256(raw).hexdigest()
    return graph_from_json(_read_graph_json(raw))


def _load_pattern(args) -> TotallyColouredPattern:
    """The pattern in the file args.pattern_file, or under its "pattern" key;
    the manifest hashes its JSON without the wall time of its own "manifest"."""
    data = json.loads(Path(args.pattern_file).read_bytes())
    if isinstance(data, dict):
        data.pop("manifest", None)
    canonical = json.dumps(data, sort_keys=True).encode()
    args.input_hashes[args.pattern_file] = hashlib.sha256(canonical).hexdigest()
    if isinstance(data, dict):
        data = data.get("pattern", data)
    return TotallyColouredPattern.from_dict(data)


# --- subcommand handlers: each returns (payload, exit code) --------------

def _cmd_generate(args) -> tuple[dict, int]:
    reads, build = _FAMILIES[args.family]
    stray = [f"--{k.replace('_', '-')}" for k in _GENERATE_DEFAULTS
             if k in vars(args) and k not in reads]
    if stray:
        raise ValueError(f"--family {args.family} does not read {', '.join(stray)}")
    for k in reads:
        vars(args).setdefault(k, _GENERATE_DEFAULTS[k])
    host = build(args)
    if host is None:  # balanced rejection sampling ran out of draws
        raise ResamplingBudgetExceeded(f"could not sample a locally {args.eps}-balanced colouring")
    if isinstance(host, BipartiteColouring):
        return host.to_dict(), 0
    return graph_to_json(host, compact=args.compact), 0


def _cmd_census(args) -> tuple[dict, int]:
    G = _load_graph(args)
    if G.n > args.max_n:
        raise ValueError(f"census limited to n <= {args.max_n} (got n={G.n})")
    result = census_k4(G).to_dict()
    result["epsilonLocal"] = str(balance_profile(G).epsilon_local)
    return result, 0


def _cmd_find_blowup(args) -> tuple[dict, int]:
    G = _load_graph(args)
    pattern = _load_pattern(args) if args.pattern_file else get_pattern(args.pattern)
    config = FinderConfig(c=args.c, seed=args.seed, max_partition_retries=args.retries)
    res = find_homogeneous_blowup(G, pattern, config, target_t=args.target_t)
    payload = res.to_dict()
    payload["pattern"] = pattern.name or pattern.to_dict()
    missed = args.target_t is not None and res.achieved_t < args.target_t
    return payload, 1 if missed else 0


def _cmd_sample_unibalanced(args) -> tuple[dict, int]:
    G = _load_graph(args)
    config = SamplerConfig(eps=args.eps, r=G.r, max_draws=args.max_draws, seed=args.seed)
    got = sample_unibalanced_subset(G, config)
    payload = {
        "zeta": config.zeta,
        "C": config.size_cap,
        "S": list(got[0]) if got else None,
        "draws": got[1] if got else args.max_draws,
        "found": got is not None,
    }
    if got:
        # the induced pattern of the sampled subset; feeding this back into
        # find-blowup --pattern-file completes the sample -> extract ->
        # blow-up pipeline (patterns with more than 8 vertices are only
        # reported, the extractor does not accept them)
        payload["pattern"] = induced_edge_pattern(G, got[0]).to_dict()
    return payload, 0 if got else 1


def _cmd_min_unibalanced(args) -> tuple[dict, int]:
    G = _load_graph(args)
    witness = min_unibalanced_subgraph(G, cap=args.cap)
    payload = {
        "minSize": None if witness is None else len(witness),
        "S": None if witness is None else list(witness),
        "exceedsCap": witness is None,
        "cap": args.cap,
    }
    if witness is not None:
        # feeding this back into find-blowup --pattern-file completes the
        # smallest-unibalanced-subgraph -> blow-up pipeline
        payload["pattern"] = induced_edge_pattern(G, witness).to_dict()
    return payload, 0


def _cmd_verify(args) -> tuple[dict, int]:
    if args.strict and args.suite != "anybalanced":
        raise ValueError(f"--strict applies to --suite anybalanced only, not {args.suite}")
    report = _SUITES[args.suite](args)
    print(
        f"suite {report.suite}: {report.instances} instances, "
        f"{len(report.failures)} failures -> {'PASS' if report.passed else 'FAIL'}",
        file=sys.stderr,
    )
    return report.to_dict(), 0 if report.passed else 1


def _cmd_experiment(args) -> tuple[dict, int]:
    if args.csv and args.out:
        raise ValueError("give one of --csv and --json: experiment writes one output")
    pattern = get_pattern(args.pattern)
    config = FinderConfig(max_partition_retries=args.retries)
    for n in args.n_list:
        _check_size(n, 2)
        if CENSUS_MAX_N < n <= args.census_limit:
            raise ValueError(f"census statistics support n <= {CENSUS_MAX_N}, got n={n} "
                             f"under --census-limit {args.census_limit}")
    for eps in args.eps_list:
        if not 0 <= eps <= 1:
            raise ValueError(f"need every 0 <= eps <= 1, got {eps}")
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
                    res = find_homogeneous_blowup(G, pattern, replace(config, seed=seed),
                                                  target_t=args.target_t)
                    row["achievedT"] = res.achieved_t
                    row["paperTargetT"] = round(res.asymptotic_target_t, 6)
                    row["status"] = "ok"
                except Exception as exc:  # recorded, run continues
                    row["status"] = f"error: {exc}"
                    hard_failure = True
                rows.append(row)
    return {"rows": rows}, 1 if hard_failure else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args keeps no
    state between calls, and every default is immutable."""
    p = argparse.ArgumentParser(
        prog="localbalance",
        description="Locally balanced edge-colourings: generators, censuses, blow-up mining.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    pattern_names = sorted(pattern_library())

    g = sub.add_parser("generate", help="write a named colouring as JSON",
                       argument_default=argparse.SUPPRESS)
    g.add_argument("--family", required=True, choices=list(_FAMILIES))
    g.add_argument("--k", type=int, help="pk: block size")
    g.add_argument("--a", type=int)
    g.add_argument("--b", type=int)
    g.add_argument("--flips", type=int)
    g.add_argument("--parts", type=int, help="mcycle: number of parts (even)")
    g.add_argument("--part-size", type=int)
    g.add_argument("--n", type=int)
    g.add_argument("--r", type=int)
    g.add_argument("--n-side", type=int)
    g.add_argument("--eps", type=_fraction)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--compact", action="store_true")
    g.add_argument("--out", default=None)
    g.set_defaults(func=_cmd_generate)

    c = sub.add_parser("census", help="K4 class census of a 2-coloured host")
    c.add_argument("graph")
    c.add_argument("--max-n", type=int, default=1024)
    c.add_argument("--json", dest="out", default=None)
    c.set_defaults(func=_cmd_census)

    f = sub.add_parser("find-blowup", help="extract a homogeneous blow-up")
    f.add_argument("graph")
    f.add_argument("--pattern", default="P3o", choices=pattern_names)
    f.add_argument("--pattern-file", default=None,
                   help="JSON pattern (or a sample-unibalanced output) instead of a library name")
    f.add_argument("--target-t", type=int, default=None,
                   help="stop retrying partitions once t reaches this; exit 1 below it")
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--c", type=_fraction, default=Fraction(1, 8),
                   help="cap on the per-level cleanup threshold (also sets paperTargetT)")
    f.add_argument("--retries", type=int, default=64,
                   help="at most this many random equitable partitions")
    f.add_argument("--json", dest="out", default=None)
    f.set_defaults(func=_cmd_find_blowup)

    s = sub.add_parser("sample-unibalanced", help="Bernoulli sampling of unibalanced subsets")
    s.add_argument("graph")
    s.add_argument("--eps", type=_fraction, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--max-draws", type=int, default=64)
    s.add_argument("--json", dest="out", default=None)
    s.set_defaults(func=_cmd_sample_unibalanced)

    m = sub.add_parser("min-unibalanced", help="smallest unibalanced induced subgraph")
    m.add_argument("graph")
    m.add_argument("--cap", type=int, default=8)
    m.add_argument("--json", dest="out", default=None)
    m.set_defaults(func=_cmd_min_unibalanced)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", required=True, choices=list(_SUITES))
    v.add_argument("--strict", action="store_true")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--json", dest="out", default=None)
    v.set_defaults(func=_cmd_verify)

    e = sub.add_parser("experiment", help="sweep (eps, n, seed) cells")
    e.add_argument("--eps-list", type=_fraction_list, required=True)
    e.add_argument("--n-list", type=_int_list, required=True)
    e.add_argument("--pattern", default="C4", choices=pattern_names)
    e.add_argument("--seeds", type=_int_list, default=(0,))
    e.add_argument("--target-t", type=int, default=None,
                   help="stop retrying partitions once t reaches this")
    e.add_argument("--retries", type=int, default=32,
                   help="at most this many random equitable partitions")
    e.add_argument("--census-limit", type=int, default=1024)
    e.add_argument("--csv", default=None)
    e.add_argument("--json", dest="out", default=None)
    e.set_defaults(func=_cmd_experiment)
    return p


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args.argv = argv  # recorded in every output manifest
    args.input_hashes = {}  # input path -> SHA-256, filled in by the loaders
    t0 = time.perf_counter()
    try:
        with warnings.catch_warnings():
            warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
            payload, code = args.func(args)
            payload["manifest"] = _manifest(args, t0)
            _emit(payload, args)
        return code
    except (OSError, ValueError) as exc:  # GraphFormatError and JSONDecodeError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResamplingBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

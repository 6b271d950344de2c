"""The localbalance benchmark: seeded workloads driven through the CLI.

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

Closed loop, one client: one process per workload runs the workload's
command sequence through ``localbalance.cli.main(argv)`` in process, one
command at a time, and repeats the whole sequence while the next pass
still fits in ``--seconds``.  BLAS threads are capped at the CPU count
before numpy is imported.  Inputs are generated from ``--seed`` by a fresh
interpreter (the timed set-up), and the program sees only those files.

Every command's output is checked (see checks.py); a command that exits
non-zero or fails a check counts as failed.  The last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics of BENCHMARK.json (medians over
  passes; set-up is the median of SETUP_REPEATS fresh-interpreter runs);
* ``--trace 1``: one untraced and one traced pass; the per-layer metrics
  of BENCHMARK.json from spans around the package's public functions,
  plus the tracing overhead.  Spans are written to .perfbench/traces/.

Machine info and per-command times go to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from workloads import SCALES, WORKLOADS  # no package import: BLAS is capped first

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="localbalance CLI benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=SCALES, default="full",
                   help="small: reduced sizes, used by selftest.py")
    return p.parse_args(argv)


def _machine(nproc: int, seed: int, workload: str) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blasVersion": blas.get("version"),
        "blasThreadCap": nproc,
        "workload": workload,
        "seed": seed,
    }


def _timed_setup(args, workdir: str) -> float:
    """One fresh-interpreter run of gen_inputs.py; its wall time."""
    cmd = [sys.executable, str(HERE / "gen_inputs.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale, "--out", workdir]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"input generation failed:\n{proc.stderr}")
    return elapsed


class Pass:
    """One run of a workload's command sequence."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.problems: list[list[str]] = []
        self.normalised: list[str] = []
        self.outputs: list[dict | None] = []
        self.wall = 0.0


def _run_pass(cmds, checker, tracer=None) -> Pass:
    """Runs every command once (traced when a tracer is given), then checks."""
    from checks import normalised
    from localbalance import cli

    res = Pass()
    codes = []
    sink = io.StringIO()
    for cmd in cmds:
        if os.path.exists(cmd.out):
            os.remove(cmd.out)
    gc.collect()
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    for i, cmd in enumerate(cmds):
        saved_argv = sys.argv
        sys.argv = ["localbalance", *cmd.argv]
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                if tracer is None:
                    rc = cli.main(list(cmd.argv))
                else:
                    with tracer.span("cli.main", f"c{i}:{cmd.label}"):
                        rc = cli.main(list(cmd.argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crashing command is a failed command; keep going
            traceback.print_exc()
            rc = -1
        finally:
            sys.argv = saved_argv
        res.times.append(time.perf_counter() - t0)
        codes.append(rc)
    res.wall = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    for cmd, rc in zip(cmds, codes):
        out = None
        if rc == 0 and os.path.exists(cmd.out):
            with open(cmd.out) as fh:
                try:
                    out = json.load(fh)
                except json.JSONDecodeError:  # checked as "no output written"
                    out = None
        res.outputs.append(out)
        res.problems.append(checker.check(cmd, rc, out))
        res.normalised.append("" if out is None else normalised(out))
    if any(res.problems) and sink.getvalue():
        sys.stderr.write(sink.getvalue())
    return res


def _compare(cmds, first: Pass, other: Pass, expected: dict | None) -> None:
    """Adds problems to ``other``: outputs must repeat the first pass and,
    when given, the recorded fingerprints."""
    from checks import fingerprint

    for i, cmd in enumerate(cmds):
        if other is not first and other.normalised[i] != first.normalised[i]:
            other.problems[i].append("output differs from the first pass")
        if expected is not None:
            want = expected.get(cmd.label)
            got = fingerprint(cmd, other.outputs[i])
            if got != want:
                other.problems[i].append(f"fingerprint {got} != recorded {want}")


def _blowup_t(cmds, p: Pass) -> int:
    return sum(out["t"] for cmd, out in zip(cmds, p.outputs)
               if cmd.kind == "find-blowup" and out is not None)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    # SIGTERM raises KeyboardInterrupt, which no command handler catches, so a
    # terminated run still removes its work directory and its set-up child
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    if not (ROOT / "src" / "localbalance" / "__init__.py").is_file():
        print(f"error: no localbalance sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    sys.path.insert(0, str(ROOT / "src"))

    from checks import Checker, fingerprint
    from tracing import Tracer, layer_metrics
    from workloads import commands, write_inputs

    machine = _machine(nproc, args.seed, args.workload)
    cmds = commands(args.workload, args.seed, args.scale)
    expected = None
    if args.seed == 0:
        with open(HERE / "expected_seed0.json") as fh:
            expected = json.load(fh)[args.scale][args.workload]

    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    cwd = os.getcwd()
    try:
        setup_times: list[float] = []
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
            with tracer.span("bench.setup", "setup"):
                write_inputs(args.workload, args.seed, args.scale, workdir)
            tracer.uninstall()
        else:
            setup_times = [_timed_setup(args, workdir) for _ in range(SETUP_REPEATS)]
        os.chdir(workdir)
        checker = Checker(workdir)

        passes: list[Pass] = []
        if args.trace:
            passes.append(_run_pass(cmds, checker))
            passes.append(_run_pass(cmds, checker, tracer))
        else:
            deadline = time.perf_counter() + args.seconds
            while True:
                passes.append(_run_pass(cmds, checker))
                typical = statistics.median(p.wall for p in passes)
                if time.perf_counter() + typical > deadline:
                    break
        for p in passes:
            _compare(cmds, passes[0], p, expected)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(cmds) * len(passes)
    failed = sum(bool(pr) for p in passes for pr in p.problems)
    for p_i, p in enumerate(passes):
        for cmd, pr in zip(cmds, p.problems):
            for problem in pr:
                print(f"FAILED pass {p_i} {cmd.label}: {problem}", file=sys.stderr)

    if args.trace:
        untraced, traced = passes
        metrics = layer_metrics(tracer.spans)
        metrics["blowup_t"] = (_blowup_t(cmds, traced), "count")
        metrics["trace_overhead_s"] = (traced.wall - untraced.wall, "s")
    else:
        metrics = {
            "wall_s": (statistics.median(p.wall for p in passes), "s"),
            "slowest_cmd_s": (statistics.median(max(p.times) for p in passes), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "success_rate": ((attempted - failed) / attempted, "ratio"),
        }

    # human-readable report; the result JSON must stay the last line
    print(f"# machine {json.dumps(machine, sort_keys=True)}")
    print(f"# {args.workload} seed={args.seed} passes={len(passes)} "
          f"commands/pass={len(cmds)} attempted={attempted} failed={failed}")
    summary = dict(metrics)
    if not args.trace:
        summary["error_rate"] = (failed / attempted, "ratio")
        if any(c.kind == "find-blowup" for c in cmds):
            summary["blowup_t"] = (_blowup_t(cmds, passes[0]), "count")
    for name, (value, unit) in summary.items():
        print(f"# {name} = {value:.6g} {unit}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "machine": machine,
        "scale": args.scale,
        "trace": args.trace,
        "result": result,
        "setupTimes": setup_times,
        "passes": [
            {"wall": p.wall,
             "commands": [{"label": c.label, "seconds": t, "problems": pr,
                           "fingerprint": fingerprint(c, out), "output": norm}
                          for c, t, pr, out, norm in zip(cmds, p.times, p.problems,
                                                         p.outputs, p.normalised)]}
            for p in passes
        ],
    }
    stem = f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}"
    for sub in ("results", "traces"):
        (OUT_DIR / sub).mkdir(exist_ok=True)
    with open(OUT_DIR / "results" / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        tracer.dump(str(OUT_DIR / "traces" / f"{stem}.json"), {"machine": machine})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

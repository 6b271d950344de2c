"""Compare the benchmark commands' outputs between two source trees.

    python tests/compare_trees.py PARENT CHANGE [--seeds 0,1] [--scale full]

PARENT and CHANGE are checkouts of this repository.  The command list is
the benchmark's own, imported from perfbench/workloads.py next to this
script: every workload at each seed (20 commands a seed at full scale).
Each tree writes the workload's host files with its own package, and one
fresh interpreter per tree, workload and seed runs the commands through
``localbalance.cli.main`` in process, in order, as perfbench/run.py does.

Every host file (by its sha256), exit code, stdout and stderr text and
JSON output is compared, with the manifest's wallTimeMs removed.  Each
difference is listed on one line; the exit status is 1 if there is any,
else 0.  Two workers run at a time, one per tree.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from workloads import SCALES, WORKLOADS, commands, hosts, write_inputs  # noqa: E402


def run_tree(workload: str, seed: int, scale: str) -> dict:
    """Write the hosts and run the commands of one workload in a scratch
    directory, with the localbalance on sys.path; what each one left."""
    from localbalance import cli

    results = {}
    with tempfile.TemporaryDirectory() as workdir:
        write_inputs(workload, seed, scale, workdir)
        os.chdir(workdir)
        for h in hosts(workload, seed, scale):
            results[f"host {h.file}"] = hashlib.sha256(Path(h.file).read_bytes()).hexdigest()
        for cmd in commands(workload, seed, scale):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(list(cmd.argv))
                except SystemExit as exc:
                    code = exc.code
            output = None
            if os.path.exists(cmd.out):
                output = json.loads(Path(cmd.out).read_text())
                output.get("manifest", {}).pop("wallTimeMs", None)
            results[cmd.label] = {"exit": code, "stdout": out.getvalue(),
                                  "stderr": err.getvalue(), "output": output}
    return results


def run_in(tree: Path, workload: str, seed: int, scale: str) -> dict:
    """run_tree in a fresh interpreter that imports the package from tree/src."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    argv = [sys.executable, __file__, "--run", workload, str(seed), scale]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: {workload} seed {seed} crashed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def differences(parent: dict, change: dict) -> list[str]:
    """One line per entry that is missing from either side or differs."""
    lines = []
    for key in sorted(parent.keys() | change.keys()):
        old, new = parent.get(key), change.get(key)
        if old == new:
            continue
        if not isinstance(old, dict) or not isinstance(new, dict):
            lines.append(f"{key}: differs")
            continue
        fields = sorted(f for f in old.keys() | new.keys() if old.get(f) != new.get(f))
        lines.append(f"{key}: differs in {', '.join(fields)}")
    return lines


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--run"]:
        workload, seed, scale = argv[1], int(argv[2]), argv[3]
        sys.stdout.write(json.dumps(run_tree(workload, seed, scale)))
        return 0
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--seeds", default="0,1", help="comma-separated workload seeds")
    p.add_argument("--scale", choices=SCALES, default="full")
    args = p.parse_args(argv)
    trees = [args.parent.resolve(), args.change.resolve()]
    for tree in trees:
        if not (tree / "src" / "localbalance" / "__init__.py").is_file():
            p.error(f"no localbalance sources under {tree / 'src'}")
    found = compared = 0
    with ThreadPoolExecutor(max_workers=2) as pool:
        for seed in (int(s) for s in args.seeds.split(",") if s):
            for workload in WORKLOADS:
                old, new = pool.map(lambda tree: run_in(tree, workload, seed, args.scale), trees)
                compared += len(commands(workload, seed, args.scale))
                for line in differences(old, new):
                    print(f"{workload} seed {seed}: {line}")
                    found += 1
    print(f"{compared} commands compared, {found} differences")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())

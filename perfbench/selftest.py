"""Self-test of the benchmark at reduced sizes (about half a minute).

    python3 perfbench/selftest.py

For every workload, at the default seed and ``--scale small``, it runs the
benchmark untraced and traced and asserts that

* the last stdout line is the result object, every output check passed
  (including the values recorded from the seed commit) and no command
  failed;
* every metric BENCHMARK.json lists is printed by name with its unit,
  in the result object and in the human-readable lines above it;
* the traced run's CLI outputs equal the untraced run's, apart from the
  manifest's ``wallTimeMs``/``argv`` and the verify reports' own
  ``runtimeSeconds``.

It also checks that the benchmark fails without printing a result in a
directory that holds only BENCHMARK.json and the benchmark's files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace), "--scale", "small"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=180)


def _check_result(workload: str, trace: int) -> None:
    proc = _run(workload, trace)
    assert proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1

    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}, \
        set(result["metrics"]) ^ {m["name"] for m in spec}
    human = {line.split(" = ")[0][2:]: line for line in lines[:-1] if " = " in line}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got["unit"])
        assert isinstance(got["value"], (int, float)), m["name"]
        assert human[m["name"]].endswith(f" {m['unit']}"), human.get(m["name"])
    if not trace:
        assert human["error_rate"] == "# error_rate = 0 ratio", human["error_rate"]
    print(f"ok   {workload} trace={trace}: {result['attempted']} commands checked")


def _outputs(workload: str, trace: int) -> list[str]:
    path = ROOT / ".perfbench" / "results" / f"{workload}-small-seed0-trace{trace}.json"
    record = json.loads(path.read_text())
    return [c["output"] for c in record["passes"][-1]["commands"]]


def _check_bare_directory() -> None:
    """Without the package sources the benchmark must fail without a result."""
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".perfbench"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(WORKLOADS[0], 0, cwd=bare)
        assert proc.returncode != 0, "benchmark succeeded without sources"
        assert '"metrics"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok   bare directory: exits non-zero without a result")


def main() -> int:
    for workload in WORKLOADS:
        for trace in (0, 1):
            _check_result(workload, trace)
        untraced, traced = _outputs(workload, 0), _outputs(workload, 1)
        assert untraced == traced, f"{workload}: traced outputs differ from untraced"
        print(f"ok   {workload}: traced and untraced outputs identical")
    _check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())

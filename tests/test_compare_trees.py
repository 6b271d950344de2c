"""tests/compare_trees.py names each benchmark output that a changed tree
moves, and nothing that it leaves alone."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_a_new_version_moves_every_output_and_nothing_else(tmp_path):
    # the version is in every output's manifest; hosts, exit codes and
    # streams stay the same
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    init = tmp_path / "src" / "localbalance" / "__init__.py"
    init.write_text(init.read_text().replace('__version__ = "0.1.0"', '__version__ = "0.1.1"'))
    argv = [sys.executable, str(ROOT / "tests" / "compare_trees.py"), str(ROOT), str(tmp_path),
            "--scale", "small", "--seeds", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True)
    assert proc.returncode == 1, proc.stderr
    *lines, summary = proc.stdout.splitlines()
    assert summary == "14 commands compared, 14 differences"
    assert len(lines) == 14 and all(line.endswith(": differs in output") for line in lines)

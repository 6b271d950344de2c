"""The benchmark's blowup workload pins its seed-0 outputs at full scale
(random and P_k hosts at n = 256) in perfbench/expected_seed0.json; the
golden finder tests only reach n = 64.  This reads perfbench/workloads.py
and that file (without changing either), writes the workload's hosts into a
temporary directory and runs its commands through cli.main, so a change to
the n = 256 witnesses fails here and not only in a benchmark run."""

import importlib.util
import json
import os
import sys
from pathlib import Path

from localbalance.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_seed0_blowup_fingerprints_at_full_scale(tmp_path, monkeypatch, capsys):
    workloads = load_workloads(monkeypatch)
    expected = json.loads((PERFBENCH / "expected_seed0.json").read_text())["full"]["blowup"]
    workloads.write_inputs("blowup", 0, "full", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    cmds = workloads.commands("blowup", 0, "full")
    assert sorted(cmd.label for cmd in cmds) == sorted(expected)
    for cmd in cmds:
        assert main(list(cmd.argv)) == 0, cmd.label
        with open(os.path.join(tmp_path, cmd.out)) as fh:
            out = json.load(fh)
        want = expected[cmd.label]
        assert {key: out[key] for key in want} == want, cmd.label
    capsys.readouterr()

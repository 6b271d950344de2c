"""The golden CLI outputs: hosts, commands, and the script that rewrites them.

Each case runs one CLI command in process, in a directory that holds the
hosts under fixed relative names, so that the manifest's argv and
inputHashes do not depend on where the directory is.  The cases run in
order in one directory: a later case may read a file an earlier one wrote.
A case records its exit code, stdout, stderr and every file it names after
--json, --csv or --out (None for a file it did not write).  JSON text is
kept parsed, without the manifest's wallTimeMs, when it is exactly the
indented, key-sorted dump of what it parses to; any other text is kept as
it is.

Rewrite the files, after a change that is meant to move an output:

    PYTHONPATH=src python tests/golden/regenerate.py
"""

from __future__ import annotations

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from localbalance import graph_to_json, make_multicolour_cycle, make_Pk, make_random
from localbalance.cli import main

GOLDEN = Path(__file__).resolve().parent

BAD_PATTERN = {"l": 3, "r": 2, "vertexColours": [0, 0, 0], "edges": [[0, 1, 1], [1, 2, 1]]}
# l = 1: the copy build's one row lists every vertex; l = 2: its top level
# has zero-width heads
ONE_VERTEX = {"l": 1, "r": 2, "vertexColours": [0], "edges": []}
TWO_VERTEX = {"l": 2, "r": 2, "vertexColours": [0, 1], "edges": [[0, 1, 1]]}

# name -> argv, run in this order
CASES = {
    "generate-pk-compact": ["generate", "--family", "pk", "--k", "2", "--compact"],
    "generate-split": ["generate", "--family", "split", "--a", "3", "--b", "4", "--flips", "2",
                       "--seed", "1"],
    "generate-random-r3": ["generate", "--family", "random", "--n", "6", "--r", "3", "--seed", "2"],
    "generate-bipartite": ["generate", "--family", "bipartite", "--n-side", "4", "--eps", "1/4",
                           "--seed", "1"],
    # rejection sampling: its draws end in draw_below's scalar tail
    "generate-balanced": ["generate", "--family", "balanced", "--n", "32", "--r", "2", "--eps",
                          "0.3", "--seed", "1"],
    "generate-mcycle": ["generate", "--family", "mcycle", "--parts", "8", "--part-size", "3"],
    "census-random": ["census", "random24.json"],
    "census-pk-compact": ["census", "pk6.json"],
    "census-random130": ["census", "random130.json"],
    # P_24 (n = 96): the degree order leaves monochromatic-K4 forward blocks
    # on both sides of the stacking bound
    "census-pk24": ["census", "pk24.json"],
    "find-blowup-C4": ["find-blowup", "random24.json", "--pattern", "C4", "--retries", "8"],
    "find-blowup-P3o": ["find-blowup", "random24.json", "--pattern", "P3o", "--seed", "1",
                        "--retries", "8", "--target-t", "2"],
    "find-blowup-P3o-pk": ["find-blowup", "pk6.json", "--pattern", "P3o", "--retries", "4"],
    "find-blowup-P3o-pk48": ["find-blowup", "pk48.json", "--pattern", "P3o", "--retries", "1"],
    "min-unibalanced": ["min-unibalanced", "mcycle.json", "--json", "min.json"],
    "min-unibalanced-random": ["min-unibalanced", "random24.json", "--cap", "5"],
    "find-blowup-pattern-file": ["find-blowup", "mcycle.json", "--pattern-file", "min.json",
                                 "--retries", "16"],
    "find-blowup-one-vertex": ["find-blowup", "random24.json", "--pattern-file", "onevertex.json",
                               "--retries", "3"],
    "find-blowup-two-vertex": ["find-blowup", "random24.json", "--pattern-file", "twovertex.json",
                               "--retries", "3"],
    "sample-unibalanced": ["sample-unibalanced", "mcycle.json", "--eps", "1/6", "--seed", "1"],
    "sample-unibalanced-warning": ["sample-unibalanced", "pk6.json", "--eps", "1/3"],
    **{f"verify-{suite}": ["verify", "--suite", suite, "--seed", "0"]
       for suite in ("cute", "p3c4", "optimize", "anybalanced", "m1bound", "3colourfail")},
    **{f"verify-{suite}-seed1": ["verify", "--suite", suite, "--seed", "1"]
       for suite in ("p3c4", "optimize", "anybalanced", "m1bound")},
    "experiment-json": ["experiment", "--eps-list", "1/4", "--n-list", "12", "--seeds", "0",
                        "--retries", "4", "--json", "exp.json"],
    "experiment-csv": ["experiment", "--eps-list", "1/4", "--n-list", "12", "--seeds", "0",
                       "--retries", "4", "--csv", "exp.csv"],
    "refused-missing-host": ["census", "missing.json"],
    "refused-malformed-host": ["census", "bad.json"],
    "refused-census-size": ["census", "random24.json", "--max-n", "10"],
    "refused-bad-pattern-file": ["find-blowup", "random24.json", "--pattern-file", "badpat.json"],
    "refused-random-too-large": ["generate", "--family", "random", "--n", "5000"],
    "refused-split-too-large": ["generate", "--family", "split", "--a", "4000", "--b", "97"],
    "refused-mcycle-too-large": ["generate", "--family", "mcycle", "--parts", "6",
                                 "--part-size", "683"],
    "refused-bipartite-too-large": ["generate", "--family", "bipartite", "--n-side", "2049"],
    "refused-mcycle-odd-and-too-large": ["generate", "--family", "mcycle", "--parts", "3",
                                         "--part-size", "2000"],
    "refused-experiment-csv-and-json": ["experiment", "--eps-list", "1/4", "--n-list", "12",
                                        "--csv", "exp2.csv", "--json", "exp2.json"],
    "refused-verify-strict-cute": ["verify", "--suite", "cute", "--strict"],
    "refused-verify-seed-cute": ["verify", "--suite", "cute", "--seed", "5"],
    "refused-sample-r-above-inverse-eps": ["sample-unibalanced", "mcycle.json", "--eps", "1/2"],
}

_OUTPUT_OPTIONS = ("--json", "--csv", "--out")


def write_inputs(workdir: Path) -> None:
    """The hosts and pattern files the cases read, built by the library."""
    hosts = {
        "random24.json": graph_to_json(make_random(24, 2, 0)),
        "random130.json": graph_to_json(make_random(130, 2, 0)),  # three census row blocks
        "pk6.json": graph_to_json(make_Pk(6), compact=True),
        "pk24.json": graph_to_json(make_Pk(24), compact=True),
        "pk48.json": graph_to_json(make_Pk(48), compact=True),
        "mcycle.json": graph_to_json(make_multicolour_cycle(6, 4)),
    }
    for name, data in hosts.items():
        (workdir / name).write_text(json.dumps(data))
    (workdir / "bad.json").write_text('{"n": 3, "r": 2, "edges": [[0, 1, 0], [0, 0, 1]]}')
    (workdir / "badpat.json").write_text(json.dumps(BAD_PATTERN))
    (workdir / "onevertex.json").write_text(json.dumps(ONE_VERTEX))
    (workdir / "twovertex.json").write_text(json.dumps(TWO_VERTEX))


def normalised(text: str) -> object:
    """text parsed, without the manifest's wallTimeMs, when it is the CLI's
    JSON dump of an object; else text itself."""
    try:
        data = json.loads(text)
    except ValueError:
        return text
    if not isinstance(data, dict) or json.dumps(data, indent=2, sort_keys=True) + "\n" != text:
        return text
    data.get("manifest", {}).pop("wallTimeMs", None)
    return data


def run_case(argv: list[str]) -> dict:
    """One command's record; the current directory holds its inputs."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse refusals
            code = exc.code
    paths = [Path(argv[i + 1]) for i, a in enumerate(argv[:-1])
             if a in _OUTPUT_OPTIONS and argv[i + 1] != "-"]
    files = {str(p): normalised(p.read_text()) if p.exists() else None for p in paths}
    return {"argv": argv, "exitCode": code, "stdout": normalised(out.getvalue()),
            "stderr": err.getvalue(), "files": files}


def run_cases(workdir: Path) -> dict[str, dict]:
    """Every case's record, run in order in workdir."""
    write_inputs(workdir)
    home = os.getcwd()
    os.chdir(workdir)
    try:
        return {name: run_case(argv) for name, argv in CASES.items()}
    finally:
        os.chdir(home)


def main_regenerate() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        records = run_cases(Path(tmp))
    for stale in GOLDEN.glob("*.json"):
        stale.unlink()
    for name, record in records.items():
        (GOLDEN / f"{name}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(records)} golden files to {GOLDEN}")


if __name__ == "__main__":
    main_regenerate()

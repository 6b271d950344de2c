"""Output checks for the benchmark's CLI commands.

``check`` applies facts that hold for any seed; ``fingerprint`` extracts
the values that must equal the ones recorded from the seed commit at the
default seed (census counts, witnesses, minimal subsets, suite verdicts).
The checks hold references to the package's functions taken at import,
before any tracing wrapper is installed, so they never add spans.
"""

from __future__ import annotations

import json
import os
from math import comb

from localbalance.core import graph_from_json
from localbalance.multicolour import induced_unibalanced
from localbalance.patterns import (
    BlowupWitness,
    TotallyColouredPattern,
    get_pattern,
    verify_witness,
)

from workloads import Command

# manifest fields that differ between runs of the same command; verify
# reports also carry their own timing
VOLATILE_MANIFEST = ("wallTimeMs", "argv")
VOLATILE_TOP = ("runtimeSeconds",)


def normalised(out: dict) -> str:
    """The output with its timing fields removed, as canonical JSON."""
    out = dict(out)
    for key in VOLATILE_TOP:
        out.pop(key, None)
    if "manifest" in out:
        out["manifest"] = {k: v for k, v in out["manifest"].items()
                           if k not in VOLATILE_MANIFEST}
    return json.dumps(out, sort_keys=True)


class Checker:
    """Checks outputs inside one work directory; loads each host once."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self._graphs: dict = {}

    def _graph(self, name: str):
        if name not in self._graphs:
            with open(os.path.join(self.workdir, name)) as fh:
                self._graphs[name] = graph_from_json(json.load(fh))
        return self._graphs[name]

    def check(self, cmd: Command, rc: int, out: dict | None) -> list[str]:
        """Problems found with one command's exit code and output."""
        if rc != 0:
            return [f"exit code {rc}"]
        if out is None:
            return ["no output written"]
        check = {
            "census": _check_census,
            "find-blowup": self._check_blowup,
            "min-unibalanced": self._check_min_unibalanced,
            "verify": _check_verify,
        }[cmd.kind]
        try:
            return check(cmd, out)
        # missing fields, wrong types and structurally broken witnesses
        # (InvalidWitnessError is a ValueError) are failed checks
        except (KeyError, TypeError, ValueError) as exc:
            return [f"malformed output: {exc!r}"]

    def _check_blowup(self, cmd: Command, out: dict) -> list[str]:
        t, parts = out["t"], out["parts"]
        if t < cmd.expect.get("minT", 0):
            return [f"achieved t={t} < {cmd.expect['minT']}"]
        if t == 0:
            return [] if parts == [] else ["t=0 with a nonempty witness"]
        if cmd.pattern_file:
            with open(os.path.join(self.workdir, cmd.pattern_file)) as fh:
                data = json.load(fh)
            pattern = TotallyColouredPattern.from_dict(data.get("pattern", data))
        else:
            pattern = get_pattern(cmd.argv[cmd.argv.index("--pattern") + 1])
        w = BlowupWitness(pattern, tuple(tuple(p) for p in parts), t, homogeneous=True)
        if not verify_witness(self._graph(cmd.host), w):
            return [f"witness with t={t} fails verify_witness"]
        return []

    def _check_min_unibalanced(self, cmd: Command, out: dict) -> list[str]:
        problems = []
        if out["minSize"] != cmd.expect["minSize"]:
            problems.append(f"minSize {out['minSize']} != {cmd.expect['minSize']}")
        S = out["S"] or []
        if len(S) != out["minSize"] or not S or not induced_unibalanced(self._graph(cmd.host), S):
            problems.append(f"S={S} is not a unibalanced set of size minSize")
        return problems


def _check_census(cmd: Command, out: dict) -> list[str]:
    n = cmd.expect["n"]
    problems = []
    if out["n"] != n:
        problems.append(f"n={out['n']} != {n}")
    if sum(out["classes"].values()) != comb(n, 4):
        problems.append(f"class counts sum to {sum(out['classes'].values())} != C({n},4)")
    if cmd.expect.get("noC4") and (out["C4"] or out["C4bar"]):
        problems.append(f"P_k host has C4={out['C4']} C4bar={out['C4bar']}, expected 0")
    return problems


def _check_verify(cmd: Command, out: dict) -> list[str]:
    problems = []
    if out["passed"] is not True:
        problems.append(f"suite failed with {len(out['failures'])} failures")
    want = cmd.expect.get("instances")
    if want is not None and out["instances"] != want:
        problems.append(f"{out['instances']} instances != {want}")
    return problems


FINGERPRINT_FIELDS = {
    "census": ("classes",),
    "find-blowup": ("t", "parts"),
    "min-unibalanced": ("minSize", "S"),
    "verify": ("passed", "instances"),
}


def fingerprint(cmd: Command, out: dict | None) -> dict | None:
    """The output values compared with the seed commit's at the default seed."""
    if out is None:
        return None
    return {k: out.get(k) for k in FINGERPRINT_FIELDS[cmd.kind]}

"""Seeded inputs and CLI command sequences of the benchmark workloads.

Each workload is a list of hosts (written as graph JSON before the first
timed command) and a list of `localbalance` CLI commands that read them.
Everything is a pure function of (workload, seed, scale): the same seed
gives byte-identical input files and the same argv lists.

``scale="full"`` is what the benchmark measures; ``scale="small"`` keeps
the same command shapes at reduced sizes for the self-test (its suites
run one seed each and skip ``optimize``, which alone takes ~20 s).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

WORKLOADS = ("census", "blowup", "suites")
SCALES = ("full", "small")


@dataclass(frozen=True)
class Host:
    """One generated input graph: ``family`` names the constructor."""

    file: str
    family: str  # "random" | "pk" | "split" | "mcycle"
    params: tuple[int, ...]
    compact: bool = False


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the seed-independent facts its output must meet."""

    label: str
    argv: tuple[str, ...]
    host: str | None = None      # host file the command reads, if any
    pattern_file: str | None = None
    expect: dict = field(default_factory=dict)

    @property
    def kind(self) -> str:
        return self.argv[0]

    @property
    def out(self) -> str:
        return self.argv[self.argv.index("--json") + 1]


# host sizes per scale: census (random n, Pk k, split a=b, split flips),
# blowup (random n, Pk k, cycle part sizes)
_SIZES = {
    "full": {"census": (512, 96, 192, 2000), "blowup": (256, 64, (8, 3), (6, 6))},
    "small": {"census": (40, 8, 16, 40), "blowup": (48, 8, (6, 2), (4, 3))},
}


def hosts(workload: str, seed: int, scale: str = "full") -> list[Host]:
    if workload == "census":
        n, k, half, flips = _SIZES[scale]["census"]
        return [
            Host(f"random{n}.json", "random", (n, seed)),
            Host(f"pk{4 * k}.json", "pk", (k,), compact=True),
            Host(f"split{2 * half}.json", "split", (half, half, seed, flips)),
        ]
    if workload == "blowup":
        n, k, (l1, m1), (l2, m2) = _SIZES[scale]["blowup"]
        return [
            Host(f"random{n}.json", "random", (n, seed)),
            Host(f"pk{4 * k}.json", "pk", (k,), compact=True),
            Host(f"mcycle{l1}x{m1}.json", "mcycle", (l1, m1)),
            Host(f"mcycle{l2}x{m2}.json", "mcycle", (l2, m2)),
        ]
    if workload == "suites":
        return []
    raise ValueError(f"unknown workload {workload!r}")


def commands(workload: str, seed: int, scale: str = "full") -> list[Command]:
    hs = hosts(workload, seed, scale)
    if workload == "census":
        pk = hs[1].file
        return [
            Command(
                f"census:{h.file}",
                ("census", h.file, "--max-n", "512", "--json", f"out-{h.file}"),
                host=h.file,
                expect={"n": _host_n(h), "noC4": h.file == pk},
            )
            for h in hs
        ]
    if workload == "blowup":
        rnd, pk, cyc_a, cyc_b = hs
        s = str(seed)

        def find(h: Host, pattern: str, out: str) -> Command:
            argv = ("find-blowup", h.file, "--pattern", pattern,
                    "--retries", "4", "--seed", s, "--json", out)
            return Command(f"find-blowup:{pattern}:{h.file}", argv, host=h.file,
                           expect={"minT": 1})

        min_b = f"min-{cyc_b.file}"
        return [
            find(rnd, "C4", "blowup-c4-random.json"),
            find(rnd, "P3o", "blowup-p3o-random.json"),
            find(pk, "P3o", "blowup-p3o-pk.json"),
            Command(f"min-unibalanced:{cyc_a.file}",
                    ("min-unibalanced", cyc_a.file, "--cap", "8", "--json", f"min-{cyc_a.file}"),
                    host=cyc_a.file, expect={"minSize": cyc_a.params[0]}),
            Command(f"min-unibalanced:{cyc_b.file}",
                    ("min-unibalanced", cyc_b.file, "--cap", "8", "--json", min_b),
                    host=cyc_b.file, expect={"minSize": cyc_b.params[0]}),
            # the README's composed pipeline: minimal unibalanced subgraph ->
            # its induced pattern -> homogeneous blow-up of that pattern
            Command(f"find-blowup:pattern-file:{cyc_b.file}",
                    ("find-blowup", cyc_b.file, "--pattern-file", min_b,
                     "--retries", "4", "--seed", s, "--json", "blowup-pipeline.json"),
                    host=cyc_b.file, pattern_file=min_b),
        ]
    if workload == "suites":
        def suite(name: str, suite_seed: int | None, instances: int | None) -> Command:
            argv = ("verify", "--suite", name)
            label = f"verify:{name}"
            if suite_seed is not None:
                argv += ("--seed", str(suite_seed))
                label += f":{suite_seed}"
            out = label.replace(":", "-") + ".json"
            expect = {} if instances is None else {"instances": instances}
            return Command(label, argv + ("--json", out), expect=expect)

        # instance counts are fixed by each suite's default parameters;
        # anybalanced may skip samples when rejection sampling stalls
        p3c4_seeds, m1_seeds, any_seeds = (4, 2, 2) if scale == "full" else (1, 1, 1)
        cmds = [suite("optimize", None, 679)] if scale == "full" else []
        cmds += [suite("p3c4", seed + i, 307) for i in range(p3c4_seeds)]
        cmds += [suite("m1bound", seed + i, 300) for i in range(m1_seeds)]
        cmds += [suite("cute", None, 1854), suite("3colourfail", None, 4)]
        cmds += [suite("anybalanced", seed + i, None) for i in range(any_seeds)]
        return cmds
    raise ValueError(f"unknown workload {workload!r}")


def _host_n(h: Host) -> int:
    if h.family == "random":
        return h.params[0]
    if h.family == "pk":
        return 4 * h.params[0]
    if h.family == "split":
        return h.params[0] + h.params[1]
    return h.params[0] * h.params[1]


def build_host(h: Host):
    """The ColouredCompleteGraph a host entry describes."""
    from localbalance.constructions import (
        make_multicolour_cycle,
        make_Pk,
        make_random,
        make_split,
    )

    if h.family == "random":
        n, seed = h.params
        return make_random(n, 2, seed)
    if h.family == "pk":
        return make_Pk(*h.params)
    if h.family == "split":
        a, b, seed, flips = h.params
        return make_split(a, b, seed=seed, flips=flips)
    if h.family == "mcycle":
        return make_multicolour_cycle(*h.params)
    raise ValueError(f"unknown host family {h.family!r}")


def write_inputs(workload: str, seed: int, scale: str, outdir: str) -> None:
    """Generate every host of the workload and write it as graph JSON."""
    from localbalance.core import graph_to_json

    for h in hosts(workload, seed, scale):
        obj = graph_to_json(build_host(h), compact=h.compact)
        with open(os.path.join(outdir, h.file), "w") as fh:
            json.dump(obj, fh)

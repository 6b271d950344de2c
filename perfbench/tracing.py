"""Spans around calls into localbalance's modules, recorded from outside.

The tracer replaces each listed public function with a wrapper that
records a span (name, start, end, parent span, command id, counters).
Every module of the package that holds the function under any name -
including ``from .x import y`` copies in ``cli``, ``verify`` and
``blowup_finder`` - is re-bound, and ``uninstall`` restores the originals.
Per-pair accessors (``ColouredCompleteGraph.colour``, ``neighbours``) are
never wrapped: they run millions of times and the wrapper cost would
swamp the trace.

Spans stay in memory until ``dump``; ``layer_metrics`` turns them into the
benchmark's per-layer metrics, with self time = span duration minus the
time its direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from math import comb

PACKAGE = "localbalance"


def _census_note(args, kwargs, result) -> dict:
    counts = result.counts
    return {"quads": comb(result.n, 4), "monoK4": counts["000000"] + counts["111111"]}


def _edges_note(args, kwargs, result) -> dict:
    edges = kwargs["edges"] if "edges" in kwargs else args[-1]
    return {"edges": len(edges)}


def _kst_note(args, kwargs, result) -> dict:
    return {"exact": int(result is not None and result.mode == "exact")}


def _closeness_note(args, kwargs, result) -> dict:
    G = args[0] if args else kwargs["G"]
    return {"subsets": 2 ** G.n if result.mode == "exact" else 0}


# (module, attribute path, counter function) for every traced call
TARGETS = (
    ("core", "graph_from_json", None),
    ("core", "ColouredCompleteGraph.__init__", None),
    ("core", "balance_profile", None),
    ("census", "census_k4", _census_note),
    ("census", "count_m1", None),
    ("blowup_finder", "find_homogeneous_blowup", None),
    ("blowup_finder", "CanonicalHypergraph.from_edges", _edges_note),
    ("blowup_finder", "hypergraph_cover", None),
    ("blowup_finder", "min_degree_cleanup", None),
    ("blowup_finder", "kst_star", _kst_note),
    ("blowup_finder", "ramsey_clique", None),
    ("patterns", "verify_witness", None),
    ("patterns", "find_pattern_blowup_exhaustive", None),
    ("constructions", "closeness_to_split", _closeness_note),
    ("constructions", "make_random", None),
    ("constructions", "make_split", None),
    ("multicolour", "min_unibalanced_subgraph", None),
    ("verify", "sample_locally_balanced", None),
    ("verify", "verify_prop_cute", None),
    ("verify", "verify_prop_many_p3c4", None),
    ("verify", "verify_prop_optimize", None),
    ("verify", "verify_lemma_m1_bound", None),
    ("verify", "verify_prop_3colourfail", None),
    ("verify", "verify_theorem_anybalanced_small", None),
)

COMMAND_SPAN = "cli.main"


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self) -> None:
        # span: [name, start, end, parent index, command id, counters]
        self.spans: list[list] = []
        self.command: str | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, command: str):
        """A span opened by the benchmark itself (one per CLI command)."""
        self.command = command
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else None,
               command, None]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
            self.command = None

    def _wrap(self, name: str, fn, note):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else None, tracer.command, None]
            spans.append(rec)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if note is not None:
                rec[5] = note(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for mod_name, path, note in TARGETS:
            mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
            name = f"{mod_name}.{path}"
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__, note))
                else:
                    new = self._wrap(name, raw, note)
                self._restore.append((cls, attr, raw))
                setattr(cls, attr, new)
                continue
            orig = getattr(mod, path)
            wrapper = self._wrap(name, orig, note)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._restore.append((m, attr, orig))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def dump(self, path: str, extra: dict) -> None:
        keys = ("name", "start", "end", "parent", "command", "counters")
        with open(path, "w") as fh:
            json.dump({**extra, "spans": [dict(zip(keys, s)) for s in self.spans]}, fh)


def layer_metrics(spans: list[list]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (value, unit) from recorded spans.

    A ``*_s`` total sums span durations; of the traced functions only
    ``hypergraph_cover`` calls itself, and it is reported by self time.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] is not None:
            child_time[s[3]] += s[2] - s[1]
    total: dict[str, float] = defaultdict(float)
    self_t: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counters: dict[tuple[str, str], int] = defaultdict(int)
    top_copies = 0
    for i, s in enumerate(spans):
        name, start, end, parent = s[0], s[1], s[2], s[3]
        calls[name] += 1
        total[name] += end - start
        self_t[name] += (end - start) - child_time[i]
        for key, value in (s[5] or {}).items():
            counters[name, key] += value
        # top-level builds hold the canonical copies of one partition
        if name == "blowup_finder.CanonicalHypergraph.from_edges" and s[5] and \
                parent is not None and spans[parent][0] == "blowup_finder.find_homogeneous_blowup":
            top_copies += s[5]["edges"]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    census_s = total["census.census_k4"]
    kst_calls = calls["blowup_finder.kst_star"]
    verify_self = sum((v for k, v in self_t.items() if k.startswith("verify.")), 0.0)
    s, n = "s", "count"
    return {
        "cli.self_s": (self_t[COMMAND_SPAN], s),
        "core.graph_from_json_s": (total["core.graph_from_json"], s),
        "core.graph_init_s": (total["core.ColouredCompleteGraph.__init__"], s),
        "core.graph_init_calls": (calls["core.ColouredCompleteGraph.__init__"], n),
        "core.balance_profile_s": (total["core.balance_profile"], s),
        "census.census_k4_s": (census_s, s),
        "census.census_k4_calls": (calls["census.census_k4"], n),
        "census.census_k4_ms_per_call": (1000 * ratio(census_s, calls["census.census_k4"]), "ms"),
        "census.quads_per_s": (ratio(counters["census.census_k4", "quads"], census_s), "1/s"),
        "census.mono_k4": (counters["census.census_k4", "monoK4"], n),
        "census.count_m1_s": (total["census.count_m1"], s),
        "census.count_m1_calls": (calls["census.count_m1"], n),
        "blowup_finder.find_s": (total["blowup_finder.find_homogeneous_blowup"], s),
        "blowup_finder.find_self_s": (self_t["blowup_finder.find_homogeneous_blowup"], s),
        "blowup_finder.hypergraph_build_s": (total["blowup_finder.CanonicalHypergraph.from_edges"], s),
        "blowup_finder.hypergraph_edges": (counters["blowup_finder.CanonicalHypergraph.from_edges", "edges"], n),
        "blowup_finder.copies": (top_copies, n),
        "blowup_finder.cover_self_s": (self_t["blowup_finder.hypergraph_cover"], s),
        "blowup_finder.cleanup_s": (total["blowup_finder.min_degree_cleanup"], s),
        "blowup_finder.kst_star_s": (total["blowup_finder.kst_star"], s),
        "blowup_finder.kst_star_calls": (kst_calls, n),
        "blowup_finder.kst_exact_ratio": (ratio(counters["blowup_finder.kst_star", "exact"], kst_calls), "ratio"),
        "blowup_finder.ramsey_s": (total["blowup_finder.ramsey_clique"], s),
        "blowup_finder.ramsey_calls": (calls["blowup_finder.ramsey_clique"], n),
        "patterns.verify_witness_s": (total["patterns.verify_witness"], s),
        "patterns.verify_witness_calls": (calls["patterns.verify_witness"], n),
        "patterns.exhaustive_search_s": (total["patterns.find_pattern_blowup_exhaustive"], s),
        "constructions.closeness_s": (total["constructions.closeness_to_split"], s),
        "constructions.closeness_calls": (calls["constructions.closeness_to_split"], n),
        "constructions.closeness_subsets": (counters["constructions.closeness_to_split", "subsets"], n),
        "constructions.make_random_s": (total["constructions.make_random"], s),
        "constructions.make_split_s": (total["constructions.make_split"], s),
        "multicolour.min_unibalanced_s": (total["multicolour.min_unibalanced_subgraph"], s),
        "multicolour.min_unibalanced_calls": (calls["multicolour.min_unibalanced_subgraph"], n),
        "verify.sample_locally_balanced_s": (total["verify.sample_locally_balanced"], s),
        "verify.self_s": (verify_self, s),
    }

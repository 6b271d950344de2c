"""The benchmark's tracer names package functions by module and attribute
path, and its counter functions read their return values; a rename or
deletion in the package would only show up as a failing traced benchmark
run.  This reads perfbench/tracing.py (without changing it), resolves every
target the way its install step does, and feeds each counter function a
real call of its target."""

import importlib
import importlib.util
from pathlib import Path

from localbalance import BipartiteIncidence, make_random, make_split

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# arguments of one real call for every target that has a counter function
NOTED_CALLS = {
    "census.census_k4": lambda: ((make_random(12, 2, 0),), {}),
    "blowup_finder.CanonicalHypergraph.from_edges":
        lambda: ((((0, 1), (2, 3)), [(0, 2), (1, 3), (0, 3)]), {}),
    "blowup_finder.kst_star":
        lambda: ((BipartiteIncidence((0, 1, 2), (0b111, 0b011, 0b110), 0b111), 2), {}),
    "constructions.closeness_to_split": lambda: ((make_split(5, 4, seed=1, flips=3),), {}),
}


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(tracing, mod_name, path):
    """The traced function, and the owner class when it is a classmethod
    (the tracer wraps the underlying function, which then gets cls first)."""
    mod = importlib.import_module(f"{tracing.PACKAGE}.{mod_name}")
    if "." not in path:
        return getattr(mod, path, None), None
    cls_name, attr = path.split(".")
    cls = getattr(mod, cls_name)
    raw = vars(cls).get(attr)
    return (raw.__func__, cls) if isinstance(raw, classmethod) else (raw, None)


def test_every_trace_target_resolves():
    tracing = load_tracing()
    assert tracing.TARGETS
    for mod_name, path, _ in tracing.TARGETS:
        fn, _ = resolve(tracing, mod_name, path)
        assert callable(fn), f"{mod_name}.{path}"


def test_every_counter_reads_a_real_result():
    tracing = load_tracing()
    noted = {f"{m}.{p}": (m, p, note) for m, p, note in tracing.TARGETS if note is not None}
    assert noted.keys() == NOTED_CALLS.keys()
    for name, (mod_name, path, note) in noted.items():
        fn, owner = resolve(tracing, mod_name, path)
        args, kwargs = NOTED_CALLS[name]()
        if owner is not None:
            args = (owner, *args)
        counters = note(args, kwargs, fn(*args, **kwargs))
        assert isinstance(counters, dict) and counters, name
        assert all(type(v) is int for v in counters.values()), (name, counters)

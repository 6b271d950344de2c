"""The benchmark's tracer names package functions by module and attribute
path; a rename or deletion in the package would only show up as a failing
traced benchmark run.  This reads perfbench/tracing.py (without changing it)
and resolves every target the way its install step does."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    tracing = load_tracing()
    assert tracing.TARGETS
    for mod_name, path, _ in tracing.TARGETS:
        mod = importlib.import_module(f"{tracing.PACKAGE}.{mod_name}")
        if "." in path:
            cls_name, attr = path.split(".")
            assert attr in vars(getattr(mod, cls_name)), f"{mod_name}.{path}"
        else:
            assert callable(getattr(mod, path, None)), f"{mod_name}.{path}"

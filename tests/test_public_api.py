"""The package exports library API only.  Every public name in
localbalance/__init__.py is used elsewhere in src/ or shown in README's
Library tour; the brute-force references the tests compare against live in
tests/hosts.py and must not drift back into the package."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import re
import types
from pathlib import Path

import localbalance

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ROOT / "src" / "localbalance"

# test references (now in tests/hosts.py) and constants nothing read
MOVED = (
    "census_k4_reference", "CODE_TO_CLASS", "count_m1_reference",
    "m1_copies_in_quadruples", "ALTERNATING_SPLITS_PER_CLASS", "_alternating_splits",
    "CLASS_SWAP", "_swap_code", "coloured_graphs_isomorphic", "patterns_isomorphic",
    "is_unibalanced", "relabelled", "MONO_RED_KEY", "MONO_BLUE_KEY",
    "census_tables_reference", "_class_stat_row", "_apex_type", "_APEX_CAT", "_COMPLEMENT",
)


def exported_names():
    return sorted(name for name, value in vars(localbalance).items()
                  if not name.startswith("_") and not isinstance(value, types.ModuleType))


def names_read_in_src():
    """Every name read or attribute taken in src/, outside __init__."""
    read = set()
    for path in SOURCES.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def library_tour_words():
    section = (ROOT / "README.md").read_text().split("\n## Library tour\n", 1)[1]
    return set(re.findall(r"\w+", section.split("\n## ", 1)[0]))


def test_every_export_is_used_in_src_or_shown_in_the_library_tour():
    read, tour = names_read_in_src(), library_tour_words()
    assert [name for name in exported_names() if name not in read | tour] == []


def test_reference_paths_are_not_in_the_package():
    modules = [localbalance] + [
        importlib.import_module(f"localbalance.{info.name}")
        for info in pkgutil.iter_modules(localbalance.__path__)
    ]
    assert [(m.__name__, name) for m in modules for name in MOVED if name in vars(m)] == []
    assert not hasattr(localbalance.ColouredCompleteGraph, "relabelled")
    assert not hasattr(localbalance.ColouredCompleteGraph, "row")
    assert not hasattr(localbalance.BipartiteColouring, "colour")


def test_duplicate_host_routines_stay_deleted():
    from localbalance import blowup_finder, constructions

    for name in ("degree", "colour_class_size"):
        assert not hasattr(localbalance.ColouredCompleteGraph, name)
    for name in ("_check_random_args", "_graph_from_pair_colours", "_split_cost",
                 "_flipped_edges_for", "EXACT_MAX_N"):
        assert not hasattr(constructions, name)
    for name in ("_host_masks", "_exact_mono_clique"):
        assert not hasattr(blowup_finder, name)
    tree = ast.parse((SOURCES / "verify.py").read_text())
    assert [alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "constructions"
            for alias in node.names if alias.name.startswith("_")] == []


def test_deleted_parameters_stay_deleted():
    from localbalance import blowup_finder, multicolour
    from localbalance.blowup_finder import asymptotic_target_size

    assert list(inspect.signature(localbalance.census_k4).parameters) == ["G"]
    assert list(inspect.signature(localbalance.closeness_to_split).parameters) == ["G"]
    assert list(inspect.signature(localbalance.ramsey_clique).parameters) == ["vertices", "G"]
    assert list(inspect.signature(localbalance.hypergraph_cover).parameters) == ["Hg", "G"]
    finder = inspect.signature(localbalance.find_homogeneous_blowup).parameters
    assert [(name, p.kind.name, p.default) for name, p in finder.items()] == [
        ("G", "POSITIONAL_OR_KEYWORD", inspect.Parameter.empty),
        ("pattern", "POSITIONAL_OR_KEYWORD", inspect.Parameter.empty),
        ("seed", "KEYWORD_ONLY", 0), ("retries", "KEYWORD_ONLY", 64),
        ("target_t", "KEYWORD_ONLY", None)]
    assert list(inspect.signature(asymptotic_target_size).parameters) == ["n", "l", "r"]
    assert not hasattr(localbalance, "FinderConfig") and not hasattr(blowup_finder, "FinderConfig")
    assert list(inspect.signature(localbalance.kst_star).parameters) == ["F", "s"]
    assert list(inspect.signature(localbalance.find_pattern_blowup_exhaustive).parameters) == [
        "G", "H", "t", "homogeneous"]
    sampler = inspect.signature(localbalance.sample_unibalanced_subset).parameters
    assert [(name, p.kind.name, p.default) for name, p in sampler.items()] == [
        ("G", "POSITIONAL_OR_KEYWORD", inspect.Parameter.empty),
        ("eps", "POSITIONAL_OR_KEYWORD", inspect.Parameter.empty),
        ("seed", "KEYWORD_ONLY", 0), ("max_draws", "KEYWORD_ONLY", 64)]
    for name in ("SamplerConfig", "min_unibalanced_subgraph_size"):
        assert not hasattr(localbalance, name) and not hasattr(multicolour, name)
    # one copy build, _top_level: the whole hypergraph is a test reference
    for name in ("canonical_hypergraph", "_copy_levels"):
        assert not hasattr(localbalance, name) and not hasattr(blowup_finder, name)
    assert callable(blowup_finder._top_level)
    assert not hasattr(localbalance.ColouredCompleteGraph, "neighbours")


def test_vertex_checks_live_only_in_core():
    # one integer rule and one reading of "a set of host vertices": the
    # routines are defined in core, and no other module reads integers
    # through operator.index or tests for np.integer
    defined, index_imports, integer_tests = [], [], []
    for path in sorted(SOURCES.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name in (
                    "_integer", "_vertex", "_colour", "_vertex_set", "_checked_parts",
                    "_check_in_host", "_bits"):
                defined.append((node.name, path.name))
            elif isinstance(node, ast.Attribute) and node.attr == "integer" and \
                    isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
                integer_tests.append(path.name)
            elif isinstance(node, ast.ImportFrom) and node.module == "operator" and any(
                    alias.name == "index" for alias in node.names):
                index_imports.append(path.name)
            elif isinstance(node, ast.Attribute) and node.attr == "index" and \
                    isinstance(node.value, ast.Name) and node.value.id == "operator":
                index_imports.append(path.name)
    assert sorted(defined) == [("_bits", "core.py"), ("_checked_parts", "core.py"),
                               ("_integer", "core.py"), ("_vertex_set", "core.py")]
    assert [name for name in index_imports if name != "core.py"] == []
    assert "core.py" in integer_tests
    assert [name for name in integer_tests if name != "core.py"] == []


def test_bit_packing_lives_only_in_core():
    # one layout of a vertex set in bits: core defines the packing helpers,
    # and no other module packs, unpacks or reads an int from bytes
    defined, calls = [], []
    for path in sorted(SOURCES.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name in ("_pack", "_unpack", "_row_masks"):
                defined.append((node.name, path.name))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and \
                    node.func.attr in ("packbits", "unpackbits", "from_bytes"):
                calls.append((node.func.attr, path.name))
    assert sorted(defined) == [("_pack", "core.py"), ("_row_masks", "core.py"),
                               ("_unpack", "core.py")]
    assert sorted(set(calls)) == [("from_bytes", "core.py"), ("packbits", "core.py"),
                                  ("unpackbits", "core.py")]


def test_patterns_hold_their_edge_colouring_as_a_host():
    # one record of an edge-coloured complete graph: patterns keep a
    # ColouredCompleteGraph, and its constructor is the one edge check
    fields = [f.name for f in dataclasses.fields(localbalance.TotallyColouredPattern)]
    assert fields == ["graph", "vertex_colours", "vertex_colours_ignored", "name"]
    tree = ast.parse((SOURCES / "patterns.py").read_text())
    imports = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert [m for m, _ in imports if m == "census"] == []
    assert [name for _, name in imports if name == "_edge_triple"] == []


def test_the_library_holds_only_patterns_and_hands_out_copies():
    lib = localbalance.pattern_library()
    assert all(isinstance(p, localbalance.TotallyColouredPattern) for p in lib.values())
    assert "M1" not in lib
    p1 = lib["P1"]
    lib["P1"] = lib["P2"]
    del lib["C4"]
    assert localbalance.get_pattern("P1") is p1
    assert localbalance.get_pattern("C4").name == "C4"
    assert localbalance.pattern_library().keys() == lib.keys() | {"C4"}


def test_patterns_compare_as_their_hosts_do():
    # the diagonal is not an edge: tables that differ only there are equal
    G = localbalance.ColouredCompleteGraph
    P = localbalance.TotallyColouredPattern
    zero = P(G(2, 2, [[0, 1], [1, 0]]), (0, 1))
    ones = P(G(2, 2, [[1, 1], [1, 1]]), (0, 1), name="ones")
    assert zero == ones and hash(zero) == hash(ones)
    assert zero != P(G(2, 2, [[0, 0], [0, 0]]), (0, 1))


def test_only_the_cli_reads_the_clock():
    # the manifest's wallTimeMs is a run's one timing: no report keeps a second clock
    importers = []
    for path in sorted(SOURCES.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Import) and any(a.name == "time" for a in node.names)
                    or isinstance(node, ast.ImportFrom) and node.module == "time"):
                importers.append(path.name)
    assert importers == ["cli.py"]
    fields = [f.name for f in dataclasses.fields(localbalance.VerificationReport)]
    assert fields == ["suite", "instances", "failures", "bounds", "notes", "seeds"]

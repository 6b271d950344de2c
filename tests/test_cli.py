import ast
import hashlib
import inspect
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from hosts import census_k4_reference
from localbalance import cli, graph_from_json, graph_to_json, make_random
from localbalance.cli import main
from localbalance.core import _check_size


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_without_timing(text):
    data = json.loads(text)
    data.get("manifest", {}).pop("wallTimeMs", None)
    return data


class TestGenerate:
    def test_pk_to_file_and_census(self, tmp_path, capsys):
        path = tmp_path / "pk2.json"
        code, _, _ = run_cli(capsys, "generate", "--family", "pk", "--k", "2",
                             "--out", str(path))
        assert code == 0
        code, out, _ = run_cli(capsys, "census", str(path))
        assert code == 0
        data = json.loads(out)
        assert data["C4"] == 0 and data["C4bar"] == 0 and data["P3o"] == 16
        assert data["epsilonLocal"] == "1/4"
        assert "manifest" in data and "inputHashes" in data["manifest"]

    def test_compact(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--family", "random",
                               "--n", "6", "--r", "2", "--seed", "3", "--compact")
        assert code == 0
        assert "rows" in json.loads(out)

    def test_bipartite(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--family", "bipartite",
                               "--n-side", "6", "--eps", "1/3", "--seed", "2")
        assert code == 0
        data = json.loads(out)
        assert data["kind"] == "bipartite"
        assert len(data["rows"]) == 6

    @pytest.mark.parametrize("argv, names", [
        (("--family", "random", "--r", "300"), "r=300"),
        (("--family", "random", "--r", "1"), "r=1"),
        (("--family", "random", "--n", "0"), "n >= 1"),
        (("--family", "balanced", "--eps", "3/2"), "eps"),
        (("--family", "balanced", "--eps=-1/5"), "eps"),
        (("--family", "balanced", "--r", "300"), "r=300"),
        (("--family", "bipartite", "--n-side", "0"), "n_side"),
        # the builder checks its own arguments before the size of the host
        (("--family", "mcycle", "--parts", "3", "--part-size", "2000"), "even l >= 4, got 3"),
        (("--family", "bipartite", "--n-side", "2049", "--eps", "3/4"), "eps <= 1/2"),
    ])
    def test_bad_family_arguments_exit_2_before_drawing(self, capsys, argv, names):
        code, out, err = run_cli(capsys, "generate", *argv)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and names in err

    def test_bipartite_retry_budget_is_one_line(self, capsys):
        # one vertex per side cannot be both forced red and forced blue
        code, out, err = run_cli(capsys, "generate", "--family", "bipartite",
                                 "--n-side", "1", "--eps", "1/2")
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "1000 attempts" in err

    def test_unreachable_balance_exits_1_without_drawing(self, capsys, monkeypatch):
        # 2 * ceil(8 / 2) = 8 same-colour degrees exceed the 7 edges of a vertex
        def no_draw(*args):
            raise AssertionError("drew a colouring for an unreachable eps")

        monkeypatch.setattr("localbalance.verify.draw_below", no_draw)
        code, out, err = run_cli(capsys, "generate", "--family", "balanced",
                                 "--n", "8", "--eps", "1/2")
        assert code == 1 and out == ""
        assert err == "error: could not sample a locally 1/2-balanced colouring\n"

    @pytest.mark.parametrize("argv, builder, stray", [
        (("--family", "bipartite", "--n-side", "4", "--seed", "1", "--compact"),
         "make_bipartite_mindeg", "--compact"),
        (("--family", "mcycle", "--parts", "6", "--part-size", "2", "--r", "5", "--n", "3",
          "--k", "9"), "make_multicolour_cycle", "--k, --n, --r"),
    ])
    def test_option_the_family_does_not_read_exits_2_before_building(
            self, capsys, monkeypatch, argv, builder, stray):
        def no_build(*args, **kwargs):
            raise AssertionError(f"{builder} called despite an option it does not read")

        monkeypatch.setattr(f"localbalance.cli.{builder}", no_build)
        code, out, err = run_cli(capsys, "generate", *argv)
        assert code == 2 and out == ""
        assert err == f"error: --family {argv[1]} does not read {stray}\n"

    @pytest.mark.parametrize("argv, builder", [
        (("--family", "pk", "--k", "1025"), "make_Pk"),
        (("--family", "split", "--a", "4000", "--b", "97"), "make_split"),
        (("--family", "mcycle", "--parts", "6", "--part-size", "683"), "make_multicolour_cycle"),
        (("--family", "random", "--n", "200000"), "make_random"),
        (("--family", "balanced", "--n", "3000", "--r", "200"), "sample_locally_balanced"),
        (("--family", "bipartite", "--n-side", "2049"), "make_bipartite_mindeg"),
    ])
    def test_oversized_host_exits_2_before_building(self, capsys, monkeypatch, argv, builder):
        # n > 4096 for every family but balanced, which passes n and fails
        # r * n^2 <= 2^30; each host has n^2 >= 9e6 pairs, and its builder
        # refuses it before it allocates a table
        real, calls = getattr(cli, builder), []
        monkeypatch.setattr(cli, builder, lambda *a, **k: calls.append(a) or real(*a, **k))
        cli.build_parser()  # built once per process, so not counted below
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "generate", *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: host too large")
        assert len(calls) == 1 and peak < 2**20

    def test_size_limits_are_inclusive(self):
        _check_size(4096, 64)  # 64 * 4096^2 == 2^30
        with pytest.raises(ValueError, match="n=4096, r=65"):
            _check_size(4096, 65)
        with pytest.raises(ValueError, match="n=4097"):
            _check_size(4097, 2)

    def test_manifest_records_the_given_argv(self, capsys):
        argv = ["generate", "--family", "pk", "--k", "1"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(out)["manifest"]["argv"] == list(argv)

    def test_deterministic_modulo_timing(self, capsys):
        args = ("generate", "--family", "split", "--a", "5", "--b", "5",
                "--flips", "2", "--seed", "42")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert parse_without_timing(out1) == parse_without_timing(out2)


class TestCensusCommand:
    def test_methods_agree(self, tmp_path, capsys):
        # the census command's codegree path against the enumeration oracle
        path = tmp_path / "g.json"
        run_cli(capsys, "generate", "--family", "random", "--n", "14",
                "--seed", "5", "--out", str(path))
        code, out, _ = run_cli(capsys, "census", str(path))
        assert code == 0
        G = graph_from_json(json.loads(path.read_text()))
        assert json.loads(out)["classes"] == census_k4_reference(G).counts

    def test_method_option_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["census", str(tmp_path / "g.json"), "--method", "reference"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --method reference" in capsys.readouterr().err

    def test_size_guard(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        run_cli(capsys, "generate", "--family", "random", "--n", "30",
                "--seed", "1", "--out", str(path))
        code, _, err = run_cli(capsys, "census", str(path), "--max-n", "20")
        assert code == 2
        assert "limited" in err

    def test_missing_file_is_io_error(self, capsys):
        code, _, err = run_cli(capsys, "census", "/nonexistent/graph.json")
        assert code == 2

    def test_default_limit_admits_n600(self, tmp_path, capsys):
        path = tmp_path / "pk150.json"
        run_cli(capsys, "generate", "--family", "pk", "--k", "150", "--compact",
                "--out", str(path))
        code, out, _ = run_cli(capsys, "census", str(path))
        assert code == 0
        data = json.loads(out)
        assert data["n"] == 600
        assert data["C4"] == 0

    @pytest.mark.parametrize("graph", [
        '{"n": 3, "r": 2, "edges": 5}',
        '{"n": 3, "r": 2, "edges": [[0, 1, 0], 7, [1, 2, 0]]}',
        '{"n": 3, "r": 2, "rows": [1, 2, 3]}',
        '{"n": 5000, "r": 2, "edges": []}',
        '{"n": 3, "r": 2, "edges": [[0, 1, 0], [0, 2.0, true], [1, 2, 0]]}',
        '{"n": "3", "r": 2.9, "rows": ["00", "0", ""]}',
    ])
    def test_malformed_structure_is_usage_error(self, tmp_path, capsys, graph):
        path = tmp_path / "bad.json"
        path.write_text(graph)
        code, _, err = run_cli(capsys, "census", str(path))
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err

    def test_declared_r_sizes_the_host(self, tmp_path, capsys, monkeypatch):
        # the constructor's colour masks hold r * n^2 bits for the declared r,
        # whatever colours the rows hold; the limit is lowered to just fit r = 2
        host = graph_to_json(make_random(300, 2, 0), compact=True)
        path = tmp_path / "r255.json"
        path.write_text(json.dumps({**host, "r": 255}))
        monkeypatch.setattr("localbalance.core.MAX_MASK_BITS", 2 * 300 * 300)
        assert graph_from_json(host).r == 2
        with pytest.raises(ValueError, match=r"^host too large: n=300, r=255 "):
            graph_from_json({**host, "r": 255})
        code, out, err = run_cli(capsys, "census", str(path))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: host too large: n=300, r=255 ")

    def test_malformed_json_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 3, "r": 2, "edges": [[0, 0, 0]]}')
        code, _, err = run_cli(capsys, "census", str(path))
        assert code == 2
        assert "self-loop" in err

    def test_host_passes_through_graph_from_json_once(self, tmp_path, capsys, monkeypatch):
        # the benchmark's tracer times the host load as cli.graph_from_json
        calls = []
        real = cli.graph_from_json
        monkeypatch.setattr(cli, "graph_from_json", lambda data: calls.append(data) or real(data))
        path = tmp_path / "r12.json"
        path.write_text(json.dumps(graph_to_json(make_random(12, 2, 0))))
        code, _, _ = run_cli(capsys, "census", str(path), "--json", str(tmp_path / "out.json"))
        assert code == 0 and len(calls) == 1


class ReadLog(list):
    """The paths opened for reading inside a with block, seen through the
    "open" audit event.  An audit hook cannot be removed, so one hook,
    added on first use, feeds the log of the current block."""

    current = None
    hooked = False

    @staticmethod
    def _hook(event, args):
        log = ReadLog.current
        if event == "open" and log is not None and isinstance(args[0], (str, os.PathLike)) \
                and (args[1] is None or "r" in args[1]):
            log.append(os.fspath(args[0]))

    def __enter__(self):
        if not ReadLog.hooked:
            sys.addaudithook(ReadLog._hook)
            ReadLog.hooked = True
        ReadLog.current = self
        return self

    def __exit__(self, *exc):
        ReadLog.current = None


SRC = Path(__file__).resolve().parent.parent / "src"


def run_in_c_locale(cwd, *argv):
    """The CLI in a fresh interpreter whose locale encoding is ASCII."""
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0",
           "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-m", "localbalance.cli", *argv], cwd=cwd,
                          env=env, capture_output=True, timeout=120)


class TestInputEncoding:
    """Input files are JSON text, read as bytes and decoded as JSON, not
    with the locale's encoding."""

    def test_utf8_host_under_an_ascii_locale(self, tmp_path):
        host = {**graph_to_json(make_random(2, 2, 0)), "manifest": {"note": "café —"}}
        (tmp_path / "host.json").write_text(json.dumps(host, ensure_ascii=False), encoding="utf-8")
        done = run_in_c_locale(tmp_path, "census", "host.json")
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["n"] == 2

    def test_utf8_pattern_file_under_an_ascii_locale(self, tmp_path):
        (tmp_path / "r12.json").write_text(json.dumps(graph_to_json(make_random(12, 2, 0))))
        pattern = {**TestFindBlowup.GOOD_PATTERN, "name": "café"}
        (tmp_path / "pat.json").write_text(json.dumps(pattern, ensure_ascii=False),
                                           encoding="utf-8")
        done = run_in_c_locale(tmp_path, "find-blowup", "r12.json", "--pattern-file", "pat.json",
                               "--retries", "2")
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["pattern"] == "café"

    def test_utf8_bom_host_loads(self, tmp_path, capsys):
        path = tmp_path / "bom.json"
        path.write_bytes(b"\xef\xbb\xbf" + json.dumps(graph_to_json(make_random(6, 2, 0))).encode())
        code, out, _ = run_cli(capsys, "census", str(path))
        assert code == 0 and json.loads(out)["n"] == 6


class TestFindBlowup:
    @pytest.mark.parametrize("argv", [
        ("find-blowup", "g.json", "--budget", "100"),
        ("experiment", "--eps-list", "0", "--n-list", "8", "--budget", "100"),
    ])
    def test_budget_option_is_gone(self, capsys, argv):
        # the star step's exact-or-greedy limit is STAR_SEARCH_BUDGET
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "unrecognized arguments: --budget 100" in capsys.readouterr().err

    def test_planted_host(self, tmp_path, capsys):
        path = tmp_path / "pk8.json"
        run_cli(capsys, "generate", "--family", "pk", "--k", "8", "--out", str(path))
        code, out, _ = run_cli(capsys, "find-blowup", "--pattern", "P3o",
                               "--target-t", "2", "--seed", "5", str(path))
        assert code == 0
        data = json.loads(out)
        assert data["t"] >= 2
        assert len(data["parts"]) == 4
        assert all(len(p) == data["t"] for p in data["parts"])

    def test_target_miss_exit_code(self, tmp_path, capsys):
        path = tmp_path / "mono.json"
        run_cli(capsys, "generate", "--family", "split", "--a", "8", "--b", "0",
                "--out", str(path))
        code, out, _ = run_cli(capsys, "find-blowup", "--pattern", "C4",
                               "--target-t", "2", "--retries", "4", str(path))
        assert code == 1
        assert json.loads(out)["t"] < 2

    GOOD_PATTERN = {"l": 3, "r": 2, "vertexColours": [0, 0, 0],
                    "edges": [[0, 1, 1], [0, 2, 0], [1, 2, 1]], "vertexColoursIgnored": True}

    @pytest.mark.parametrize("pattern, extra, want", [
        (GOOD_PATTERN, [], 0),
        ({"pattern": GOOD_PATTERN, "minSize": 3}, [], 0),
        (GOOD_PATTERN, ["--target-t", "99"], 1),
        ({**GOOD_PATTERN, "edges": [[0, 1, 1], [0, 5, 0], [1, 2, 1]]}, [], 2),
        ({k: v for k, v in GOOD_PATTERN.items() if k != "edges"}, [], 2),
        ({**GOOD_PATTERN, "edges": [[0, 1, 1], [0, -1, 0], [1, 2, 1]]}, [], 2),
        ({**GOOD_PATTERN, "edges": [[0, 1, 1], [1, 2, 1]]}, [], 2),
        ({**GOOD_PATTERN, "l": 2.7}, [], 2),
        ([1, 2], [], 2),
        ({"pattern": "C4"}, [], 2),
        ({**GOOD_PATTERN, "vertexColours": [0, 0, 5]}, [], 2),
    ])
    def test_pattern_file_exit_codes(self, tmp_path, capsys, pattern, extra, want):
        host, pat = tmp_path / "pk3.json", tmp_path / "pattern.json"
        run_cli(capsys, "generate", "--family", "pk", "--k", "3", "--out", str(host))
        pat.write_text(json.dumps(pattern))
        code, _, err = run_cli(capsys, "find-blowup", "--pattern-file", str(pat),
                               "--retries", "2", *extra, str(host))
        assert code == want
        if want == 2:
            assert err.startswith("error: ") and err.count("\n") == 1

    def test_oversized_copy_build_exits_2_quickly(self, tmp_path, capsys):
        # an all-red 8-vertex pattern in an all-red host: 75^7 prefixes, so the
        # build's size guard refuses a level before allocating it
        host, pat = tmp_path / "red600.json", tmp_path / "red8.json"
        run_cli(capsys, "generate", "--family", "split", "--a", "600", "--b", "0",
                "--compact", "--out", str(host))
        pat.write_text(json.dumps({"l": 8, "r": 2, "vertexColours": [0] * 8, "edges": [
            [i, j, 0] for i in range(8) for j in range(i + 1, 8)]}))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "find-blowup", "--pattern-file", str(pat), str(host))
        assert time.perf_counter() - start < 5
        assert code == 2 and out == ""
        assert err.startswith("error: level 4 of the canonical hypergraph has 31640625 ")
        assert err.count("\n") == 1


class TestPatternOption:
    @pytest.mark.parametrize("argv", [
        ("find-blowup", "host.json", "--pattern", "NOPE"),
        ("find-blowup", "host.json", "--pattern", "M1"),  # bipartite, not complete
        ("experiment", "--eps-list", "1/4", "--n-list", "8", "--pattern", "NOPE"),
    ])
    def test_unknown_pattern_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: localbalance ")
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "invalid choice" in errors[0]
        assert "Traceback" not in err


class TestUnibalancedCommands:
    def test_sample_and_min(self, tmp_path, capsys):
        path = tmp_path / "mc.json"
        run_cli(capsys, "generate", "--family", "mcycle", "--parts", "6",
                "--part-size", "2", "--out", str(path))
        code, out, _ = run_cli(capsys, "sample-unibalanced", "--eps", "1/6",
                               "--seed", "1", str(path))
        assert code == 0
        assert json.loads(out)["found"]
        code, out, _ = run_cli(capsys, "min-unibalanced", "--cap", "8", str(path))
        assert code == 0
        assert json.loads(out)["minSize"] == 6

    def test_min_exceeds_cap(self, tmp_path, capsys):
        path = tmp_path / "mono.json"
        run_cli(capsys, "generate", "--family", "split", "--a", "6", "--b", "0",
                "--out", str(path))
        code, out, _ = run_cli(capsys, "min-unibalanced", "--cap", "5", str(path))
        assert code == 0
        data = json.loads(out)
        assert data["minSize"] is None and data["exceedsCap"]

    def test_composed_pipeline_min_to_blowup(self, tmp_path, capsys):
        # smallest unibalanced subgraph -> induced pattern -> blow-up mining
        host = tmp_path / "mc.json"
        min_out = tmp_path / "min.json"
        run_cli(capsys, "generate", "--family", "mcycle", "--parts", "6",
                "--part-size", "6", "--out", str(host))
        code, _, _ = run_cli(capsys, "min-unibalanced", "--cap", "8", str(host),
                             "--json", str(min_out))
        assert code == 0
        data = json.loads(min_out.read_text())
        assert data["pattern"]["l"] == 6 and data["pattern"]["r"] == 3
        code, out, _ = run_cli(capsys, "find-blowup", "--pattern-file", str(min_out),
                               "--target-t", "2", "--seed", "3", "--retries", "256",
                               str(host))
        assert code == 0
        result = json.loads(out)
        assert result["t"] >= 2
        assert len(result["parts"]) == 6

    def test_sample_emits_pattern(self, tmp_path, capsys):
        path = tmp_path / "mc.json"
        run_cli(capsys, "generate", "--family", "mcycle", "--parts", "6",
                "--part-size", "2", "--out", str(path))
        code, out, _ = run_cli(capsys, "sample-unibalanced", "--eps", "1/6",
                               "--seed", "1", str(path))
        assert code == 0
        data = json.loads(out)
        assert data["pattern"]["l"] == len(data["S"])

    def test_warning_is_one_line(self, tmp_path, capsys):
        # P_3 is locally 1/4-balanced, so --eps 1/3 samples without backing
        path = tmp_path / "pk3.json"
        run_cli(capsys, "generate", "--family", "pk", "--k", "3", "--out", str(path))
        code, out, err = run_cli(capsys, "sample-unibalanced", "--eps", "1/3", str(path))
        assert code == (0 if json.loads(out)["found"] else 1)
        assert err == "warning: host is not locally 1/3-balanced; sampling is best-effort\n"


class TestVerifyCommand:
    @pytest.mark.parametrize("suite", ["cute", "p3c4", "optimize", "m1bound", "3colourfail"])
    def test_strict_outside_anybalanced_exits_2_before_running(self, capsys, monkeypatch, suite):
        # only anybalanced reads --strict; the others ignored it and passed
        def no_run(args):
            raise AssertionError(f"ran suite {suite} despite --strict")

        monkeypatch.setitem(cli._SUITES, suite, no_run)
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--strict")
        assert code == 2 and out == ""
        assert err == f"error: --strict applies to --suite anybalanced only, not {suite}\n"

    def test_strict_anybalanced_runs(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "anybalanced", "--strict")
        assert code in (0, 1) and json.loads(out)["suite"] == "anybalanced"

    def test_cute_passes(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "cute")
        assert code == 0
        assert json.loads(out)["passed"]
        assert "PASS" in err

    def test_3colourfail_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "3colourfail")
        assert code == 0

    def test_json_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(capsys, "verify", "--suite", "3colourfail",
                             "--json", str(out_path))
        assert code == 0
        data = json.loads(out_path.read_text())
        assert data["suite"] == "3colourfail"

    def test_report_repeats_up_to_the_wall_time(self, capsys):
        # the manifest's wallTimeMs is the run's one timing
        (code, out, err), (code2, out2, err2) = (
            run_cli(capsys, "verify", "--suite", "3colourfail") for _ in range(2))
        assert code == code2 == 0 and err == err2
        assert parse_without_timing(out) == parse_without_timing(out2)
        assert "runtimeSeconds" not in json.loads(out)


class TestExperiment:
    def test_csv_output(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "--eps-list", "0.25",
                               "--n-list", "12", "--pattern", "C4",
                               "--seeds", "1,2", "--csv", "-")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("eps,n,seed,status")
        assert len(lines) == 3

    def test_empty_eps_list(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "--eps-list", "",
                               "--n-list", "12", "--seeds", "1")
        assert code == 0
        assert json.loads(out)["rows"] == []

    def test_json_rows_ordering(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "--eps-list", "0.25",
                               "--n-list", "8,12", "--pattern", "C4",
                               "--seeds", "2,1")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [(r["n"], r["seed"]) for r in rows] == [(8, 2), (8, 1), (12, 2), (12, 1)]

    def test_tiny_host_cells_complete(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "--eps-list", "0",
                               "--n-list", "4", "--pattern", "C4", "--seeds", "0")
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["status"] == "ok"
        assert row["achievedT"] in (0, 1)

    def test_deterministic_modulo_timing(self, capsys):
        args = ("experiment", "--eps-list", "0.25", "--n-list", "12",
                "--pattern", "P3o", "--seeds", "3,4")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert parse_without_timing(out1) == parse_without_timing(out2)

    @pytest.mark.parametrize("argv, names", [
        (("--retries", "0"), "budgets"),
        (("--retries", "-1"), "budgets"),
        (("--n-list", "8,0"), "n >= 1, got 0"),
        (("--n-list", "8,5000"), "n=5000"),
        (("--eps-list", "1/4,3/2"), "eps <= 1, got 3/2"),
        (("--n-list", "8,3100", "--census-limit", "4096"), "n <= 3000, got n=3100"),
    ])
    def test_bad_arguments_exit_2_before_any_cell(self, capsys, monkeypatch, argv, names):
        def no_cell(*args):
            raise AssertionError("sampled a host before checking the arguments")

        monkeypatch.setattr("localbalance.cli.sample_locally_balanced", no_cell)
        base = {"--eps-list": "1/4", "--n-list": "8"}
        base.update(zip(argv[::2], argv[1::2]))
        code, out, err = run_cli(capsys, "experiment", *(f"{k}={v}" for k, v in base.items()))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and names in err

    def test_csv_and_json_together_exit_2_before_any_cell(self, tmp_path, capsys, monkeypatch):
        # the CSV was written and the JSON dropped without a word
        def no_cell(*args):
            raise AssertionError("sampled a host despite two outputs")

        monkeypatch.setattr("localbalance.cli.sample_locally_balanced", no_cell)
        csv_path, json_path = tmp_path / "a.csv", tmp_path / "b.json"
        code, out, err = run_cli(capsys, "experiment", "--eps-list", "1/4", "--n-list", "8",
                                 "--csv", str(csv_path), "--json", str(json_path))
        assert code == 2 and out == ""
        assert err == "error: give one of --csv and --json: experiment writes one output\n"
        assert not csv_path.exists() and not json_path.exists()

    def test_cell_errors_stay_recorded(self, capsys):
        # n = 3 < l = 4 fails inside its cell, after the n = 8 cell ran
        code, out, _ = run_cli(capsys, "experiment", "--eps-list", "0",
                               "--n-list", "8,3", "--pattern", "C4")
        assert code == 1
        rows = json.loads(out)["rows"]
        assert rows[0]["status"] == "ok"
        assert rows[1]["status"] == "error: host has 3 < l = 4 vertices"

    def test_single_cell_at_n64(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "--eps-list", "0.25",
                               "--n-list", "64", "--pattern", "C4", "--seeds", "1",
                               "--retries", "16")
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["status"] == "ok"
        assert row["achievedT"] >= 1
        assert "C4" in row and "P3o" in row


class TestParserReuse:
    def test_defaults_survive_an_earlier_override(self, tmp_path, capsys):
        # one parser serves every main() call in a process, so a value one
        # call sets must not become the next call's default
        path = tmp_path / "pk1.json"
        run_cli(capsys, "generate", "--family", "pk", "--k", "1", "--out", str(path))
        for argv, seeds in ((("find-blowup", str(path), "--seed", "5"), [5]),
                            (("find-blowup", str(path)), [0]),
                            (("experiment", "--eps-list", "0", "--n-list", "8",
                              "--seeds", "3,4"), [3, 4]),
                            (("experiment", "--eps-list", "0", "--n-list", "8"), [0])):
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            assert json.loads(out)["manifest"]["seeds"] == seeds


class TestRunner:
    """main builds every manifest and writes every output; the handlers
    only compute."""

    @pytest.mark.parametrize("argv, seeds, inputs", [
        (("generate", "--family", "pk", "--k", "1", "--seed", "4"), [4], []),
        (("census", "HOST"), [], ["HOST"]),
        (("find-blowup", "HOST", "--retries", "2"), [0], ["HOST"]),
        (("find-blowup", "HOST", "--pattern-file", "PATTERN", "--seed", "2", "--retries", "2"),
         [2], ["HOST", "PATTERN"]),
        (("sample-unibalanced", "HOST", "--eps", "1/4", "--seed", "3"), [3], ["HOST"]),
        (("min-unibalanced", "HOST", "--cap", "4"), [], ["HOST"]),
        (("verify", "--suite", "cute", "--seed", "5"), [5], []),
        (("experiment", "--eps-list", "0", "--n-list", "8", "--seeds", "3,4"), [3, 4], []),
    ], ids=["generate", "census", "find-blowup", "find-blowup-pattern-file",
            "sample-unibalanced", "min-unibalanced", "verify", "experiment"])
    def test_manifest_records_seeds_and_every_input_file(self, tmp_path, capsys, argv,
                                                         seeds, inputs):
        files = {"HOST": tmp_path / "pk2.json", "PATTERN": tmp_path / "pattern.json"}
        run_cli(capsys, "generate", "--family", "pk", "--k", "2", "--out", str(files["HOST"]))
        files["PATTERN"].write_text(json.dumps(TestFindBlowup.GOOD_PATTERN))
        argv = [str(files.get(a, a)) for a in argv]
        _, out, _ = run_cli(capsys, *argv)
        manifest = json.loads(out)["manifest"]
        assert sorted(manifest) == ["argv", "command", "inputHashes", "seeds", "version",
                                    "wallTimeMs"]
        assert manifest["command"] == argv[0] and manifest["argv"] == argv
        assert manifest["seeds"] == seeds
        # the host's bytes; the pattern file's JSON, canonical and without a manifest
        hashed = {"HOST": files["HOST"].read_bytes(),
                  "PATTERN": json.dumps(TestFindBlowup.GOOD_PATTERN, sort_keys=True).encode()}
        assert manifest["inputHashes"] == {
            str(files[f]): hashlib.sha256(hashed[f]).hexdigest() for f in inputs}

    def test_pattern_file_hash_ignores_the_manifest_it_carries(self, tmp_path, capsys):
        # a min-unibalanced output read back differs run to run only in its
        # manifest's wall time, which must not reach the next step's output
        host, pat = tmp_path / "pk2.json", tmp_path / "min.json"
        run_cli(capsys, "generate", "--family", "pk", "--k", "2", "--out", str(host))
        outputs = []
        for wall, first_edge in ((1.5, [0, 1, 1]), (2.5, [0, 1, 1]), (2.5, [0, 1, 0])):
            pattern = dict(TestFindBlowup.GOOD_PATTERN)
            pattern["edges"] = [first_edge] + pattern["edges"][1:]
            pat.write_text(json.dumps({"pattern": pattern, "manifest": {"wallTimeMs": wall}}))
            _, out, _ = run_cli(capsys, "find-blowup", str(host), "--pattern-file", str(pat),
                                "--retries", "2")
            outputs.append(parse_without_timing(out))
        assert outputs[0] == outputs[1]
        assert outputs[1]["manifest"]["inputHashes"][str(pat)] != \
            outputs[2]["manifest"]["inputHashes"][str(pat)]

    @pytest.mark.parametrize("argv", [
        ("census", "HOST"),
        ("find-blowup", "HOST", "--retries", "2"),
        ("find-blowup", "HOST", "--pattern-file", "PATTERN", "--retries", "2"),
        ("sample-unibalanced", "HOST", "--eps", "1/4"),
        ("min-unibalanced", "HOST", "--cap", "4"),
    ], ids=["census", "find-blowup", "find-blowup-pattern-file", "sample-unibalanced",
            "min-unibalanced"])
    def test_each_input_file_is_read_once(self, tmp_path, capsys, argv):
        # the manifest read the host again to hash it, and the pattern file
        # was parsed twice
        files = {"HOST": tmp_path / "r12.json", "PATTERN": tmp_path / "pattern.json"}
        files["HOST"].write_text(json.dumps(graph_to_json(make_random(12, 2, 0))))
        files["PATTERN"].write_text(json.dumps({"pattern": TestFindBlowup.GOOD_PATTERN,
                                                "manifest": {"wallTimeMs": 1.0}}))
        argv = [str(files.get(a, a)) for a in argv]
        with ReadLog() as reads:
            code, out, _ = run_cli(capsys, *argv)
        assert code in (0, 1)
        inputs = sorted(str(files[a]) for a in ("HOST", "PATTERN") if str(files[a]) in argv)
        assert sorted(p for p in reads if p in map(str, files.values())) == inputs
        assert sorted(json.loads(out)["manifest"]["inputHashes"]) == inputs

    def test_only_main_builds_manifests_and_writes_outputs(self):
        # callee name -> the top-level functions (or "<module>") that call it
        callers = {}
        for stmt in ast.parse(inspect.getsource(cli)).body:
            owner = stmt.name if isinstance(stmt, ast.FunctionDef) else "<module>"
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    f = node.func
                    name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                    callers.setdefault(name, set()).add(owner)
        handlers = {name for name in vars(cli) if name.startswith("_cmd_")}
        assert len(handlers) == 7
        assert callers["_manifest"] == callers["_emit"] == {"main"}
        assert handlers & (callers["perf_counter"] | callers["_manifest"] | callers["_emit"]) == set()
        assert handlers & callers["print"] == {"_cmd_verify"}  # its PASS/FAIL summary line

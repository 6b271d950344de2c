import json

import pytest

from localbalance.cli import main


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
        path = tmp_path / "g.json"
        run_cli(capsys, "generate", "--family", "random", "--n", "14",
                "--seed", "5", "--out", str(path))
        _, out1, _ = run_cli(capsys, "census", str(path), "--method", "codegree")
        _, out2, _ = run_cli(capsys, "census", str(path), "--method", "reference")
        assert json.loads(out1)["classes"] == json.loads(out2)["classes"]

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
    ])
    def test_malformed_structure_is_usage_error(self, tmp_path, capsys, graph):
        path = tmp_path / "bad.json"
        path.write_text(graph)
        code, _, err = run_cli(capsys, "census", str(path))
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err

    def test_malformed_json_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 3, "r": 2, "edges": [[0, 0, 0]]}')
        code, _, err = run_cli(capsys, "census", str(path))
        assert code == 2
        assert "self-loop" in err


class TestFindBlowup:
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


class TestVerifyCommand:
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

    def test_single_cell_at_n64(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "--eps-list", "0.25",
                               "--n-list", "64", "--pattern", "C4", "--seeds", "1",
                               "--retries", "16")
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["status"] == "ok"
        assert row["achievedT"] >= 1
        assert "C4" in row and "P3o" in row

from __future__ import annotations

import json
from pathlib import Path

import jsonschema
import pytest

from triconvex import cli
from triconvex.generators import bowtie_graph
from triconvex.graph import to_dimacs, to_edge_list

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"


def load_schema(name):
    with open(SCHEMA_DIR / name, encoding="utf-8") as fh:
        return json.load(fh)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    report = json.loads(out)
    jsonschema.validate(report, load_schema("report.json"))
    return code, report


class TestSubcommands:
    def test_decompose(self, capsys):
        code, report = run_json(capsys, "decompose", "--generate", "bowtie")
        assert code == 0
        jsonschema.validate(report["result"], load_schema("decompose.json"))
        assert report["result"] == {"atoms": [[0, 1, 2], [0, 3, 4]], "r_sets": [[0]]}
        assert report["graph"] == {"n": 5, "m": 6, "atoms": 2}

    def test_convex_test_negative(self, capsys):
        code, report = run_json(
            capsys, "convex-test", "--generate", "cycle:5", "--vertices", "0,2"
        )
        assert code == 0
        jsonschema.validate(report["result"], load_schema("convex-test.json"))
        assert report["result"] == {
            "convex": False,
            "witness": {"kind": "p3-violation", "vertex": 1},
        }

    def test_convex_test_positive(self, capsys):
        code, report = run_json(
            capsys, "convex-test", "--generate", "cycle:5", "--vertices", "0,1"
        )
        assert report["result"] == {"convex": True, "witness": None}

    def test_hull(self, capsys):
        code, report = run_json(capsys, "hull", "--generate", "path:4", "--vertices", "0,3")
        jsonschema.validate(report["result"], load_schema("hull.json"))
        assert report["result"]["hull"] == [0, 1, 2, 3]

    def test_enumerate_prime(self, capsys):
        code, report = run_json(capsys, "enumerate-prime", "--generate", "cycle:5")
        jsonschema.validate(report["result"], load_schema("enumerate-prime.json"))
        assert len(report["result"]["sets"]) == 12

    def test_convexity_number(self, capsys):
        code, report = run_json(capsys, "convexity-number", "--generate", "bowtie")
        jsonschema.validate(report["result"], load_schema("convexity-number.json"))
        assert report["result"] == {"value": 3, "witness": [0, 3, 4]}

    def test_hull_number(self, capsys):
        code, report = run_json(capsys, "hull-number", "--generate", "cycle:5")
        jsonschema.validate(report["result"], load_schema("hull-number.json"))
        assert report["result"] == {"value": 2, "hull_set": [0, 2], "verified": True}

    def test_generate_emits_edge_list(self, capsys):
        code, out = run(capsys, "generate", "--generate", "cycle:4")
        assert code == 0
        assert out == "0 1\n0 3\n1 2\n2 3\n"

    def test_bench_csv_shape(self, capsys):
        code, out = run(
            capsys, "bench", "--algorithm", "convexity-number",
            "--sizes", "12,16,20", "--p", "0.3", "--reps", "2",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "algorithm,n,m,median_ms,reps"
        assert len(lines) == 4
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[0] == "convexity-number" and fields[4] == "2"

    def test_bench_json_schema(self, capsys):
        code, report = run_json(
            capsys, "bench", "--algorithm", "hull-number", "--sizes", "10", "--reps", "1"
        )
        jsonschema.validate(report["result"], load_schema("bench.json"))


class TestGraphInput:
    def test_reads_edge_list_file(self, capsys, tmp_path):
        path = tmp_path / "bowtie.txt"
        path.write_text(to_edge_list(bowtie_graph()), encoding="utf-8")
        code, report = run_json(capsys, "convexity-number", "--graph", str(path))
        assert report["result"]["value"] == 3

    def test_sniffs_dimacs_extension(self, capsys, tmp_path):
        path = tmp_path / "bowtie.col"
        path.write_text(to_dimacs(bowtie_graph()), encoding="utf-8")
        code, report = run_json(capsys, "hull-number", "--graph", str(path))
        assert report["result"]["value"] == 2

    def test_format_override(self, capsys, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text(to_dimacs(bowtie_graph()), encoding="utf-8")
        code, report = run_json(
            capsys, "decompose", "--graph", str(path), "--format", "dimacs"
        )
        assert code == 0 and report["graph"]["n"] == 5


class TestExitCodes:
    def test_validation_error_is_one(self, capsys):
        code = cli.main(["convexity-number", "--generate", "path:1"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file_is_one(self, capsys):
        code = cli.main(["decompose", "--graph", "/nonexistent/x.txt"])
        assert code == 1

    def test_usage_error_is_sixtyfour(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["no-such-command"])
        assert exc.value.code == 64
        with pytest.raises(SystemExit) as exc:
            cli.main(["hull"])  # missing required --vertices and graph source
        assert exc.value.code == 64

    def test_checked_belongs_to_enumerate_prime_only(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["hull", "--generate", "path:5", "--vertices", "0", "--checked"])
        assert exc.value.code == 64

    def test_oracle_compare_clean_corpus_is_zero(self, capsys):
        code, report = run_json(capsys, "oracle-compare", "--corpus", "exhaustive:4")
        assert code == 0
        jsonschema.validate(report["result"], load_schema("oracle-compare.json"))
        assert report["result"]["graphs"] == 44
        assert report["result"]["mismatches"] == []

    def test_oracle_compare_mismatch_is_two(self, capsys, monkeypatch):
        from triconvex import oracle

        monkeypatch.setattr(
            oracle, "brute_hull_number", lambda g, budget=None: 99
        )
        code = cli.main(["oracle-compare", "--generate", "cycle:5"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["convex-test", "--generate", "cycle:5", "--vertices", "a"],
            ["hull", "--generate", "cycle:5", "--vertices", "1,x"],
            ["hull", "--generate", "cycle:5", "--vertices", "9"],
            ["oracle-compare", "--corpus", "random:12"],
            ["oracle-compare", "--corpus", "exhaustive:x"],
            ["bench", "--algorithm", "hull", "--sizes", "a"],
            # sizes rejected before allocating: vertex counts past
            # graph.MAX_VERTICES, and 2^21 edge subsets at exhaustive:7
            ["decompose", "--graph", "huge.txt"],
            ["decompose", "--graph", "huge.col"],
            ["decompose", "--generate", "path:1000000000"],
            ["oracle-compare", "--corpus", "exhaustive:7"],
            ["generate", "--generate", "random_connected:1000000000,0"],
            ["oracle-compare", "--corpus", "random:1000000000,1"],
            # --checked rejects a graph that is not prime
            ["enumerate-prime", "--generate", "bowtie", "--checked"],
            # a graph file that is not UTF-8 text
            ["hull", "--graph", "binary.txt", "--vertices", "0"],
            # corpora that would compare no graph at all
            ["oracle-compare", "--corpus", "random:5,0"],
            ["oracle-compare", "--corpus", "random:5,-2"],
            ["oracle-compare", "--corpus", "exhaustive:0"],
            # generator specs short of their parameters, or past them
            ["generate", "--generate", "random_connected:5"],
            ["generate", "--generate", "path:3,9"],
            # past generators.MAX_RANDOM_VERTICES, before the pair scan
            ["generate", "--generate", "random_connected:1000000,0"],
        ],
    )
    def test_malformed_argument_is_a_one_line_error(self, capsys, tmp_path, monkeypatch, argv):
        (tmp_path / "huge.txt").write_text("999999999\n", encoding="utf-8")
        (tmp_path / "huge.col").write_text("p edge 1000000000 0\n", encoding="utf-8")
        (tmp_path / "binary.txt").write_bytes(b"0 1\n\xff\xfe\x00\x01\n")
        monkeypatch.chdir(tmp_path)
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    def test_oracle_compare_random_corpus(self, capsys):
        code, report = run_json(
            capsys, "oracle-compare", "--corpus", "random:7,10", "--seed", "3"
        )
        assert code == 0 and report["result"]["graphs"] == 10


class TestDeterminism:
    def test_identical_runs_identical_output(self, capsys):
        _, first = run(capsys, "hull-number", "--generate", "random_connected:40,0.1,7", "--json")
        _, second = run(capsys, "hull-number", "--generate", "random_connected:40,0.1,7", "--json")
        a, b = json.loads(first), json.loads(second)
        a.pop("wall_ms"), b.pop("wall_ms")
        assert a == b

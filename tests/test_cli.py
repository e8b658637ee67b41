from __future__ import annotations

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import jsonschema
import pytest

from triconvex import cli
from triconvex.errors import ValidationError
from triconvex.generators import (
    MAX_COMPLETE_VERTICES,
    bowtie_graph,
    complete_graph,
    path_graph,
    star_graph,
)
from triconvex.graph import MAX_VERTICES, to_dimacs, to_edge_list

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"


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

    def test_integer_lists_take_spaces_around_fields(self, capsys):
        # each field is stripped before its digits are checked
        code, report = run_json(capsys, "hull", "--generate", "path: 4", "--vertices", "0, 3 ")
        assert code == 0
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
        for algorithm in ("convexity-number", "hull", "convex-test"):
            code, out = run(
                capsys, "bench", "--algorithm", algorithm,
                "--sizes", "12,16,20", "--p", "0.3", "--reps", "2",
            )
            assert code == 0
            lines = out.strip().splitlines()
            assert lines[0] == "algorithm,spec,n,m,median_ms,reps"
            assert len(lines) == 4
            for line, n in zip(lines[1:], (12, 16, 20)):
                # the spec holds a comma of its own
                fields = line.split(",")
                assert fields[0] == algorithm and fields[-1] == "2"
                assert fields[1:4] == [f"random_connected:{n}", "0.3", "0"]
                assert fields[4] == str(n)

    def test_bench_generate_csv_names_each_spec(self, capsys):
        code, out = run(
            capsys, "bench", "--algorithm", "decompose",
            "--generate", "path:40", "--generate", "star:9", "--reps", "2",
        )
        assert code == 0
        assert [line.split(",")[:4] for line in out.strip().splitlines()] == [
            ["algorithm", "spec", "n", "m"],
            ["decompose", "path:40", "40", "39"],
            ["decompose", "star:9", "10", "9"],
        ]

    def test_bench_json_schema(self, capsys):
        code, report = run_json(
            capsys, "bench", "--algorithm", "hull-number", "--sizes", "10", "--reps", "1"
        )
        jsonschema.validate(report["result"], load_schema("bench.json"))
        assert report["result"]["rows"][0]["spec"] == "random_connected:10,0.05,0"

    def test_bench_generate_json_schema(self, capsys):
        code, report = run_json(
            capsys, "bench", "--algorithm", "decompose", "--generate", "random_connected:30,0.1",
            "--generate", "triangle_star:3", "--seed", "4", "--reps", "1",
        )
        assert code == 0
        jsonschema.validate(report["result"], load_schema("bench.json"))
        rows = report["result"]["rows"]
        assert [(row["spec"], row["n"]) for row in rows] == [
            ("random_connected:30,0.1", 30), ("triangle_star:3", 7)
        ]
        assert report["input"] is None

    def test_bench_parse_renders_each_text_once(self, capsys, monkeypatch):
        rendered, parsed = [], []
        render, parse = cli._BENCH_INPUTS["parse"], cli._BENCH_RUNS["parse"]
        monkeypatch.setitem(cli._BENCH_INPUTS, "parse", lambda g: rendered.append(g) or render(g))
        monkeypatch.setitem(cli._BENCH_RUNS, "parse", lambda t: parsed.append(parse(t)))
        code, out = run(
            capsys, "bench", "--algorithm", "parse",
            "--generate", "path:40", "--generate", "star:9", "--reps", "3",
        )
        assert code == 0
        assert [line.split(",")[:4] for line in out.strip().splitlines()[1:]] == [
            ["parse", "path:40", "40", "39"],
            ["parse", "star:9", "10", "9"],
        ]
        assert rendered == [path_graph(40), star_graph(9)]
        assert parsed == [path_graph(40)] * 3 + [star_graph(9)] * 3

    def test_bench_refuses_generate_beside_sizes(self, capsys):
        argv = ["bench", "--algorithm", "decompose", "--generate", "path:5", "--sizes", "5"]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == (
            "error: bench takes --generate or --sizes and --p, not both\n"
        )

    def test_committed_bench_files_match_the_schema(self):
        files = sorted(SCHEMA_DIR.parent.parent.glob("BENCH_*.json"))
        assert files
        for path in files:
            with open(path, encoding="utf-8") as fh:
                record = json.load(fh)
            for run_record in record["runs"]:
                jsonschema.validate(run_record["result"], load_schema("bench.json"))


HUMAN_OUTPUT = {
    "decompose": (
        ["decompose", "--generate", "bowtie"],
        "atom 1: [0, 1, 2]\natom 2: [0, 3, 4]\noverlap R_2: [0]\n",
    ),
    "convex-test convex": (
        ["convex-test", "--generate", "cycle:5", "--vertices", "0,1"],
        "convex\n",
    ),
    "convex-test p3 witness": (
        ["convex-test", "--generate", "cycle:5", "--vertices", "0,2"],
        "not convex: {'kind': 'p3-violation', 'vertex': 1}\n",
    ),
    "convex-test mono witness": (
        ["convex-test", "--generate", "cycle:6", "--vertices", "0,3"],
        "not convex: {'kind': 'mono-violation', 'pair': [0, 3], 'component': [1, 2]}\n",
    ),
    "hull": (["hull", "--generate", "path:4", "--vertices", "0,3"], "hull: [0, 1, 2, 3]\n"),
    "hull of no vertices": (["hull", "--generate", "path:4", "--vertices", ""], "hull: []\n"),
    "enumerate-prime": (
        ["enumerate-prime", "--generate", "complete:3"],
        "5 convex sets\n  []\n  [0]\n  [1]\n  [2]\n  [0, 1, 2]\n",
    ),
    "convexity-number": (
        ["convexity-number", "--generate", "bowtie"],
        "convexity number: 3 witness: [0, 3, 4]\n",
    ),
    "hull-number": (
        ["hull-number", "--generate", "cycle:5"],
        "hull number: 2 hull set: [0, 2]\n",
    ),
    "oracle-compare": (
        ["oracle-compare", "--generate", "cycle:5"],
        "compared 1 graph(s): 0 mismatch(es)\n",
    ),
    "generate isolated vertex": (["generate", "--generate", "path:1"], "0\n"),
}


@pytest.mark.parametrize("case", HUMAN_OUTPUT)
def test_human_output(capsys, case):
    argv, expected = HUMAN_OUTPUT[case]
    code, out = run(capsys, *argv)
    assert code == 0
    assert out == expected


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

    def test_unknown_corpus_kind_is_a_validation_error(self, capsys):
        with pytest.raises(ValidationError):
            cli._corpus_graphs("moebius:3", 0)
        assert cli.main(["oracle-compare", "--corpus", "moebius:3"]) == 1
        assert capsys.readouterr().err == "error: unknown corpus spec 'moebius:3'\n"

    def test_enumerate_prime_has_no_checked_flag(self, capsys):
        # enumerate-prime checks primality every time
        with pytest.raises(SystemExit) as exc:
            cli.main(["enumerate-prime", "--generate", "cycle:5", "--checked"])
        assert exc.value.code == 64

    def test_oracle_compare_clean_corpus_is_zero(self, capsys):
        code, report = run_json(capsys, "oracle-compare", "--corpus", "exhaustive:4")
        assert code == 0
        jsonschema.validate(report["result"], load_schema("oracle-compare.json"))
        assert report["result"]["graphs"] == 44
        assert report["result"]["mismatches"] == []

    def test_oracle_compare_mismatch_is_two(self, capsys, monkeypatch):
        from triconvex import oracle

        monkeypatch.setattr(oracle, "brute_hull_number", lambda g: 99)
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
            # enumerate-prime rejects a graph that is not prime
            ["enumerate-prime", "--generate", "bowtie"],
            # a graph file that is not UTF-8 text
            ["hull", "--graph", "binary.txt", "--vertices", "0"],
            # corpora that would compare no graph at all
            ["oracle-compare", "--corpus", "random:5,0"],
            ["oracle-compare", "--corpus", "random:5,-2"],
            ["oracle-compare", "--corpus", "exhaustive:0"],
            # a corpus spec with a parameter too many, and an unknown kind
            ["oracle-compare", "--corpus", "exhaustive:1,2"],
            ["oracle-compare", "--corpus", "moebius:3"],
            # generator specs short of their parameters, or past them
            ["generate", "--generate", "random_connected:5"],
            ["generate", "--generate", "path:3,9"],
            # past generators.MAX_RANDOM_VERTICES, before the pair scan
            ["generate", "--generate", "random_connected:1000000,0"],
            # no timing repetition at all
            ["bench", "--algorithm", "hull", "--sizes", "10", "--reps", "0"],
            ["bench", "--algorithm", "hull", "--sizes", "10", "--reps", "-3"],
            # --generate times its own graphs: it takes no --sizes or --p,
            # and bench times nothing without one or the other
            ["bench", "--algorithm", "hull", "--generate", "path:5", "--sizes", "5"],
            ["bench", "--algorithm", "hull", "--generate", "path:5", "--p", "0.1"],
            ["bench", "--algorithm", "hull"],
            ["bench", "--algorithm", "decompose", "--generate", "path:x"],
            # P4 is not prime: enumerated anyway, it listed 9 of its 11
            # convex sets
            ["enumerate-prime", "--generate", "path:4"],
            # one past the vertex cap, whose rows would hold n^2/16 bytes,
            # and one past complete_graph's cap, before its edge loop
            ["enumerate-prime", "--generate", f"path:{MAX_VERTICES + 1}"],
            ["hull", "--graph", "capped.col", "--vertices", "0"],
            ["enumerate-prime", "--generate", f"complete:{MAX_COMPLETE_VERTICES + 1}"],
            # refused at the line that crosses the cap, not after the last
            # (P_1,000,000 took 2-3 s and 230 MB to be refused at its end):
            # a path edge list whose line 50,000 names vertex 50,000, and a
            # DIMACS header past the cap followed by its edge lines
            ["decompose", "--graph", "long.txt"],
            ["decompose", "--graph", "long.col"],
            # a vertex of a graph with no vertices, once "outside 0..-1"
            ["hull", "--graph", "empty.txt", "--vertices", "0"],
            # integers that int() reads but graph files refuse: a "+" sign,
            # "_" between digits and digits of another script, which int()
            # reads as 10 and 1, as 3, and as path:12
            ["hull", "--generate", "path:12", "--vertices", "1_0,+1"],
            ["hull", "--generate", "path:12", "--vertices", "\u0663,0"],
            ["decompose", "--generate", "path:1_2"],
            ["generate", "--generate", "random_connected:10,0.5,+1"],
            ["bench", "--algorithm", "hull", "--sizes", "1_0"],
            ["oracle-compare", "--corpus", "exhaustive:+3"],
        ],
    )
    def test_malformed_argument_is_a_one_line_error(self, capsys, tmp_path, monkeypatch, argv):
        (tmp_path / "huge.txt").write_text("999999999\n", encoding="utf-8")
        (tmp_path / "huge.col").write_text("p edge 1000000000 0\n", encoding="utf-8")
        (tmp_path / "binary.txt").write_bytes(b"0 1\n\xff\xfe\x00\x01\n")
        (tmp_path / "empty.txt").write_text("", encoding="utf-8")
        (tmp_path / "capped.col").write_text(f"p edge {MAX_VERTICES + 1} 0\n", encoding="utf-8")
        if "long.txt" in argv:
            lines = (f"{i} {i + 1}\n" for i in range(999_999))
            (tmp_path / "long.txt").write_text("".join(lines), encoding="utf-8")
        if "long.col" in argv:
            lines = (f"e {i} {i + 1}\n" for i in range(1, 1_000_000))
            header = "p edge 1000000 999999\n"
            (tmp_path / "long.col").write_text(header + "".join(lines), encoding="utf-8")
        monkeypatch.chdir(tmp_path)

        # main reports OSError as a one-line error, so the alarm raises
        # something it lets through
        def stop(signum, frame):
            raise AssertionError("the argument was not refused in time")

        previous = signal.signal(signal.SIGALRM, stop)
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        try:
            code = cli.main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    def test_oversized_random_corpus_fails_before_any_graph_is_built(self, capsys):
        # 1000 graphs of 20,000 vertices take minutes to build and gigabytes
        # to hold; the size is refused from the spec alone, well inside the
        # alarm. main reports OSError as a one-line error, so the alarm
        # raises something it lets through.
        def stop(signum, frame):
            raise AssertionError("the corpus was built")

        previous = signal.signal(signal.SIGALRM, stop)
        signal.setitimer(signal.ITIMER_REAL, 2.0)
        try:
            code = cli.main(["oracle-compare", "--corpus", "random:20000,1000"])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

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


class TestReport:
    def test_oracle_compare_mismatch_is_an_indented_line(self, capsys, monkeypatch):
        from triconvex import oracle

        monkeypatch.setattr(oracle, "brute_hull_number", lambda g: 99)
        code, out = run(capsys, "oracle-compare", "--generate", "cycle:5")
        assert code == 2
        lines = out.splitlines()
        assert lines[0] == "compared 1 graph(s): 1 mismatch(es)"
        assert len(lines) == 2 and lines[1].startswith("  graph[0] (n=5, m=5): ")

    def test_generate_report(self, capsys):
        code, report = run_json(capsys, "generate", "--generate", "cycle:4")
        assert code == 0
        assert report["input"] == "cycle:4"
        assert report["graph"] == {"n": 4, "m": 4, "atoms": None}
        assert report["result"] == {"n": 4, "edges": [[0, 1], [0, 3], [1, 2], [2, 3]]}

    def test_input_names_the_source(self, capsys, tmp_path):
        path = tmp_path / "bowtie.txt"
        path.write_text(to_edge_list(bowtie_graph()), encoding="utf-8")
        _, report = run_json(capsys, "hull", "--graph", str(path), "--vertices", "1,3")
        assert report["input"] == str(path)
        _, report = run_json(capsys, "oracle-compare", "--corpus", "exhaustive:2")
        assert report["input"] == "exhaustive:2"
        assert report["graph"] == {"n": None, "m": None, "atoms": None}
        _, report = run_json(
            capsys, "bench", "--algorithm", "hull", "--sizes", "5", "--reps", "1"
        )
        assert report["input"] is None

    def test_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        helps = {
            "decompose": "maximal prime subgraphs and overlap sets",
            "convex-test": "test a vertex set for convexity",
            "hull": "convex hull of a vertex set",
            "enumerate-prime": "all convex sets of a prime graph",
            "convexity-number": "maximum proper convex set",
            "hull-number": "minimum hull set",
            "oracle-compare": "cross-validate against brute force",
            "bench": "timing table over generated graphs",
            "generate": "write a generated graph as an edge list",
        }
        for name, text in helps.items():
            assert re.search(rf"^ +{name} +{re.escape(text)}$", out, re.M), name


def subcommands() -> list[str]:
    parser = cli.build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return list(action.choices)


# One run per subcommand for the schema guard; a subcommand missing here
# fails the guard.
SCHEMA_ARGV = {
    "decompose": ["--generate", "bowtie"],
    "convex-test": ["--generate", "cycle:6", "--vertices", "0,3"],
    "hull": ["--generate", "path:4", "--vertices", "0,3"],
    "enumerate-prime": ["--generate", "cycle:5"],
    "convexity-number": ["--generate", "bowtie"],
    "hull-number": ["--generate", "cycle:5"],
    "oracle-compare": ["--generate", "cycle:5"],
    "bench": ["--algorithm", "hull", "--sizes", "8", "--reps", "1"],
    "generate": ["--generate", "triangle_star:2"],
}


@pytest.mark.parametrize("name", subcommands())
def test_every_subcommand_has_a_schema(capsys, name):
    schema = SCHEMA_DIR / f"{name}.json"
    assert schema.is_file()
    code, report = run_json(capsys, name, *SCHEMA_ARGV[name])
    assert code == 0 and report["command"] == name
    jsonschema.validate(report["result"], load_schema(schema.name))


class TestOutput:
    @pytest.mark.parametrize(
        "argv, read_first_line",
        [
            (["generate", "--generate", "path:40000", "--json"], True),
            (["generate", "--generate", "path:40000"], True),
            # a short report fits in the pipe, so the pipe closes before it
            (["decompose", "--generate", "path:3", "--json"], False),
        ],
    )
    def test_closed_stdout_is_one_line_and_exit_one(self, argv, read_first_line):
        read_end, write_end = os.pipe()
        reader = os.fdopen(read_end, "rb")
        if not read_first_line:
            reader.close()
        proc = subprocess.Popen(
            [sys.executable, "-m", "triconvex.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
        )
        os.close(write_end)
        if read_first_line:
            assert reader.readline()
            reader.close()
        err = proc.communicate(timeout=60)[1].decode()
        assert proc.returncode == 1
        assert "Traceback" not in err and "Exception" not in err
        assert err.count("\n") <= 1

    @staticmethod
    def traced_peak(monkeypatch, argv):
        """Exit code and tracemalloc peak of ``argv`` writing to the null
        device."""
        with open(os.devnull, "w", encoding="utf-8") as null:
            monkeypatch.setattr(sys, "stdout", null)
            tracemalloc.start()
            try:
                code = cli.main(argv)
                return code, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    def test_generate_streams_the_edge_list(self, capsys, monkeypatch):
        argv = ["generate", "--generate", "complete:300"]
        _, out = run(capsys, *argv)
        assert out == to_edge_list(complete_graph(300))
        code, peak = self.traced_peak(monkeypatch, argv)
        assert code == 0
        # the 44,850 edges as one string take 3.8 MB, as pairs more
        assert peak < 1_000_000

    def test_generate_json_streams_the_report(self, capsys, monkeypatch):
        argv = ["generate", "--generate", "complete:300", "--json"]
        _, out = run(capsys, *argv)
        # written chunk by chunk, it is the text json.dumps makes of it
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
        code, peak = self.traced_peak(monkeypatch, argv)
        assert code == 0
        # the edges as tuples take 3.6 MB; the report as one indented
        # string would take 16 MB
        assert peak < 6_000_000, peak

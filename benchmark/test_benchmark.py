"""Tests of the benchmark itself, at the tiny scale of every workload.

    python3 -m pytest benchmark -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import import_library

import_library()

import harness  # noqa: E402
import tracer  # noqa: E402
from inputs import build_graph  # noqa: E402
from workloads import FULL, TINY  # noqa: E402

HERE = Path(__file__).resolve().parent
BENCHMARK_JSON = HERE.parent / "BENCHMARK.json"


def tiny_run(workload: str, trace: bool) -> harness.RunResult:
    return harness.run(workload, 0, 0.0, trace, scale="tiny")


@pytest.mark.parametrize("workload", sorted(TINY))
def test_smoke_run_passes_and_matches_expected(workload):
    result = tiny_run(workload, trace=False)
    assert result.attempted > 0
    assert result.failed == 0, result.notes
    assert set(result.metrics) == set(harness.END_TO_END_UNITS)
    expected = harness.load_expected("tiny", workload, 0)
    assert expected is not None
    assert result.digests == expected


@pytest.mark.parametrize("workload", sorted(FULL))
def test_one_seed_gives_identical_text_and_two_seeds_differ(workload):
    spec = FULL[workload].graphs[0]
    a = build_graph(workload, 7, 0, spec)
    b = build_graph(workload, 7, 0, spec)
    c = build_graph(workload, 8, 0, spec)
    assert a.edge_list_text() == b.edge_list_text()
    assert a.dimacs_text() == b.dimacs_text()
    assert a.queries == b.queries
    assert (a.edge_list_text(), a.queries) != (c.edge_list_text(), c.queries)


def test_a_wrong_answer_is_counted_as_failed(monkeypatch):
    monkeypatch.setattr(harness.convexity, "t_convex_hull", lambda g, s: s)
    result = tiny_run("sparse-atoms", trace=False)
    assert result.failed > 0
    assert any("failed its check" in note for note in result.notes)


def test_wrappers_are_restored_after_a_traced_run():
    before = [getattr(p.owner, p.attribute) for p in tracer.WRAP_POINTS]
    result = tiny_run("sparse-atoms", trace=True)
    after = [getattr(p.owner, p.attribute) for p in tracer.WRAP_POINTS]
    assert all(x is y for x, y in zip(before, after))
    assert not any(hasattr(f, "__wrapped__") for f in after)
    assert result.failed == 0, result.notes


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_and_untraced_runs_give_identical_answers(workload):
    plain = tiny_run(workload, trace=False)
    traced = tiny_run(workload, trace=True)
    assert traced.failed == 0, traced.notes
    # The traced run alternates plain and traced passes; the last one is traced.
    assert traced.answers[-1] == plain.answers[0]
    assert set(traced.metrics) == set(harness.PER_LAYER_UNITS)


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(FULL)


def test_removed_wrap_point_makes_its_metrics_absent(monkeypatch):
    points = tuple(
        tracer.WrapPoint(p.owner, "_no_such_sweep", p.span) if p.span == "hull_number.sweep" else p
        for p in tracer.WRAP_POINTS
    )
    monkeypatch.setattr(harness, "Tracer", lambda: tracer.Tracer(points))
    result = tiny_run("trees", trace=True)
    assert result.failed == 0, result.notes
    assert "hull_number.sweep.s" not in result.metrics
    assert "decomposition.mcs_m.s" in result.metrics
    assert any("_no_such_sweep" in note for note in result.notes)


def test_exits_nonzero_without_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCHMARK_JSON, tmp_path / BENCHMARK_JSON.name)
    command = json.loads(BENCHMARK_JSON.read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", "trees", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout

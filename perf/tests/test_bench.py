"""The benchmark at tiny sizes: workloads, gates, tracing, metric names, BENCHMARK.json.

Run with ``python -m pytest perf/tests -q`` from the repository root.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import inputs
import layers
import run
import trace
import workloads

ROOT = Path(__file__).resolve().parents[2]
SECONDS = 3.0

TINY = {
    "fit-tall": dict(num_u=600, num_v=150, edges=3000, zipf=0.8, dimension=8,
                     ingests=1, min_repeats=2, ooc_budget_mb=None, publish_graph=True),
    "fit-dense": dict(num_u=200, num_v=80, edges=6000, zipf=0.0, dimension=8,
                      ingests=1, min_repeats=2, ooc_budget_mb=1, publish_graph=False),
    "serve-topk": dict(num_u=500, num_v=800, dimension=8, mask_edges=2000, rate=40.0,
                       user_zipf=1.1, deadline_ms=1000.0, spawns=1, samples=10),
    "serve-mixed-refresh": dict(num_u=150, num_v=60, edges=800, zipf=0.8, dimension=8, rate=40.0,
                                deadline_ms=30000.0, spawns=1, cycles=1, reweight=0.05, samples=10),
}

#: Per-layer metrics that only move when something goes wrong.
FAILURE_COUNTERS = {
    "serve.server.shed", "serve.server.deadline_exceeded", "serve.server.errors", "loadgen.failed",
}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Every workload, traced, at tiny sizes: {workload: (result, per-layer metrics)}."""
    base = tmp_path_factory.mktemp("bench")
    out = {}
    for name in workloads.WORKLOADS:
        ctx = workloads.Context(cache=base / "cache", work=base / name, trace=True)
        result = workloads.run(name, 0, SECONDS, ctx, TINY[name])
        out[name] = (result, layers.per_layer(result.observed))
    return out


def test_tiny_sizes_cover_every_size_key():
    for name in workloads.WORKLOADS:
        assert set(TINY[name]) == set(workloads.SIZES[name])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_passes_its_gates_and_reports_every_metric(traced, name):
    result, per_layer = traced[name]
    assert [c for c in result.checks if not c["ok"]] == []
    assert result.failed == 0 and result.attempted >= 1
    assert set(result.end_to_end) == {m[0] for m in workloads.END_TO_END}
    assert all(value > 0 for value in result.end_to_end.values()), result.end_to_end
    assert set(per_layer) == {m[0] for m in layers.PER_LAYER}


def test_untraced_run_reports_end_to_end_metrics(tmp_path):
    ctx = workloads.Context(cache=tmp_path / "cache", work=tmp_path / "work", trace=False)
    result = workloads.run("fit-dense", 1, SECONDS, ctx, TINY["fit-dense"])
    assert all(c["ok"] for c in result.checks)
    assert result.observed is None
    assert all(value > 0 for value in result.end_to_end.values())


def test_every_call_site_fires_in_some_workload(traced):
    fired = set()
    for result, _ in traced.values():
        for dumps in result.roles.values():
            for dump in dumps:
                fired |= set(dump["fired"])
    assert fired == trace.ALL_SITES


def test_every_per_layer_metric_moves_on_some_workload(traced):
    for name, _, _, _ in layers.PER_LAYER:
        if name in FAILURE_COUNTERS:
            continue
        assert any(per_layer[name] > 0 for _, per_layer in traced.values()), name


def test_attributions_cover_the_workloads(traced):
    for name, (result, per_layer) in traced.items():
        claims = layers.attributions(name, per_layer, result.end_to_end, result.model_versions)
        assert claims and all(isinstance(c["holds"], bool) for c in claims)
    mixed, per_layer = traced["serve-mixed-refresh"]
    assert per_layer["tasks.similarity.h_diagonal_calls"] == 2 * mixed.model_versions


def test_self_time_subtracts_same_thread_children_only():
    spans = [
        ["outer", 0.0, 10.0, None, 1, None, {}],
        ["inner", 1.0, 4.0, 0, 1, None, {}],
        ["inner", 5.0, 6.0, 0, 1, None, {}],
        ["worker", 2.0, 9.0, 0, 2, None, {}],  # another thread: overlaps, not subtracted
    ]
    assert trace.self_times(spans) == [6.0, 3.0, 1.0, 7.0]


def test_inputs_are_a_function_of_the_seed():
    size = TINY["fit-tall"]
    a = inputs.edge_sample(3, size["num_u"], size["num_v"], size["edges"], size["zipf"])
    b = inputs.edge_sample(3, size["num_u"], size["num_v"], size["edges"], size["zipf"])
    c = inputs.edge_sample(4, size["num_u"], size["num_v"], size["edges"], size["zipf"])
    assert all((x == y).all() for x, y in zip(a, b))
    assert not all((x == y).all() for x, y in zip(a, c))
    # Every node has an edge, so the graph's shape is the same for every seed.
    assert len(set(a[0].tolist())) == size["num_u"] and len(set(c[1].tolist())) == size["num_v"]
    schedule = inputs.mixed_schedule(3, TINY["serve-mixed-refresh"], 10.0)
    assert schedule == inputs.mixed_schedule(3, TINY["serve-mixed-refresh"], 10.0)
    assert len(schedule) == 400


def test_metric_names_follow_the_contract():
    names = [m[0] for m in workloads.END_TO_END] + [m[0] for m in layers.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "perf/run.py"]
    assert spec["paths"] == ["perf"]
    assert spec["run_seconds"] == run.DEFAULT_SECONDS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    end_to_end = [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    assert end_to_end == list(workloads.END_TO_END)
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert per_layer == [m[:3] for m in layers.PER_LAYER]
    assert max(m["bound"] for m in spec["end_to_end"]) == dict(
        (m["name"], m["bound"]) for m in spec["end_to_end"])["setup_s"]


def test_run_fails_without_the_program(tmp_path):
    ignore = shutil.ignore_patterns(".cache", ".out", "__pycache__")
    shutil.copytree(ROOT / "perf", tmp_path / "perf", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "fit-tall", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""

"""Tests for the benchmark harness, its axis table and the BENCH_*.json schema.

Most tests share one seconds-scale document with every axis switched on
(``full``); schema tests mutate copies of its real rows.
"""

import copy
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import repro.bench
from repro.bench import (
    AXES,
    BENCH_SCHEMA_NAME,
    BENCH_SCHEMA_VERSION,
    BenchConfig,
    compare_bench,
    load_bench,
    render_bench,
    render_compare,
    run_bench,
    validate_bench,
    violations,
    write_bench,
)
from repro.cli import build_parser, main

ALL = replace(
    BenchConfig.smoke(), serve_smoke=True, ann=True, quant=True, refresh=True,
    ooc=True, similar=True,
)
AXIS = {axis.key: axis for axis in AXES}
SNAPSHOT = Path(__file__).resolve().parent.parent / "BENCH_gebe.json"
#: Every hard gate of the table, as (rows key, gate name).
GATES = [
    ("comparisons", "matvecs_equal"),
    ("topk_comparisons", "lists_equal"),
    ("serve_runs", "lists_equal"),
    ("ann_runs", "exact_match"),
    ("quant_runs", "lists_equal"),
    ("refresh_runs", "quality_ok"),
    ("refresh_runs", "warm_saves_matvecs"),
    ("refresh_runs", "delta_publish_smaller"),
    ("ooc_runs", "bit_identical"),
    ("ooc_runs", "matvecs_equal"),
    ("ooc_runs", "rss_within_budget"),
    ("similar_runs", "lists_equal"),
]


@pytest.fixture(scope="module")
def full():
    return run_bench(ALL)


def _row(doc, key, index=-1, **overrides):
    """A copy of one real row of ``doc[key]`` with fields replaced."""
    return dict(doc[key][index], **overrides)


def _rejects(doc, match, **lists):
    with pytest.raises(ValueError, match=match):
        validate_bench(dict(doc, **lists))


def _alone(doc, key, rows):
    """``doc`` with ``rows`` as its only non-empty rows list."""
    return validate_bench({**doc, **{axis.key: [] for axis in AXES}, key: rows})


def _broken(doc, key, index=-1, **overrides):
    broken = copy.deepcopy(doc)
    broken[key][index].update(overrides)
    return broken, broken[key][index]


def _policies(doc):
    return {row["policy"] for row in compare_bench(doc, doc)["rows"]}


def _gate_rows(doc, key):
    return [row for axis, _, row in violations(doc) if axis.key == key]


def _json_round_trip(doc, key, tmp_path):
    path = tmp_path / "bench.json"
    write_bench(doc, str(path))
    assert load_bench(str(path))[key] == doc[key]


class TestBenchConfig:
    def test_defaults_cover_two_zoo_datasets(self):
        config = BenchConfig()
        assert len(config.datasets) >= 2
        assert "GEBE^p" in config.methods
        assert any(name.startswith("GEBE (") for name in config.methods)

    def test_policy_grid(self):
        policies = [p.describe() for p in BenchConfig().policies()]
        assert policies == ["float64/workspace", "float32/workspace"]
        lean = BenchConfig(float32=False).policies()
        assert [p.describe() for p in lean] == ["float64/workspace"]

    def test_unknown_dataset_rejected(self):
        with pytest.raises(KeyError, match="unknown dataset"):
            run_bench(BenchConfig(datasets=("nope",), repeats=1))

    def test_policy_rows_pinned_serial(self):
        # Dtype rows never inherit REPRO_NUM_THREADS; threads get own rows.
        assert all(p.n_threads == 1 for p in BenchConfig().policies())

    def test_thread_counts_sorted_unique(self):
        assert BenchConfig(threads=(4, 1, 2, 4)).thread_counts() == [1, 2, 4]
        with pytest.raises(ValueError, match="threads"):
            BenchConfig(threads=(0,)).thread_counts()


class TestRunBench:
    def test_smoke_document_validates(self, full):
        assert full["schema"] == BENCH_SCHEMA_NAME
        assert full["version"] == BENCH_SCHEMA_VERSION
        assert all(full[axis.key] for axis in AXES)
        validate_bench(full)

    def test_covers_grid(self, full):
        per_cell = len(ALL.policies()) + len([t for t in ALL.thread_counts() if t > 1])
        assert len(full["runs"]) == len(ALL.datasets) * len(ALL.methods) * per_cell

    def test_thread_rows_present(self, full):
        assert {run["threads"] for run in full["runs"]} == set(ALL.thread_counts())
        for run in full["runs"]:
            if run["threads"] > 1:
                assert run["policy"] == "float64/workspace"
            assert run["workspace_bytes"] >= 0

    def test_matvec_counts_identical_across_kernel_paths(self, full):
        assert full["comparisons"]
        assert all(row["matvecs_equal"] for row in full["comparisons"])

    def test_comparisons_cover_every_new_kernel_policy(self, full):
        # The float32 row is compared against the float64 row per cell.
        dtype_rows = [r for r in full["comparisons"] if r["candidate_threads"] == 1]
        assert {r["candidate_policy"] for r in dtype_rows} == {"float32/workspace"}
        assert len(dtype_rows) == len(ALL.datasets) * len(ALL.methods)
        assert all(r["baseline_policy"] == "float64/workspace" for r in dtype_rows)
        assert all(r["baseline_threads"] == 1 for r in dtype_rows)

    def test_comparisons_cover_every_thread_count(self, full):
        thread_rows = [r for r in full["comparisons"] if r["candidate_threads"] > 1]
        extra = [t for t in ALL.thread_counts() if t > 1]
        assert len(thread_rows) == len(ALL.datasets) * len(ALL.methods) * len(extra)
        for row in thread_rows:
            assert row["baseline_threads"] == 1
            assert row["baseline_policy"] == row["candidate_policy"]
            assert row["matvecs_equal"]

    def test_float32_rows_present(self, full):
        assert "float32/workspace" in {run["policy"] for run in full["runs"]}

    def test_topk_axis_rows(self, full):
        rows = full["topk_runs"]
        assert {row["dataset"] for row in rows} == set(ALL.datasets)
        assert [row["mode"] for row in rows].count("per_user") == 1
        # One masked row per block size, one unmasked, one threaded.
        masked_serial = [
            r["block_rows"] for r in rows
            if r["mode"] == "batched" and r["exclude"] and r["threads"] == 1
        ]
        assert masked_serial == sorted(set(ALL.topk_block_rows))
        assert sum(1 for r in rows if not r["exclude"]) == 1
        assert any(r["threads"] > 1 for r in rows)
        for row in rows[1:]:
            assert row["candidates"] == row["num_users"] * row["num_items"]
            assert row["gemms"] >= 1

    def test_topk_lists_identical_to_per_user(self, full):
        assert full["topk_comparisons"]
        for row in full["topk_comparisons"]:
            assert row["baseline_mode"] == "per_user" and row["lists_equal"]

    def test_topk_render_mentions_modes(self, full):
        text = render_bench(full)
        assert "per_user" in text and "batched" in text

    def test_json_round_trip(self, full, tmp_path):
        _json_round_trip(full, "runs", tmp_path)

    def test_render_mentions_every_run(self, full):
        text = render_bench(full)
        assert "GEBE^p" in text
        assert all(axis.title in text for axis in AXES)


class TestBenchSchemaValidation:
    def test_rejects_non_dict(self):
        with pytest.raises(ValueError, match="top level"):
            validate_bench([])

    def test_rejects_wrong_schema_name(self, full):
        _rejects(full, "schema", schema="other")

    def test_rejects_wrong_version(self, full):
        # Only v9 is read; older snapshots are not upgraded.
        for version in (1, 8, 99):
            _rejects(full, f"version must be 9, got {version}", version=version)

    def test_rejects_both_axes_empty(self, full):
        _rejects(full, "must not all be empty", **{axis.key: [] for axis in AXES})

    def test_single_axis_documents_validate(self, full):
        for axis in AXES:
            _alone(full, axis.key, full[axis.key])

    def test_rejects_bad_topk_mode(self, full):
        _rejects(full, "mode", topk_runs=[_row(full, "topk_runs", mode="vectorized")])

    def test_rejects_batched_row_without_block(self, full):
        row = _row(full, "topk_runs", block_rows=None)
        _rejects(full, "block_rows is required for batched rows", topk_runs=[row])

    def test_rejects_missing_topk_comparison_key(self, full):
        row = _row(full, "topk_comparisons")
        del row["lists_equal"]
        _rejects(full, "missing 'lists_equal'", topk_comparisons=[row])

    def test_rejects_missing_run_key(self, full):
        row = _row(full, "runs")
        del row["matvecs"]
        _rejects(full, "matvecs", runs=[row])

    def test_rejects_negative_wall(self, full):
        _rejects(full, "wall_seconds", runs=[_row(full, "runs", wall_seconds=-1.0)])

    def test_rejects_bool_as_int(self, full):
        _rejects(full, "matvecs", runs=[_row(full, "runs", matvecs=True)])


class TestBenchCli:
    def test_smoke_writes_valid_file(self, tmp_path, capsys):
        out = tmp_path / "BENCH_cli.json"
        assert main(["bench", "--smoke", "--output", str(out)]) == 0
        validate_bench(json.loads(out.read_text()))
        assert "wrote" in capsys.readouterr().out

    def test_overrides_apply(self, tmp_path):
        out = tmp_path / "BENCH_cli.json"
        argv = ["bench", "--smoke", "--no-float32", "--repeats", "1", "--output", str(out)]
        assert main(argv) == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["float32"] is False
        assert "float32/workspace" not in {run["policy"] for run in payload["runs"]}

    def test_threads_override(self, tmp_path):
        out = tmp_path / "BENCH_cli.json"
        assert main(["bench", "--smoke", "--threads", "1", "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["threads"] == [1]
        assert {run["threads"] for run in payload["runs"]} == {1}

    def test_threads_rejects_zero(self, tmp_path, capsys):
        out = tmp_path / "BENCH_cli.json"
        assert main(["bench", "--smoke", "--threads", "0", "--output", str(out)]) == 2
        assert "threads" in capsys.readouterr().err

    def test_compare_against_self_passes(self, tmp_path, capsys):
        out, fresh = tmp_path / "BENCH_a.json", tmp_path / "BENCH_b.json"
        assert main(["bench", "--smoke", "--output", str(out)]) == 0
        # Smoke cells run in milliseconds; a wide threshold keeps this stable.
        argv = ["bench", "--smoke", "--output", str(fresh), "--compare", str(out)]
        assert main(argv + ["--noise", "25"]) == 0
        captured = capsys.readouterr()
        assert "bench compare" in captured.out and "verdict: ok" in captured.out

    def test_topk_only(self, tmp_path):
        out = tmp_path / "BENCH_cli.json"
        assert main(["bench", "--smoke", "--topk-only", "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["runs"] == [] and payload["topk_runs"]

    def test_no_topk(self, tmp_path):
        out = tmp_path / "BENCH_cli.json"
        assert main(["bench", "--smoke", "--no-topk", "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["topk_runs"] == [] and payload["runs"]

    def test_no_topk_conflicts_with_topk_only(self, capsys):
        assert main(["bench", "--smoke", "--no-topk", "--topk-only"]) == 2
        assert "conflict" in capsys.readouterr().err

    def test_compare_missing_baseline_errors(self, tmp_path, capsys):
        argv = ["bench", "--smoke", "--output", str(tmp_path / "BENCH_cli.json"),
                "--compare", str(tmp_path / "nope.json")]
        assert main(argv) == 2
        assert "cannot load" in capsys.readouterr().err

    def test_axis_flags_come_from_the_table(self):
        flags = {
            option
            for action in build_parser()._subparsers._group_actions[0]
            .choices["bench"]._actions
            for option in action.option_strings
        }
        for axis in AXES:
            if axis.flag is not None:
                on = getattr(BenchConfig, axis.switch)
                assert (f"--no-{axis.flag}" if on else f"--{axis.flag}") in flags
                assert (f"--{axis.flag}-only" in flags) == axis.only

    def test_other_commands_do_not_load_the_bench(self):
        code = ("import sys, repro.cli; print('repro.bench' in sys.modules); "
                "repro.cli.main(['datasets']); print('repro.bench' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True).stdout.split()
        assert (out[0], out[-1]) == ("False", "False")


class TestGates:
    def test_table_declares_exactly_the_hard_gates(self):
        declared = [(axis.key, gate) for axis in AXES for gate, _ in axis.gates]
        assert declared == GATES

    @pytest.mark.parametrize("key, gate", GATES, ids=[f"{k}-{g}" for k, g in GATES])
    def test_each_gate_fails_compare_and_the_cli(
        self, full, key, gate, tmp_path, monkeypatch, capsys
    ):
        assert violations(full) == []
        change = {gate: False}
        if gate == "warm_saves_matvecs":  # warm (last) as costly as cold (first)
            change = {"matvecs": full[key][0]["matvecs"]}
        if gate == "delta_publish_smaller":
            change = {"publish_bytes": full[key][-1]["full_publish_bytes"]}
        broken, row = _broken(full, key, **change)
        assert [(a.key, g) for a, g, r in violations(broken)] == [(key, gate)]
        assert compare_bench(full, broken)["invariant_violations"] == [row]
        monkeypatch.setattr(repro.bench, "run_bench", lambda config, progress: broken)
        out = str(tmp_path / "bench.json")
        assert main(["bench", "--smoke", "--output", out]) == 1
        assert f"hard gate {gate} failed" in capsys.readouterr().err


class TestSnapshot:
    def test_committed_snapshot_loads_and_self_compares(self):
        snapshot = load_bench(str(SNAPSHOT))
        result = compare_bench(snapshot, snapshot)
        assert len(result["rows"]) >= 56
        assert result["matvec_drift"] == [] and result["invariant_violations"] == []
        assert result["regressions"] == [] and "verdict: ok" in render_compare(result)


class TestCompareBench:
    def test_self_compare_is_clean(self, full):
        result = compare_bench(full, full)
        assert len(result["rows"]) == sum(len(full[a.key]) for a in AXES if a.label)
        assert result["regressions"] == [] and result["matvec_drift"] == []
        assert result["missing"] == [] and result["added"] == []
        assert "verdict: ok" in render_compare(result)

    def test_flags_wall_time_regression(self, full):
        slow, row = _broken(full, "runs", 0)
        row["wall_seconds"] *= 10.0
        result = compare_bench(full, slow, noise=0.25, min_seconds=0.0)
        assert len(result["regressions"]) == 1
        assert result["regressions"][0]["ratio"] == pytest.approx(10.0)
        assert "REGRESSION" in render_compare(result)

    def test_noise_threshold_suppresses_small_slowdowns(self, full):
        slow, row = _broken(full, "runs", 0)
        row["wall_seconds"] *= 1.2
        assert compare_bench(full, slow, noise=0.25, min_seconds=0.0)["regressions"] == []
        assert compare_bench(full, slow, noise=0.1, min_seconds=0.0)["regressions"]

    def test_absolute_floor_suppresses_millisecond_jitter(self, full):
        # A 10 ms slowdown is scheduler noise; 3 s -> 6 s is real.
        wall = full["runs"][0]["wall_seconds"]
        slow, _ = _broken(full, "runs", 0, wall_seconds=wall + 0.01)
        assert compare_bench(full, slow, noise=0.0)["regressions"] == []
        big_old, _ = _broken(full, "runs", 0, wall_seconds=3.0)
        big_new, _ = _broken(full, "runs", 0, wall_seconds=6.0)
        assert compare_bench(big_old, big_new)["regressions"]

    def test_rejects_negative_min_seconds(self, full):
        with pytest.raises(ValueError, match="min_seconds"):
            compare_bench(full, full, min_seconds=-1.0)

    def test_rejects_negative_noise(self, full):
        with pytest.raises(ValueError, match="noise"):
            compare_bench(full, full, noise=-0.1)

    def test_flags_matvec_drift(self, full):
        drifted, row = _broken(full, "runs", 0)
        row["matvecs"] += 7
        result = compare_bench(full, drifted)
        assert len(result["matvec_drift"]) == 1
        assert "MATVEC-DRIFT" in render_compare(result)

    def test_reports_missing_and_added_cells(self, full):
        pruned = copy.deepcopy(full)
        dropped = pruned["runs"].pop()
        result = compare_bench(full, pruned)
        assert result["missing"] == [
            (dropped["method"], dropped["dataset"], dropped["policy"], dropped["threads"])
        ]
        assert compare_bench(pruned, full)["added"] == result["missing"]

    def test_surfaces_internal_invariant_violations(self, full):
        broken, row = _broken(full, "comparisons", 0, matvecs_equal=False)
        result = compare_bench(full, broken)
        assert result["invariant_violations"] == [row]
        assert "violate a hard gate" in render_compare(result)

    def test_surfaces_topk_list_divergence(self, full):
        broken, row = _broken(full, "topk_comparisons", 0, lists_equal=False)
        assert compare_bench(full, broken)["invariant_violations"] == [row]

    def test_flags_topk_wall_time_regression(self, full):
        wall = full["topk_runs"][0]["wall_seconds"]
        slow, _ = _broken(full, "topk_runs", 0, wall_seconds=wall + 10.0)
        result = compare_bench(full, slow)
        assert len(result["regressions"]) == 1
        assert result["regressions"][0]["policy"].startswith("topk:")

    def test_flags_topk_candidate_drift(self, full):
        drifted, row = _broken(full, "topk_runs")
        row["candidates"] += 3
        assert len(compare_bench(full, drifted)["matvec_drift"]) == 1


class TestServeSchema:
    def test_valid_serve_rows_accepted(self, full):
        modes = {row["mode"]: row["clients"] for row in full["serve_runs"]}
        assert modes["sequential"] == 1 and modes["concurrent"] > 1
        assert all(row["shed"] == 0 and row["lists_equal"] for row in full["serve_runs"])

    def test_serve_axis_alone_suffices(self, full):
        _alone(full, "serve_runs", [_row(full, "serve_runs")])

    def test_rejects_bad_serve_mode(self, full):
        _rejects(full, "mode must be one of", serve_runs=[_row(full, "serve_runs", mode="burst")])

    def test_rejects_zero_clients(self, full):
        _rejects(full, "clients must be >= 1", serve_runs=[_row(full, "serve_runs", clients=0)])

    def test_rejects_negative_latency(self, full):
        rows = [_row(full, "serve_runs", p95_ms=-1.0)]
        _rejects(full, "p95_ms must be non-negative", serve_runs=rows)

    def test_rejects_missing_serve_key(self, full):
        row = _row(full, "serve_runs")
        del row["lists_equal"]
        _rejects(full, "missing 'lists_equal'", serve_runs=[row])


class TestAnnAxis:
    def test_document_validates(self, full):
        assert full["ann_runs"]
        _alone(full, "ann_runs", full["ann_runs"])

    def test_exact_row_first(self, full):
        exact = full["ann_runs"][0]
        assert exact["mode"] == "exact" and exact["nprobe"] is None
        assert exact["recall_at_n"] == 1.0 and exact["exact_match"] is True
        assert exact["candidates"] == exact["num_items"] * exact["num_queries"]

    def test_full_probe_row_rides_along_and_is_exact(self, full):
        ivf = full["ann_runs"][1:]
        cells = ivf[0]["cells"]
        expected = sorted({min(p, cells) for p in ALL.ann_nprobe} | {cells})
        assert [r["nprobe"] for r in ivf] == expected
        assert ivf[-1]["exact_match"] is True and ivf[-1]["recall_at_n"] == 1.0
        assert ivf[-1]["candidates"] == ivf[-1]["num_items"] * ivf[-1]["num_queries"]

    def test_recall_monotone_in_nprobe(self, full):
        ivf = full["ann_runs"][1:]
        for field in ("recall_at_n", "candidates"):
            assert [r[field] for r in ivf] == sorted(r[field] for r in ivf)

    def test_build_seconds_shared_across_ivf_rows(self, full):
        builds = {r["build_seconds"] for r in full["ann_runs"][1:]}
        assert len(builds) == 1 and builds.pop() > 0

    def test_render_mentions_ann_rows(self, full):
        text = render_bench(full)
        assert AXIS["ann_runs"].title in text and "recall" in text
        assert full["ann_runs"][0]["dataset"] in text

    def test_json_round_trip(self, full, tmp_path):
        _json_round_trip(full, "ann_runs", tmp_path)


class TestAnnCompare:
    def test_self_compare_includes_ann_rows(self, full):
        policies = _policies(full)
        assert "ann:exact" in policies
        assert any(p.startswith("ann:ivf/p") for p in policies)

    def test_flags_ann_candidate_drift(self, full):
        drifted, row = _broken(full, "ann_runs", 1)
        row["candidates"] += 11
        assert len(compare_bench(full, drifted)["matvec_drift"]) == 1

    def test_full_probe_mismatch_is_invariant_violation(self, full):
        broken, row = _broken(full, "ann_runs", exact_match=False)
        assert compare_bench(full, broken)["invariant_violations"] == [row]
        # A *partial* probe's mismatch is expected, not a violation.
        partial, _ = _broken(full, "ann_runs", 1, exact_match=False)
        assert compare_bench(full, partial)["invariant_violations"] == []


class TestAnnSchema:
    def test_valid_ann_rows_accepted(self, full):
        validate_bench(dict(full, ann_runs=[_row(full, "ann_runs", 0), _row(full, "ann_runs")]))

    def test_ann_axis_alone_suffices(self, full):
        _alone(full, "ann_runs", [_row(full, "ann_runs")])

    def test_rejects_bad_ann_mode(self, full):
        _rejects(full, "mode must be one of", ann_runs=[_row(full, "ann_runs", mode="hnsw")])

    def test_rejects_ivf_row_without_nprobe(self, full):
        _rejects(full, "nprobe is required", ann_runs=[_row(full, "ann_runs", nprobe=None)])

    def test_rejects_zero_nprobe(self, full):
        _rejects(full, "nprobe must be >= 1", ann_runs=[_row(full, "ann_runs", nprobe=0)])

    def test_rejects_recall_out_of_range(self, full):
        _rejects(full, "recall_at_n", ann_runs=[_row(full, "ann_runs", recall_at_n=1.5)])

    def test_rejects_negative_latency(self, full):
        rows = [_row(full, "ann_runs", p95_ms=-1.0)]
        _rejects(full, "p95_ms must be non-negative", ann_runs=rows)

    def test_rejects_missing_ann_key(self, full):
        row = _row(full, "ann_runs")
        del row["exact_match"]
        _rejects(full, "missing 'exact_match'", ann_runs=[row])


class TestQuantAxis:
    def test_document_validates(self, full):
        _alone(full, "quant_runs", full["quant_runs"])

    def test_exact_eager_anchor_row_first(self, full):
        anchor = full["quant_runs"][0]
        assert (anchor["mode"], anchor["mmap"]) == ("exact", False)
        assert anchor["load_speedup"] == 1.0 and anchor["candidates"] == 0

    def test_covers_both_codecs_plus_exact_mmap(self, full):
        cells = [(row["mode"], row["mmap"]) for row in full["quant_runs"]]
        assert cells == [("exact", False), ("exact", True), ("float16", True), ("int8", True)]

    def test_every_row_list_identical(self, full):
        assert all(row["lists_equal"] for row in full["quant_runs"])

    def test_quantized_artifacts_smaller_and_margin_bounded(self, full):
        rows = {row["mode"]: row for row in full["quant_runs"][1:]}
        for codec in ("float16", "int8"):
            assert rows[codec]["artifact_bytes"] < rows["exact"]["artifact_bytes"]
            assert rows[codec]["resident_bytes"] < rows["exact"]["resident_bytes"]
            # The margin reranks a strict subset of the cross product.
            assert 0 < rows[codec]["candidates"] < rows[codec]["num_users"] * rows[codec]["num_items"]

    def test_render_mentions_quant_rows(self, full):
        text = render_bench(full)
        assert "quantized artifacts" in text and "int8" in text and "float16" in text

    def test_json_round_trip(self, full, tmp_path):
        _json_round_trip(full, "quant_runs", tmp_path)


class TestQuantCompare:
    def test_self_compare_includes_quant_rows(self, full):
        assert {"quant:exact/eager", "quant:int8/mmap", "quant:float16/mmap"} <= _policies(full)

    def test_flags_quant_candidate_drift(self, full):
        drifted, row = _broken(full, "quant_runs")
        row["candidates"] += 7
        drift = compare_bench(full, drifted)["matvec_drift"]
        assert {row["policy"] for row in drift} == {"quant:int8/mmap"}

    def test_lists_mismatch_is_invariant_violation(self, full):
        broken, row = _broken(full, "quant_runs", lists_equal=False)
        assert compare_bench(full, broken)["invariant_violations"] == [row]


class TestQuantSchema:
    def test_valid_quant_rows_accepted(self, full):
        validate_bench(dict(full, quant_runs=[_row(full, "quant_runs", 0), _row(full, "quant_runs")]))

    def test_quant_axis_alone_suffices(self, full):
        _alone(full, "quant_runs", [_row(full, "quant_runs")])

    def test_rejects_bad_mode(self, full):
        _rejects(full, "mode must be one of", quant_runs=[_row(full, "quant_runs", mode="int4")])

    def test_rejects_non_positive_speedup(self, full):
        _rejects(full, "load_speedup", quant_runs=[_row(full, "quant_runs", load_speedup=0.0)])

    def test_rejects_negative_latency(self, full):
        _rejects(full, "p95_ms", quant_runs=[_row(full, "quant_runs", p95_ms=-1.0)])

    def test_rejects_missing_key(self, full):
        row = _row(full, "quant_runs")
        del row["lists_equal"]
        _rejects(full, "lists_equal", quant_runs=[row])


class TestRefreshAxis:
    def test_document_validates(self, full):
        _alone(full, "refresh_runs", full["refresh_runs"])

    def test_cold_anchor_row_first(self, full):
        anchor = full["refresh_runs"][0]
        assert anchor["mode"] == "cold" and anchor["refresh_mode"] is None

    def test_warm_refit_saves_matvecs_and_qr(self, full):
        cold, warm = full["refresh_runs"]
        assert warm["refresh_mode"] == "warm"  # accepted, not the fallback
        assert warm["matvecs"] < cold["matvecs"]
        assert warm["qr_factorizations"] < cold["qr_factorizations"]

    def test_delta_publish_smaller_than_full(self, full):
        warm = full["refresh_runs"][1]
        assert 0 < warm["publish_bytes"] < warm["full_publish_bytes"]

    def test_quality_gate_passes(self, full):
        assert all(row["quality_ok"] for row in full["refresh_runs"])

    def test_delta_touches_requested_fraction(self, full):
        for row in full["refresh_runs"]:
            assert row["delta_edges"] >= 1 and 0.0 <= row["delta_fraction"] <= 1.0

    def test_render_mentions_refresh_rows(self, full):
        text = render_bench(full)
        assert "incremental refresh" in text and "cold" in text and "warm" in text

    def test_json_round_trip(self, full, tmp_path):
        _json_round_trip(full, "refresh_runs", tmp_path)


class TestRefreshCompare:
    def test_no_violations_on_real_document(self, full):
        assert _gate_rows(full, "refresh_runs") == []

    def test_flags_quality_failure(self, full):
        broken, row = _broken(full, "refresh_runs", quality_ok=False)
        assert _gate_rows(broken, "refresh_runs") == [row]

    def test_flags_warm_without_matvec_savings(self, full):
        cold_matvecs = full["refresh_runs"][0]["matvecs"]
        broken, row = _broken(full, "refresh_runs", matvecs=cold_matvecs)
        assert [(g, r) for _, g, r in violations(broken)] == [("warm_saves_matvecs", row)]

    def test_self_compare_includes_refresh_rows(self, full):
        assert {"refresh:cold", "refresh:warm"} <= _policies(full)

    def test_violation_propagates_to_compare(self, full):
        broken, row = _broken(full, "refresh_runs", quality_ok=False)
        assert row in compare_bench(full, broken)["invariant_violations"]


class TestRefreshSchema:
    def test_valid_refresh_rows_accepted(self, full):
        rows = full["refresh_runs"] + [_row(full, "refresh_runs", refresh_mode="cold_fallback")]
        validate_bench(dict(full, refresh_runs=rows))

    def test_refresh_axis_alone_suffices(self, full):
        _alone(full, "refresh_runs", [_row(full, "refresh_runs")])

    def test_rejects_bad_mode(self, full):
        rows = [_row(full, "refresh_runs", mode="lukewarm")]
        _rejects(full, "mode must be one of", refresh_runs=rows)

    def test_warm_row_needs_submode(self, full):
        rows = [_row(full, "refresh_runs", refresh_mode=None)]
        _rejects(full, "refresh_mode is required for warm rows", refresh_runs=rows)

    def test_cold_row_must_have_null_submode(self, full):
        rows = [_row(full, "refresh_runs", 0, refresh_mode="warm")]
        _rejects(full, "must be null for cold rows", refresh_runs=rows)

    def test_rejects_out_of_range_fraction(self, full):
        rows = [_row(full, "refresh_runs", delta_fraction=1.5)]
        _rejects(full, "delta_fraction", refresh_runs=rows)

    def test_rejects_missing_key(self, full):
        row = _row(full, "refresh_runs")
        del row["quality_ok"]
        _rejects(full, "quality_ok", refresh_runs=[row])


class TestOocAxis:
    def test_document_validates(self, full):
        _alone(full, "ooc_runs", full["ooc_runs"])

    def test_resident_anchor_row_first(self, full):
        anchor = full["ooc_runs"][0]
        assert anchor["mode"] == "resident" and anchor["budget_mb"] is None
        assert anchor["wall_overhead"] == 1.0 and anchor["bytes_copied_in"] == 0

    def test_one_serial_mmap_row_per_budget(self, full):
        serial = [r["budget_mb"] for r in full["ooc_runs"] if r["mode"] == "mmap" and r["threads"] == 1]
        assert serial == sorted(ALL.ooc_budgets_mb)

    def test_threaded_row_rides_along_at_largest_budget(self, full):
        threaded = [row for row in full["ooc_runs"] if row["threads"] > 1]
        assert len(threaded) == 1 and threaded[0]["mode"] == "mmap"
        assert threaded[0]["budget_mb"] == max(ALL.ooc_budgets_mb)

    def test_every_gate_passes(self, full):
        for row in full["ooc_runs"]:
            assert row["bit_identical"] and row["matvecs_equal"] and row["rss_within_budget"]

    def test_mmap_rows_copy_the_stream_in(self, full):
        anchor, *mapped = full["ooc_runs"]
        for row in mapped:
            assert row["matvecs"] == anchor["matvecs"] and row["bytes_copied_in"] > 0

    def test_render_mentions_ooc_rows(self, full):
        text = render_bench(full)
        assert "out-of-core" in text and "resident" in text and "mmap" in text

    def test_json_round_trip(self, full, tmp_path):
        _json_round_trip(full, "ooc_runs", tmp_path)


class TestOocCompare:
    def test_no_violations_on_real_document(self, full):
        assert _gate_rows(full, "ooc_runs") == []

    @pytest.mark.parametrize("gate", ["bit_identical", "matvecs_equal", "rss_within_budget"])
    def test_flags_each_gate_failure(self, full, gate):
        broken, row = _broken(full, "ooc_runs", **{gate: False})
        assert [(g, r) for _, g, r in violations(broken)] == [(gate, row)]

    def test_self_compare_includes_ooc_rows(self, full):
        assert {"ooc:resident", "ooc:mmap/b0.25", "ooc:mmap/b4"} <= _policies(full)

    def test_violation_propagates_to_compare(self, full):
        broken, row = _broken(full, "ooc_runs", 1, bit_identical=False)
        assert row in compare_bench(full, broken)["invariant_violations"]


class TestOocSchema:
    def test_valid_ooc_rows_accepted(self, full):
        validate_bench(dict(full, ooc_runs=[_row(full, "ooc_runs", 0), _row(full, "ooc_runs")]))

    def test_ooc_axis_alone_suffices(self, full):
        _alone(full, "ooc_runs", [_row(full, "ooc_runs")])

    def test_rejects_bad_mode(self, full):
        _rejects(full, "mode must be one of", ooc_runs=[_row(full, "ooc_runs", mode="paged")])

    def test_resident_row_must_have_null_budget(self, full):
        rows = [_row(full, "ooc_runs", mode="resident")]
        _rejects(full, "must be null for resident", ooc_runs=rows)

    def test_rejects_non_positive_budget(self, full):
        rows = [_row(full, "ooc_runs", budget_mb=0.0)]
        _rejects(full, "budget_mb must be positive", ooc_runs=rows)

    def test_rejects_missing_key(self, full):
        row = _row(full, "ooc_runs")
        del row["bit_identical"]
        _rejects(full, "bit_identical", ooc_runs=[row])

    def test_rejects_bool_gate_as_int(self, full):
        rows = [_row(full, "ooc_runs", rss_within_budget=1)]
        _rejects(full, "rss_within_budget", ooc_runs=rows)


class TestSimilarAxis:
    def test_document_validates(self, full):
        _alone(full, "similar_runs", full["similar_runs"])

    def test_one_serial_row_per_mode_and_block(self, full):
        for mode in ("mhs", "mhp"):
            serial = [r["block_sources"] for r in full["similar_runs"]
                      if r["mode"] == mode and r["threads"] == 1]
            assert serial == sorted(ALL.similar_block_sources)

    def test_threaded_row_rides_along_at_largest_block(self, full):
        for mode in ("mhs", "mhp"):
            threaded = [r for r in full["similar_runs"] if r["mode"] == mode and r["threads"] > 1]
            assert [r["block_sources"] for r in threaded] == [max(ALL.similar_block_sources)]

    def test_every_list_gate_passes(self, full):
        assert all(row["lists_equal"] is True for row in full["similar_runs"])

    def test_matvec_cost_matches_engine_formula(self, full):
        # 2*tau matvecs per MHS query, 2*tau + 1 per MHP query (the W^T).
        for row in full["similar_runs"]:
            expected = 2 * ALL.similar_tau + (row["mode"] == "mhp")
            assert row["matvecs_per_query"] == expected

    def test_latency_percentiles_ordered(self, full):
        assert all(0.0 <= r["p50_ms"] <= r["p95_ms"] for r in full["similar_runs"])

    def test_render_mentions_similar_rows(self, full):
        text = render_bench(full)
        assert "similarity queries" in text and "mhs" in text and "mhp" in text

    def test_json_round_trip(self, full, tmp_path):
        _json_round_trip(full, "similar_runs", tmp_path)


class TestSimilarCompare:
    def test_no_violations_on_real_document(self, full):
        assert _gate_rows(full, "similar_runs") == []

    def test_flags_lists_mismatch(self, full):
        broken, row = _broken(full, "similar_runs", lists_equal=False)
        assert _gate_rows(broken, "similar_runs") == [row]

    def test_self_compare_includes_similar_rows(self, full):
        expected = {"similar:mhs/b4/t1", "similar:mhs/b16/t1", "similar:mhp/b16/t2"}
        assert expected <= _policies(full)

    def test_violation_propagates_to_compare(self, full):
        broken, row = _broken(full, "similar_runs", 0, lists_equal=False)
        assert row in compare_bench(full, broken)["invariant_violations"]


class TestSimilarSchema:
    def test_valid_similar_rows_accepted(self, full):
        validate_bench(dict(full, similar_runs=full["similar_runs"][:2]))

    def test_similar_axis_alone_suffices(self, full):
        _alone(full, "similar_runs", [_row(full, "similar_runs")])

    def test_rejects_bad_mode(self, full):
        rows = [_row(full, "similar_runs", mode="cosine")]
        _rejects(full, "mode must be one of", similar_runs=rows)

    def test_rejects_non_positive_block(self, full):
        rows = [_row(full, "similar_runs", block_sources=0)]
        _rejects(full, "block_sources must be >= 1", similar_runs=rows)

    def test_rejects_missing_key(self, full):
        row = _row(full, "similar_runs")
        del row["lists_equal"]
        _rejects(full, "lists_equal", similar_runs=[row])

    def test_rejects_bool_gate_as_int(self, full):
        _rejects(full, "lists_equal", similar_runs=[_row(full, "similar_runs", lists_equal=1)])

    def test_rejects_negative_latency(self, full):
        rows = [_row(full, "similar_runs", p95_ms=-0.1)]
        _rejects(full, "p95_ms must be non-negative", similar_runs=rows)

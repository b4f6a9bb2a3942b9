"""Tests for the observability layer (repro.obs).

Covers the four satellite requirements: nested timer totals, the
closed-form matvec accounting of Algorithm 2, JSON report round-tripping
against the validated schema, and the zero-overhead-by-default guard for
the no-op collector.
"""

import json
import sys
import time

import numpy as np
import pytest

from repro import obs
from repro.core import GEBEPoisson, PoissonPMF, GEBE
from repro.datasets import toy_graph
from repro.linalg import (
    krylov_iteration_count,
    randomized_svd,
    warm_basis_from_embedding,
    warm_iteration_count,
)
from repro.obs import (
    NULL,
    NullCollector,
    OpCounter,
    ProfileCollector,
    RunReport,
    StageTimer,
    validate_report,
)


# ---------------------------------------------------------------------------
# StageTimer
# ---------------------------------------------------------------------------
class TestStageTimer:
    def test_nested_totals_at_least_sum_of_children(self):
        timer = StageTimer()
        with timer.stage("parent"):
            with timer.stage("child_a"):
                time.sleep(0.002)
            with timer.stage("child_b"):
                time.sleep(0.002)
            time.sleep(0.001)  # time in the parent outside any child
        flat = timer.flatten()
        parent = flat["parent"]
        assert parent.seconds >= (
            flat["parent/child_a"].seconds + flat["parent/child_b"].seconds
        )

    def test_paths_are_hierarchical(self):
        timer = StageTimer()
        with timer.stage("a"):
            with timer.stage("b"):
                with timer.stage("c"):
                    pass
        assert set(timer.flatten()) == {"a", "a/b", "a/b/c"}

    def test_reentry_accumulates_calls(self):
        timer = StageTimer()
        for _ in range(5):
            with timer.stage("loop"):
                with timer.stage("body"):
                    pass
        flat = timer.flatten()
        assert flat["loop"].calls == 5
        assert flat["loop/body"].calls == 5
        # A single record per path, not one per entry.
        assert len(flat) == 2

    def test_slash_in_name_rejected(self):
        timer = StageTimer()
        with pytest.raises(ValueError, match="must not contain"):
            with timer.stage("a/b"):
                pass


# ---------------------------------------------------------------------------
# OpCounter
# ---------------------------------------------------------------------------
class TestOpCounter:
    def test_spmv_tally_and_flops(self):
        counter = OpCounter()
        counter.count_spmv(nnz=100, cols=4)
        assert counter.sparse_matvecs == 4
        assert counter.flops == 2.0 * 100 * 4

    def test_gemm_qr_svd(self):
        counter = OpCounter()
        counter.count_gemm(10, 20, 30)
        counter.count_qr(50, 5)
        counter.count_svd(16, 40)
        assert counter.gemms == 1
        assert counter.qr_factorizations == 1
        assert counter.svd_factorizations == 1
        assert counter.flops == pytest.approx(
            2 * 10 * 20 * 30 + 2 * 50 * 25 + 4 * 16 * 40 * 16
        )


# ---------------------------------------------------------------------------
# Collector activation
# ---------------------------------------------------------------------------
class TestCollectorActivation:
    def test_default_is_the_null_singleton(self):
        assert obs.active() is NULL
        assert not obs.active().enabled

    def test_collect_activates_and_restores(self):
        with obs.collect() as collector:
            assert obs.active() is collector
            assert collector.enabled
        assert obs.active() is NULL

    def test_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with obs.collect():
                raise RuntimeError("boom")
        assert obs.active() is NULL

    def test_nested_collectors_restore_inner_to_outer(self):
        with obs.collect() as outer:
            with obs.collect() as inner:
                assert obs.active() is inner
            assert obs.active() is outer


# ---------------------------------------------------------------------------
# Matvec accounting vs Algorithm 2's closed form
# ---------------------------------------------------------------------------
def expected_gebe_p_matvecs(graph, dimension, epsilon, strategy):
    """Sparse-matvec count implied by Algorithm 2's iteration parameters.

    Both basis builders apply ``W`` (or ``W.T``) to a ``b``-wide block once
    to start and twice per iteration: ``b (2q + 1)`` matvecs.  Rayleigh-Ritz
    applies ``W.T`` to the final basis — ``b`` columns for power iteration,
    ``min((q + 1) b, |U|)`` for block Krylov (the stacked blocks, clipped by
    the thin QR).  The Eq. 13 read-out ``V = W^T U`` adds ``k`` more.
    """
    m = graph.num_u
    k = min(dimension, graph.num_u, graph.num_v)
    b = min(k + 8, min(graph.num_u, graph.num_v))  # default oversampling
    q = krylov_iteration_count(graph.num_v, epsilon, strategy)
    basis_width = min((q + 1) * b, m) if strategy == "block_krylov" else b
    return b * (2 * q + 1) + basis_width + k


class TestMatvecAccounting:
    @pytest.mark.parametrize("strategy", ["power", "block_krylov"])
    def test_gebe_p_matches_closed_form(self, strategy):
        graph = toy_graph()
        epsilon = 0.1
        with obs.collect() as collector:
            GEBEPoisson(
                dimension=6, epsilon=epsilon, svd_strategy=strategy, seed=0
            ).fit(graph)
        expected = expected_gebe_p_matvecs(graph, 6, epsilon, strategy)
        assert collector.ops.sparse_matvecs == expected

    def test_gebe_matches_iteration_count(self):
        graph = toy_graph()
        tau, k = 5, 4
        with obs.collect() as collector:
            result = GEBE(PoissonPMF(lam=1.0), dimension=k, tau=tau, seed=0).fit(
                graph
            )
        iterations = result.metadata["iterations"]
        # Each KSI iteration expands the tau-term series: 2 tau spmv per
        # k-wide block; the Eq. 13 read-out adds k more.
        expected = iterations * 2 * tau * k + k
        assert collector.ops.sparse_matvecs == expected

    def test_stage_tree_has_the_documented_paths(self):
        with obs.collect() as collector:
            GEBEPoisson(dimension=4, seed=0).fit(toy_graph())
        paths = set(collector.timer.flatten())
        assert {
            "gebe_p",
            "gebe_p/normalize",
            "gebe_p/rsvd",
            "gebe_p/rsvd/power_iter",
            "gebe_p/rsvd/rayleigh_ritz",
            "gebe_p/spectral_map",
            "gebe_p/project",
        } <= paths

    def test_memory_watermarks_populated(self):
        with obs.collect() as collector:
            GEBEPoisson(dimension=4, seed=0).fit(toy_graph())
        assert collector.memory.peak_rss_bytes > 0
        assert collector.memory.max_tracked_array_bytes > 0


# ---------------------------------------------------------------------------
# QR schedule vs its closed form
# ---------------------------------------------------------------------------
@pytest.fixture
def qr_rows(monkeypatch):
    """Row counts of every block the randomized SVD hands to ``thin_qr``.

    Patched on the module object: ``import repro.linalg.randomized_svd as
    m`` would bind the function the package re-exports under that name.
    """
    module = sys.modules["repro.linalg.randomized_svd"]
    rows = []
    real = module.thin_qr

    def recording(block):
        rows.append(np.shape(block)[0])
        return real(block)

    monkeypatch.setattr(module, "thin_qr", recording)
    return rows


# The toy graph has |U| > |V|; its transpose has |U| < |V|.
ORIENTATIONS = {"long_u": toy_graph(), "long_v": toy_graph().transpose()}


class TestQRSchedule:
    """One ``thin_qr`` per power sweep, on the shorter side, plus one
    ``|U|``-side QR after the last sweep when ``|U| > |V|``: ``q + 1``
    calls per cold fit.  The matvec closed form above does not move."""

    @pytest.mark.parametrize("orientation", sorted(ORIENTATIONS))
    def test_cold_power_fit(self, qr_rows, orientation):
        graph = ORIENTATIONS[orientation]
        GEBEPoisson(dimension=6, epsilon=0.1, seed=0).fit(graph)
        q = krylov_iteration_count(graph.num_v, 0.1, "power")
        assert len(qr_rows) == q + 1
        if graph.num_u > graph.num_v:
            assert qr_rows == [graph.num_v] * q + [graph.num_u]
        else:
            assert qr_rows == [graph.num_u] * (q + 1)

    @pytest.mark.parametrize("orientation", sorted(ORIENTATIONS))
    def test_warm_power_refit(self, qr_rows, orientation):
        graph = ORIENTATIONS[orientation]
        epsilon = 0.02  # two warm sweeps on the toy graph
        cold = GEBEPoisson(dimension=6, epsilon=epsilon, seed=0).fit(graph)
        basis = warm_basis_from_embedding(
            cold.u, cold.metadata["effective_dimension"]
        )
        del qr_rows[:]
        warm = GEBEPoisson(
            dimension=6, epsilon=epsilon, seed=0, warm_start=basis
        ).fit(graph)
        assert warm.metadata["refresh"]["mode"] == "warm"
        q_w = warm_iteration_count(graph.num_v, epsilon, "power")
        assert q_w == 2
        # The start-block QR, then one per sweep; when |U| > |V| the
        # sweeps QR the |V| side and the basis gets one final QR.
        if graph.num_u > graph.num_v:
            assert len(qr_rows) == 1 + q_w + 1
            assert qr_rows == [graph.num_u] + [graph.num_v] * q_w + [graph.num_u]
        else:
            assert len(qr_rows) == 1 + q_w
            assert qr_rows == [graph.num_u] * (1 + q_w)

    @pytest.mark.parametrize("orientation", sorted(ORIENTATIONS))
    def test_zero_sweeps_make_one_qr(self, qr_rows, orientation):
        w = ORIENTATIONS[orientation].w
        m = w.shape[0]
        randomized_svd(w, 4, iterations=0, rng=np.random.default_rng(0))
        assert qr_rows == [m]
        del qr_rows[:]
        # A warm start is orthonormalized once and not again.
        randomized_svd(
            w, 4, iterations=0, warm_start=np.eye(m, 4),
            rng=np.random.default_rng(0),
        )
        assert qr_rows == [m]

    def test_block_krylov_unchanged(self, qr_rows):
        graph = toy_graph()
        GEBEPoisson(dimension=6, svd_strategy="block_krylov", seed=0).fit(graph)
        q = krylov_iteration_count(graph.num_v, 0.1, "block_krylov")
        # The lift, one per Krylov block, and the stacked basis.
        assert len(qr_rows) == q + 2


# ---------------------------------------------------------------------------
# RunReport schema
# ---------------------------------------------------------------------------
def profiled_toy_report():
    graph = toy_graph()
    with obs.collect() as collector:
        result = GEBEPoisson(dimension=4, seed=0).fit(graph)
    return collector.report(
        method=result.method,
        dataset="toy",
        dimension=4,
        seed=0,
        wall_seconds=result.elapsed_seconds,
        metadata={"num_edges": graph.num_edges},
    )


class TestRunReport:
    def test_round_trips_through_json(self):
        report = profiled_toy_report()
        payload = json.loads(report.to_json())
        validate_report(payload)
        restored = RunReport.from_json(report.to_json())
        assert restored.method == report.method
        assert restored.dataset == "toy"
        assert restored.ops == report.to_dict()["ops"]
        assert restored.stage_seconds() == report.stage_seconds()
        # Serialization is stable: a second round trip is byte-identical.
        assert restored.to_json() == report.to_json()

    def test_report_contains_required_payload(self):
        payload = profiled_toy_report().to_dict()
        assert payload["ops"]["sparse_matvecs"] > 0
        assert payload["memory"]["peak_rss_bytes"] > 0
        seconds = profiled_toy_report().stage_seconds()
        assert "gebe_p/rsvd" in seconds
        assert all(value >= 0 for value in seconds.values())

    @pytest.mark.parametrize(
        "mutate, match",
        [
            (lambda p: p.update(version=99), "version"),
            (lambda p: p.update(schema="other"), "schema"),
            (lambda p: p.pop("ops"), "ops"),
            (lambda p: p["ops"].pop("sparse_matvecs"), "sparse_matvecs"),
            (lambda p: p["stages"][0].pop("path"), "path"),
            (lambda p: p.update(wall_seconds=-1.0), "wall_seconds"),
            (lambda p: p["memory"].update(peak_rss_bytes=-5), "peak_rss_bytes"),
            (lambda p: p.pop("threads"), "threads"),
            (lambda p: p.update(threads=0), "threads"),
            (lambda p: p.update(threads=True), "threads"),
            (lambda p: p["memory"].pop("workspace_bytes"), "workspace_bytes"),
        ],
    )
    def test_schema_violations_rejected(self, mutate, match):
        payload = profiled_toy_report().to_dict()
        mutate(payload)
        with pytest.raises(ValueError, match=match):
            validate_report(payload)

    def test_summary_is_one_line(self):
        summary = profiled_toy_report().summary()
        assert "\n" not in summary
        assert "GEBE^p" in summary

    def test_v2_thread_and_workspace_fields(self):
        # Schema v2: effective thread count and the kernel workspace
        # watermark (summed over per-thread pools) are part of the report.
        payload = profiled_toy_report().to_dict()
        assert payload["version"] == 9
        assert payload["threads"] >= 1
        assert payload["memory"]["workspace_bytes"] >= 0

    def test_v3_topk_candidates_field(self):
        # Schema v3: retrieval coverage is part of the ops block (zero for
        # a plain fit, counted by the topk engine's read-out).
        payload = profiled_toy_report().to_dict()
        assert payload["ops"]["topk_candidates"] == 0
        restored = RunReport.from_dict(payload)
        assert restored.threads == payload["threads"]
        assert "thread" in restored.summary()
        assert "workspace" in restored.summary()

    def test_older_versions_rejected_with_their_version(self):
        payload = profiled_toy_report().to_dict()
        payload["version"] = 8
        with pytest.raises(ValueError, match="version must be 9, got 8"):
            RunReport.from_dict(payload)

    def test_unknown_section_rejected(self):
        payload = profiled_toy_report().to_dict()
        payload["sections"]["bogus"] = {}
        with pytest.raises(ValueError, match="sections.bogus"):
            validate_report(payload)

    def _with_section(self, name, section):
        report = profiled_toy_report()
        report.sections[name] = section
        return report.to_dict()

    def test_v4_service_section_null_for_solver_runs(self):
        payload = profiled_toy_report().to_dict()
        assert payload["sections"] == {}
        assert "service" not in RunReport.from_dict(payload).sections

    def test_v6_refresh_section_null_for_plain_fits(self):
        payload = profiled_toy_report().to_dict()
        assert "refresh" not in payload["sections"]
        assert "refresh" not in RunReport.from_dict(payload).sections

    def test_v7_ooc_section_null_for_plain_fits(self):
        payload = profiled_toy_report().to_dict()
        assert "ooc" not in payload["sections"]
        assert "ooc" not in RunReport.from_dict(payload).sections

    def test_v8_similarity_section_null_for_plain_fits(self):
        payload = profiled_toy_report().to_dict()
        assert "similarity" not in payload["sections"]
        assert "similarity" not in RunReport.from_dict(payload).sections

    def test_v8_similarity_section_round_trips(self):
        similarity = {
            "mode": "mhs",
            "side": "u",
            "tau": 5,
            "sources": 16,
            "block_sources": 8,
            "matvecs": 160,
        }
        payload = self._with_section("similarity", similarity)
        assert payload["sections"]["similarity"]["mode"] == "mhs"
        assert RunReport.from_dict(payload).sections["similarity"] == similarity

    @pytest.mark.parametrize(
        "mutate, match",
        [
            (lambda p: p["sections"].update(similarity=None), "similarity"),
            (lambda p: p["sections"].update(similarity=[]), "similarity"),
            (lambda p: p["sections"]["similarity"].update(mode="cosine"), "mode"),
            (lambda p: p["sections"]["similarity"].update(side="w"), "side"),
            (lambda p: p["sections"]["similarity"].update(tau=-1), "tau"),
            (lambda p: p["sections"]["similarity"].pop("matvecs"), "matvecs"),
        ],
    )
    def test_v8_similarity_violations_rejected(self, mutate, match):
        payload = self._with_section("similarity", {
            "mode": "mhp",
            "side": "v",
            "tau": 3,
            "sources": 4,
            "block_sources": 4,
            "matvecs": 28,
        })
        mutate(payload)
        with pytest.raises(ValueError, match=match):
            validate_report(payload)

    def test_v7_ooc_section_round_trips(self):
        ooc = {
            "budget_mb": 64.0,
            "bytes_copied_in": 1 << 20,
            "peak_rss_bytes": 1 << 24,
        }
        payload = self._with_section("ooc", ooc)
        assert payload["sections"]["ooc"]["budget_mb"] == 64.0
        assert RunReport.from_dict(payload).sections["ooc"] == ooc

    @pytest.mark.parametrize(
        "mutate, match",
        [
            (lambda p: p["sections"].update(ooc=None), "ooc"),
            (lambda p: p["sections"].update(ooc=[]), "ooc"),
            (lambda p: p["sections"]["ooc"].update(budget_mb=-1.0), "budget_mb"),
            (lambda p: p["sections"]["ooc"].pop("bytes_copied_in"), "bytes_copied_in"),
            (lambda p: p["sections"]["ooc"].update(peak_rss_bytes=-5), "peak_rss_bytes"),
        ],
    )
    def test_v7_ooc_violations_rejected(self, mutate, match):
        payload = self._with_section("ooc", {
            "budget_mb": None,
            "bytes_copied_in": 0,
            "peak_rss_bytes": 0,
        })
        mutate(payload)
        with pytest.raises(ValueError, match=match):
            validate_report(payload)

    def test_v6_refresh_section_round_trips(self):
        refresh = {
            "mode": "warm",
            "reason": "ok",
            "residual": 0.02,
            "tolerance": 0.158,
            "warm_rank": 16,
            "warm_matvecs": 152,
            "cold_matvecs": 448,
        }
        payload = self._with_section("refresh", refresh)
        assert payload["sections"]["refresh"]["mode"] == "warm"
        assert RunReport.from_dict(payload).sections["refresh"] == refresh

    @pytest.mark.parametrize(
        "mutate, match",
        [
            (lambda p: p["sections"].update(refresh=[]), "refresh"),
            (lambda p: p["sections"]["refresh"].update(mode="hot"), "mode"),
            (lambda p: p["sections"]["refresh"].update(reason=""), "reason"),
            (lambda p: p["sections"]["refresh"].update(tolerance=-0.1), "tolerance"),
            (lambda p: p["sections"]["refresh"].update(warm_rank=-1), "warm_rank"),
            (lambda p: p["sections"]["refresh"].update(warm_matvecs=1.5), "warm_matvecs"),
        ],
    )
    def test_v6_refresh_violations_rejected(self, mutate, match):
        payload = self._with_section("refresh", {
            "mode": "cold_fallback",
            "reason": "residual",
            "residual": 0.7,
            "tolerance": 0.1,
            "warm_rank": 8,
            "warm_matvecs": None,
            "cold_matvecs": 300,
        })
        mutate(payload)
        with pytest.raises(ValueError, match=match):
            validate_report(payload)

    def test_v5_ann_ops_fields(self):
        # Schema v5: ANN coverage is part of the ops block (zero for a
        # plain fit, counted by the IVF index's search path).
        payload = profiled_toy_report().to_dict()
        assert payload["ops"]["ann_probes"] == 0
        assert payload["ops"]["ann_candidates"] == 0
        counter = OpCounter()
        counter.count_ann_probe(8)
        counter.count_ann_probe(8)
        counter.count_ann_candidates(123)
        assert counter.ann_probes == 16
        assert counter.ann_candidates == 123
        assert counter.to_dict()["ann_probes"] == 16


# ---------------------------------------------------------------------------
# Zero-overhead-by-default guard
# ---------------------------------------------------------------------------
class TestNoOpOverhead:
    def test_noop_calls_are_cheap(self):
        """Benchmark guard for the profiling-off path.

        A GEBE^p toy-scale run makes on the order of 10^2 instrumented
        calls over a multi-millisecond solve, so holding the no-op path
        under ~2.5 microseconds per call bounds the instrumentation
        overhead far below the 5% acceptance budget.  The bound is ~30x
        above what the no-op costs in practice, so the guard only fires on
        a real regression (e.g. the no-op path starting to allocate).
        """
        collector = obs.active()
        assert isinstance(collector, NullCollector) and not collector.enabled
        calls = 100_000
        started = time.perf_counter()
        for _ in range(calls):
            collector.count_spmv(1000, 8)
            with collector.stage("hot"):
                pass
        elapsed = time.perf_counter() - started
        assert elapsed < calls * 2.5e-6, (
            f"no-op instrumentation costs {elapsed / calls * 1e9:.0f} ns per "
            "call pair; the profiling-off path must stay negligible"
        )

    def test_noop_stage_is_shared_and_stateless(self):
        first = NULL.stage("a")
        second = NULL.stage("b")
        assert first is second  # no per-call allocation

    def test_null_collector_records_nothing(self):
        NULL.count_spmv(10, 10)
        NULL.count_gemm(1, 2, 3)
        NULL.note_array(1 << 30)
        NULL.sample_memory()  # all no-ops; nothing to assert beyond no crash
        assert not hasattr(NULL, "ops")

"""Tests for the resident embedding service and the engine's thread contract.

Two jobs live here:

* **Pin the workspace race** the ``TopKEngine`` class notes document: one
  engine instance shared across threads hands callers each other's scores
  through the grow-once buffer.  The race is demonstrated *deterministically*
  (by interleaving the internal steps the way a scheduler could), and
  :meth:`~repro.tasks.topk.TopKEngine.clone_for_worker` is shown to be the
  fix — clones share the embedding arrays but never the buffer.
* Exercise :class:`~repro.serve.service.EmbeddingService`: queries identical
  to the offline engine, hot reload and metrics bookkeeping.
"""

import threading

import numpy as np
import pytest

from repro.core.base import EmbeddingResult
from repro.graph import BipartiteGraph
from repro.serve import ArtifactStore, EmbeddingService
from repro.serve.service import ServiceMetrics, percentile
from repro.tasks import TopKEngine


@pytest.fixture(scope="module")
def result():
    rng = np.random.default_rng(3)
    return EmbeddingResult(
        u=rng.standard_normal((60, 8)),
        v=rng.standard_normal((40, 8)),
        method="random",
    )


@pytest.fixture(scope="module")
def graph():
    rng = np.random.default_rng(9)
    edges = [
        (int(u), int(v), 1.0)
        for u in range(60)
        for v in rng.choice(40, size=5, replace=False)
    ]
    return BipartiteGraph.from_edges(edges)


@pytest.fixture
def store(tmp_path, result, graph):
    store = ArtifactStore(tmp_path / "store")
    store.publish(
        "toy", result.u, result.v, graph=graph, method="random", dataset="toy"
    )
    return store


class TestWorkspaceRace:
    """The documented reason a TopKEngine must not be shared across threads."""

    def test_score_buffer_is_shared_between_calls(self, result):
        engine = TopKEngine.from_result(result, block_rows=8)
        first = engine._score_buffer(8)
        second = engine._score_buffer(8)
        assert np.shares_memory(first, second)

    def test_interleaved_scoring_corrupts_shared_engine(self, result):
        """The race, played out deterministically.

        Thread A scores users [0..8) into the shared buffer, the scheduler
        lets thread B score users [8..16) through the same engine, then A
        selects.  A's selection runs over B's scores — exactly the
        corruption concurrent callers of one instance would see.
        """
        engine = TopKEngine.from_result(result, block_rows=8)
        users_a = np.arange(8, dtype=np.int64)
        users_b = np.arange(8, 16, dtype=np.int64)

        buffer_a = engine._score_buffer(users_a.size)
        engine._score_into(engine._u[users_a], buffer_a)
        # B runs before A selects — same instance, same buffer.
        buffer_b = engine._score_buffer(users_b.size)
        engine._score_into(engine._u[users_b], buffer_b)
        from repro.core.selection import select_topn

        corrupted = select_topn(buffer_a, 5)
        expected_a = engine.top_items(5, users=users_a)
        expected_b = engine.top_items(5, users=users_b)
        assert not np.array_equal(corrupted, expected_a)  # A got B's lists
        np.testing.assert_array_equal(corrupted, expected_b)

    def test_clones_have_independent_buffers(self, result):
        engine = TopKEngine.from_result(result, block_rows=8)
        clone = engine.clone_for_worker()
        users_a = np.arange(8, dtype=np.int64)
        users_b = np.arange(8, 16, dtype=np.int64)
        buffer_a = engine._score_buffer(users_a.size)
        engine._score_into(engine._u[users_a], buffer_a)
        buffer_b = clone._score_buffer(users_b.size)
        clone._score_into(clone._u[users_b], buffer_b)
        assert not np.shares_memory(buffer_a, buffer_b)
        from repro.core.selection import select_topn

        np.testing.assert_array_equal(
            select_topn(buffer_a, 5), engine.top_items(5, users=users_a)
        )

    def test_clone_shares_embeddings_without_copy(self, result):
        engine = TopKEngine.from_result(result)
        clone = engine.clone_for_worker()
        assert clone._u is engine._u
        assert clone._vt is engine._vt
        assert clone._scores_flat is None
        assert clone.block_rows == engine.block_rows
        assert clone.policy is engine.policy

    def test_clone_results_identical(self, result, graph):
        engine = TopKEngine.from_result(result, block_rows=16)
        clone = engine.clone_for_worker()
        np.testing.assert_array_equal(
            engine.top_items(7, exclude=graph), clone.top_items(7, exclude=graph)
        )

    def test_concurrent_clones_match_serial_reference(self, result, graph):
        """Stress: 4 threads, one clone each, full sweep — no corruption."""
        engine = TopKEngine.from_result(result, block_rows=8)
        reference = engine.top_items(5, exclude=graph)
        rounds = 10
        outputs = [None] * 4
        errors = []

        def worker(slot: int) -> None:
            clone = engine.clone_for_worker()
            try:
                for _ in range(rounds):
                    outputs[slot] = clone.top_items(5, exclude=graph)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(slot,)) for slot in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        for output in outputs:
            np.testing.assert_array_equal(output, reference)


class TestEmbeddingService:
    def test_top_items_matches_offline_engine(self, store, result, graph):
        service = EmbeddingService(store, "toy")
        engine = TopKEngine.from_result(result)
        users = np.array([0, 3, 17, 59], dtype=np.int64)
        response = service.top_items(users, 6)
        np.testing.assert_array_equal(
            response["items"], engine.top_items(6, users=users, exclude=graph)
        )
        assert response["model"] == "toy@v1"
        assert response["n"] == 6

    def test_exclude_train_masks_published_graph(self, store, graph):
        service = EmbeddingService(store, "toy")
        masked = service.top_items([5], 40)["items"][0]
        unmasked = service.top_items([5], 40, exclude_train=False)["items"][0]
        neighbors = set(int(v) for v in graph.u_neighbors(5))
        # Training items fall to the tail of the masked list (-inf scores).
        assert neighbors.isdisjoint(masked[: 40 - len(neighbors)].tolist())
        assert not neighbors.isdisjoint(unmasked.tolist())

    def test_reload_swaps_to_latest(self, store, result):
        service = EmbeddingService(store, "toy")
        assert service.artifact.tag == "toy@v1"
        store.publish("toy", result.u * 2.0, result.v, method="random")
        old, new = service.reload()
        assert (old, new) == ("toy@v1", "toy@v2")
        assert service.artifact.tag == "toy@v2"
        assert service.metrics["reloads"] == 1
        # Doubling U rescales scores but not their order; results still flow.
        assert service.top_items([0], 3)["items"].shape == (1, 3)

    def test_reload_failure_keeps_old_model(self, store):
        service = EmbeddingService(store, "toy")
        with pytest.raises(Exception):
            service.reload(42)  # no such version
        assert service.artifact.tag == "toy@v1"
        assert service.top_items([1], 3)["items"].shape == (1, 3)

    def test_reload_rejects_corrupt_version(self, store, result, graph):
        """A new version whose graph bytes were corrupted must fail
        verification at reload and leave the old model serving."""
        service = EmbeddingService(store, "toy")
        ref = store.publish(
            "toy", result.u * 2.0, result.v, graph=graph, method="random"
        )
        arrays = dict(np.load(ref.path / "graph.npz"))
        arrays["data"] = arrays["data"].copy()
        arrays["data"][0] += 1.0
        np.savez_compressed(ref.path / "graph.npz", **arrays)
        with pytest.raises(Exception):
            service.reload()
        assert service.artifact.tag == "toy@v1"
        assert service.top_items([1], 3)["items"].shape == (1, 3)

    def test_nprobe_requires_ann(self, store):
        with pytest.raises(ValueError, match="nprobe requires"):
            EmbeddingService(store, "toy", nprobe=4)

    def test_worker_threads_get_private_engines(self, store):
        service = EmbeddingService(store, "toy")
        engines = {}

        def worker(name: str) -> None:
            engines[name] = service._engine()[0]

        threads = [
            threading.Thread(target=worker, args=(f"t{i}",)) for i in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        distinct = {id(engine) for engine in engines.values()}
        assert len(distinct) == 3

    def test_metrics_count_requests_and_candidates(self, store):
        service = EmbeddingService(store, "toy")
        service.top_items([0, 1, 2], 4)
        snapshot = service.metrics.snapshot()
        assert snapshot["counters"]["requests"] == 1
        assert snapshot["counters"]["topk_candidates"] == 3 * 40
        assert snapshot["counters"]["gemms"] >= 1
        assert snapshot["stages"]["score"]["count"] == 1

    def test_gemms_are_the_engines_own_count(self, tmp_path, result, graph):
        from repro import obs

        # Two per block (sweep and rerank); one for a block whose float32
        # sweep could overflow, which reranks every item instead.
        store = ArtifactStore(tmp_path / "gemms")
        store.publish("toy", result.u, result.v, graph=graph)
        store.publish("huge", result.u * 1e40, result.v, graph=graph)
        for name, per_block in (("toy", 2), ("huge", 1)):
            service = EmbeddingService(store, name)
            with obs.collect() as collector:
                service.top_items([0, 1, 2], 4)
                service.top_items([3], 0)  # n = 0 scores nothing
            assert service.metrics.snapshot()["counters"]["gemms"] == per_block
            assert collector.ops.gemms == per_block

class TestResidentBytes:
    """``bytes_resident`` counts heap bytes; file-mapped codes stay out."""

    def test_mapped_float_model_pins_only_its_staging(self, store, result):
        service = EmbeddingService(store, "toy")
        num_v, k = result.v.shape
        assert service.bytes_resident() == k * num_v * 4

    def test_heap_embeddings_are_counted(self, store, result):
        num_v, k = result.v.shape
        loaded = store.load("toy")
        assert TopKEngine(loaded.u, loaded.v).resident_bytes() == k * num_v * 4
        in_memory = TopKEngine(result.u, result.v)
        assert in_memory.resident_bytes() == (
            result.u.nbytes + result.v.nbytes + k * num_v * 4
        )

    def test_partial_probe_stages_no_sweep_operand(self, store, result, graph):
        """A partial probe reranks rows of V and never sweeps, so its model
        stages no float32 V.T; its lists are the probed engine's own."""
        from repro.ann import INDEX_FILE, IVFIndex

        ref = store.resolve("toy")
        index = IVFIndex.build(
            result.v, n_cells=4, seed=0,
            v_checksum=ArtifactStore.v_checksum(ref), source=ref.tag,
        )
        index.save(ref.path / INDEX_FILE)
        num_v, k = result.v.shape
        full = EmbeddingService(store, "toy", ann=True)
        partial = EmbeddingService(store, "toy", ann=True, nprobe=2)
        assert full.bytes_resident() - partial.bytes_resident() == k * num_v * 4
        users = np.array([0, 3, 17, 59], dtype=np.int64)
        response = partial.top_items(users, 6, with_scores=True)
        engine = TopKEngine(
            result.u, result.v, index=IVFIndex.load(ref.path / INDEX_FILE, result.v),
            nprobe=2,
        )
        items, scores = engine.top_items(6, users=users, exclude=graph, with_scores=True)
        np.testing.assert_array_equal(response["items"], items)
        np.testing.assert_array_equal(response["scores"], scores)
        assert response["nprobe"] == 2
        assert (partial.num_users, partial.num_items) == (60, num_v)
        # Partial probes allocate no score workspace either, and the
        # embeddings are mapped.
        assert partial.bytes_resident() == 0

    @pytest.mark.parametrize("codec", ["float16", "int8"])
    def test_mapped_codes_are_not_counted(self, tmp_path, result, codec):
        store = ArtifactStore(tmp_path / "q")
        store.publish("toy", result.u, result.v, quantize=codec)
        num_v, k = result.v.shape
        loaded = store.load("toy")
        staged = k * num_v * 4 + 2 * k * 8  # float32 V.T and two scale vectors
        in_memory = np.array(loaded.u), np.array(loaded.v)
        for (u_codes, v_codes), codes in (
            ((loaded.u, loaded.v), 0),
            (in_memory, loaded.u.nbytes + loaded.v.nbytes),
        ):
            engine = TopKEngine(
                u_codes, v_codes, scales=(loaded.u_scales, loaded.v_scales)
            )
            assert engine.resident_bytes() == codes + staged


class TestServiceMetrics:
    def test_unknown_counter_rejected(self):
        with pytest.raises(KeyError):
            ServiceMetrics().count("bogus")

    def test_queue_gauge_tracks_high_water(self):
        metrics = ServiceMetrics()
        metrics.queue_entered()
        metrics.queue_entered()
        metrics.queue_left()
        snapshot = metrics.snapshot()
        assert snapshot["queue"] == {"depth": 1, "depth_max": 2}

    def test_percentile_nearest_rank(self):
        samples = [10.0, 20.0, 30.0, 40.0]
        assert percentile(samples, 50) == 20.0
        assert percentile(samples, 95) == 40.0
        assert percentile([], 50) == 0.0
        assert percentile([7.0], 99) == 7.0


class TestQuantizedService:
    """Serving a quantized artifact: exact over the dequantized arrays."""

    @pytest.fixture(params=["float16", "int8"])
    def codec(self, request):
        return request.param

    @pytest.fixture
    def quant_store(self, tmp_path, result, graph, codec):
        store = ArtifactStore(tmp_path / "qstore")
        store.publish(
            "toy", result.u, result.v, graph=graph, method="random",
            quantize=codec,
        )
        return store

    def _offline(self, result, codec):
        from repro.core.quantize import quantize_columns

        u_codes, u_scales = quantize_columns(result.u, codec)
        v_codes, v_scales = quantize_columns(result.v, codec)
        return TopKEngine(u_codes, v_codes, scales=(u_scales, v_scales))

    def test_top_items_matches_offline_quant_engine(
        self, quant_store, result, graph, codec
    ):
        service = EmbeddingService(quant_store, "toy")
        assert service.quantize == codec
        offline = self._offline(result, codec)
        expected = offline.top_items(8, exclude=graph)
        out = service.top_items(range(result.u.shape[0]), 8)
        np.testing.assert_array_equal(out["items"], expected)

    def test_quantized_rejects_ann_mode(self, quant_store):
        from repro.serve import ArtifactError

        with pytest.raises(ArtifactError, match="republish without"):
            EmbeddingService(quant_store, "toy", ann=True)

    def test_quantized_resident_smaller_than_exact(
        self, quant_store, store, result, codec
    ):
        quant = EmbeddingService(quant_store, "toy")
        exact = EmbeddingService(store, "toy")
        # Both stage the same float32 V.T from mapped codes; the quantized
        # model pins its two float64 scale vectors on top.
        k = result.u.shape[1]
        assert 0 < exact.bytes_resident()
        assert quant.bytes_resident() == exact.bytes_resident() + 2 * k * 8

    def test_reload_crosses_codec_boundary(
        self, quant_store, result, graph, codec
    ):
        """v1 quantized -> v2 exact: reload swaps engines cleanly."""
        service = EmbeddingService(quant_store, "toy")
        assert service.quantize == codec
        quant_store.publish(
            "toy", result.u, result.v, graph=graph, method="random"
        )
        old, new = service.reload()
        assert (old, new) == ("toy@v1", "toy@v2")
        assert service.quantize is None
        expected = TopKEngine(result.u, result.v).top_items(5, exclude=graph)
        np.testing.assert_array_equal(
            service.top_items(range(result.u.shape[0]), 5)["items"], expected
        )


class TestSimilarQueries:
    @pytest.fixture
    def service(self, store):
        return EmbeddingService(store, "toy")

    @pytest.fixture(scope="class")
    def offline(self, graph):
        from repro.core.pmf import PoissonPMF
        from repro.tasks import SimilarityEngine, transposed_graph

        build = lambda g: SimilarityEngine(
            g, PoissonPMF(lam=1.0), 5, normalization="sym"
        )
        return {"u": build(graph), "v": build(transposed_graph(graph))}

    @pytest.mark.parametrize("mode", ["mhs", "mhp"])
    @pytest.mark.parametrize("side", ["u", "v"])
    def test_matches_offline_engine(self, service, offline, mode, side):
        sources = np.array([0, 5, 17], dtype=np.int64)
        expected, scores = offline[side].query(
            sources, 6, mode=mode, with_scores=True
        )
        response = service.similar(
            sources, 6, mode=mode, side=side, with_scores=True
        )
        np.testing.assert_array_equal(response["items"], expected)
        np.testing.assert_array_equal(response["scores"], scores)
        assert response["model"] == "toy@v1"
        assert response["mode"] == mode and response["side"] == side

    def test_counts_queries_and_matvecs(self, service):
        sources = np.array([1, 2, 3, 4], dtype=np.int64)
        service.similar(sources, 5, mode="mhp")
        counters = service.metrics.snapshot()["counters"]
        assert counters["similar_queries"] == 4
        # PoissonPMF tau=5 MHP: 2*5 hops + 1 W^T apply per source.
        assert counters["similar_matvecs"] == 11 * 4
        assert counters["requests"] >= 1

    def test_diagonal_probed_once_and_only_for_mhs(self, service, monkeypatch):
        from repro.tasks import SimilarityEngine

        probes = []
        original = SimilarityEngine._probe_diagonal

        def probe(engine, *args):
            probes.append(engine.num_u)
            return original(engine, *args)

        monkeypatch.setattr(SimilarityEngine, "_probe_diagonal", probe)
        service.similar(np.array([0, 3]), 5, mode="mhp")
        service.similar(np.array([1]), 5, mode="mhp", side="v")
        assert probes == []  # mhp never reads the H diagonal
        expected = service.similar(np.arange(8), 5, mode="mhs")["items"]
        failures = []

        def worker(offset):
            for source in range(offset, 8, 4):
                items = service.similar(np.array([source]), 5, mode="mhs")["items"]
                if items[0].tolist() != expected[source].tolist():
                    failures.append(source)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert failures == []
        assert probes == [service.num_users]  # one probe, shared by every clone

    def test_reload_probes_before_the_swap(self, service, store, graph,
                                           result, monkeypatch):
        """The reload probes the H diagonal of exactly the sides the old
        model had probed, so the new version's first mhs request makes no
        probe; graphless and refused versions probe nothing."""
        from repro.core.pmf import PoissonPMF
        from repro.serve import ArtifactError
        from repro.tasks import SimilarityEngine, transposed_graph

        rng = np.random.default_rng(10)
        new_graph = BipartiteGraph.from_edges(
            [
                (int(u), int(v), 1.0)
                for u in range(60)
                for v in rng.choice(40, size=4, replace=False)
            ]
        )
        sources = np.arange(6, dtype=np.int64)
        expected = SimilarityEngine(
            transposed_graph(new_graph), PoissonPMF(lam=1.0), 5,
            normalization="sym",
        ).query(sources, 7, mode="mhs", with_scores=True)
        probes = []
        original = SimilarityEngine._probe_diagonal

        def probe(engine, *args):
            probes.append(engine.num_u)
            return original(engine, *args)

        monkeypatch.setattr(SimilarityEngine, "_probe_diagonal", probe)
        service.similar(np.array([0]), 5, mode="mhs", side="v")
        service.similar(np.array([0]), 5, mode="mhp")  # side u: mhp only
        assert probes == [40]
        store.publish("toy", result.u, result.v, graph=new_graph, method="random")
        assert service.reload() == ("toy@v1", "toy@v2")
        assert probes == [40, 40]  # side v before the swap; side u (60) never
        response = service.similar(sources, 7, mode="mhs", side="v",
                                   with_scores=True)
        assert probes == [40, 40]  # the first mhs request made no probe
        assert response["model"] == "toy@v2"
        np.testing.assert_array_equal(response["items"], expected[0])
        np.testing.assert_array_equal(response["scores"], expected[1])
        service.similar(np.array([0]), 5, mode="mhp")
        assert probes == [40, 40]
        # A version refused by verification probes nothing ...
        ref = store.publish("toy", result.u, result.v, graph=graph, method="random")
        stored = bytearray((ref.path / "v.npy").read_bytes())
        stored[-1] ^= 0xFF
        (ref.path / "v.npy").write_bytes(bytes(stored))
        with pytest.raises(ArtifactError, match="checksum mismatch"):
            service.reload()
        assert probes == [40, 40] and service.artifact.tag == "toy@v2"
        # ... nor does one without a graph, which answers no similarity.
        store.publish("toy", result.u, result.v, method="random")
        assert service.reload() == ("toy@v2", "toy@v4")
        assert probes == [40, 40]
        with pytest.raises(ArtifactError, match="republish"):
            service.similar(np.array([0]), 5, side="v")

    def test_rejects_bad_arguments(self, service):
        with pytest.raises(ValueError, match="mode"):
            service.similar(np.array([0]), 5, mode="cosine")
        with pytest.raises(ValueError, match="side"):
            service.similar(np.array([0]), 5, side="w")

    def test_graphless_artifact_raises_pointed_error(self, tmp_path, result):
        from repro.serve import ArtifactError

        store = ArtifactStore(tmp_path / "nograph")
        store.publish("toy", result.u, result.v, method="random")
        service = EmbeddingService(store, "toy")
        with pytest.raises(ArtifactError, match="republish"):
            service.similar(np.array([0]), 5)

    def test_reload_swaps_the_similarity_engines(self, service, store, graph,
                                                 result):
        before = service.similar(np.array([0]), 5)
        store.publish(
            "toy", result.u, result.v, graph=graph, method="random"
        )
        assert service.reload() == ("toy@v1", "toy@v2")
        after = service.similar(np.array([0]), 5)
        assert after["model"] == "toy@v2"
        np.testing.assert_array_equal(after["items"], before["items"])

    def test_concurrent_threads_match_serial(self, service, offline):
        expected, _ = offline["u"].query(np.arange(20), 5, mode="mhs")
        failures = []

        def worker(seed):
            rng = np.random.default_rng(seed)
            for _ in range(6):
                source = int(rng.integers(20))
                response = service.similar(np.array([source]), 5)
                if response["items"][0].tolist() != expected[source].tolist():
                    failures.append(source)

        threads = [
            threading.Thread(target=worker, args=(seed,)) for seed in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert failures == []

"""Differential and property tests for the IVF ANN index (repro.ann).

The index is a candidate source of :class:`~repro.tasks.topk.TopKEngine`
(``TopKEngine(u, v, index=..., nprobe=...)``).  The load-bearing contract:
at full probe (``nprobe = n_cells``) the engine must produce lists and
scores *identical* to the engine without the index — same items, same
order, same tie-breaks — because the candidates come from the same sweep
and go through the same float64 rerank and
:func:`~repro.core.selection.select_topn`.  Partial probes trade recall for
latency along a measured, monotone knob.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.ann import (
    DEFAULT_CELLS,
    IVFIndex,
    assign_clusters,
    kmeans_fit,
)
from repro.core.selection import select_topn
from repro.graph import BipartiteGraph
from repro.linalg.parallel import ExecPolicy
from repro.serve import ArtifactError
from repro.tasks import TopKEngine


def _probed(u, v, index, nprobe=None, **kwargs):
    """The engine over ``u``, ``v`` whose candidates ``index`` proposes."""
    return TopKEngine(u, v, index=index, nprobe=nprobe, **kwargs)


def _clustered(num_items=500, num_queries=40, dimension=16, centers=8, seed=42):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((centers, dimension))
    v = c[rng.integers(0, centers, size=num_items)]
    v = v + 0.2 * rng.standard_normal(v.shape)
    u = c[rng.integers(0, centers, size=num_queries)]
    u = u + 0.2 * rng.standard_normal(u.shape)
    return u, v


@pytest.fixture(scope="module")
def clustered():
    return _clustered()


@pytest.fixture(scope="module")
def clustered_index(clustered):
    _, v = clustered
    return IVFIndex.build(v, n_cells=25, seed=0)


class TestFullProbeDifferential:
    @pytest.mark.parametrize("block_rows", [1, 7, 64, 256])
    def test_identical_to_engine_at_every_block_size(
        self, clustered, clustered_index, block_rows
    ):
        u, v = clustered
        engine = TopKEngine(u, v, block_rows=block_rows)
        expected = engine.top_items(10)
        items = _probed(
            u, v, clustered_index, clustered_index.n_cells, block_rows=block_rows
        ).top_items(10)
        np.testing.assert_array_equal(items, expected)

    def test_nprobe_none_means_full_probe(self, clustered, clustered_index):
        u, v = clustered
        expected = TopKEngine(u, v).top_items(10)
        engine = _probed(u, v, clustered_index)
        assert engine.nprobe == clustered_index.n_cells
        np.testing.assert_array_equal(engine.top_items(10), expected)

    def test_scores_identical_to_engine(self, clustered, clustered_index):
        u, v = clustered
        # A full probe is the engine's own sweep and fixed-order rerank, so
        # scores are bit-identical at any block size.
        expected_items, expected_scores = TopKEngine(u, v, block_rows=1).top_items(
            10, with_scores=True
        )
        items, scores = _probed(u, v, clustered_index).top_items(10, with_scores=True)
        np.testing.assert_array_equal(items, expected_items)
        np.testing.assert_array_equal(scores, expected_scores)

    def test_identical_with_exclusion(self, clustered, clustered_index):
        u, v = clustered
        rng = np.random.default_rng(7)
        mask = (rng.random((u.shape[0], v.shape[0])) < 0.02).astype(float)
        graph = BipartiteGraph.from_dense(mask)
        expected = TopKEngine(u, v).top_items(10, exclude=graph)
        items = _probed(u, v, clustered_index).top_items(10, exclude=graph)
        np.testing.assert_array_equal(items, expected)

    def test_identical_under_total_ties(self):
        # Integer embeddings engineered so many items tie exactly: the
        # deterministic (score desc, id asc) order must survive the
        # gather/rerank round trip.
        rng = np.random.default_rng(3)
        u = rng.integers(0, 2, size=(12, 6)).astype(np.float64)
        v = rng.integers(0, 2, size=(90, 6)).astype(np.float64)
        index = IVFIndex.build(v, n_cells=9, seed=0)
        expected = TopKEngine(u, v).top_items(15)
        items = _probed(u, v, index, index.n_cells).top_items(15)
        np.testing.assert_array_equal(items, expected)


class TestRecallKnob:
    def test_recall_monotone_non_decreasing_in_nprobe(
        self, clustered, clustered_index
    ):
        u, v = clustered
        exact = TopKEngine(u, v).top_items(10)
        recalls, candidates = [], []
        probes = [1, 2, 4, 8, 16, clustered_index.n_cells]
        for nprobe in probes:
            engine = _probed(u, v, clustered_index, nprobe)
            items = engine.top_items(10)
            recalls.append(
                np.mean(
                    [np.isin(exact[i], items[i]).mean() for i in range(len(u))]
                )
            )
            candidates.append(engine.ops.ann_candidates)
        assert recalls == sorted(recalls)
        assert candidates == sorted(candidates)
        assert recalls[-1] == 1.0
        assert candidates[-1] == len(u) * clustered_index.num_items

    def test_partial_probe_pads_when_starved(self):
        # One probed cell can hold fewer items than n: the row is
        # right-padded with -1 ids and -inf scores.
        rng = np.random.default_rng(5)
        v = rng.standard_normal((30, 4))
        index = IVFIndex.build(v, n_cells=10, seed=0)
        smallest = int(index.cell_sizes().min())
        items, scores = _probed(v[:3], v, index, 1).top_items(25, with_scores=True)
        assert items.shape == (3, 25)
        for row in range(3):
            real = items[row] >= 0
            assert real.sum() <= int(index.cell_sizes().max())
            assert np.all(items[row][~real] == -1)
            assert np.all(np.isneginf(scores[row][~real]))
        assert smallest >= 0  # cells may legally be tiny or empty

    def test_bad_nprobe_rejected(self, clustered, clustered_index):
        u, v = clustered
        with pytest.raises(ValueError, match="nprobe"):
            _probed(u, v, clustered_index, 0)
        with pytest.raises(ValueError, match="nprobe requires an index"):
            TopKEngine(u, v, nprobe=2)


class TestEngineRerank:
    """A partial probe reranks each row's cell candidates through the
    engine's rerank, in the engine's blocks; the index holds no V."""

    @staticmethod
    def _probe_reference(index, u, v, n, nprobe, exclude=None):
        """Per row: the probed cells' items, fixed-order float64 dots,
        training edges masked, (score desc, id asc), -1/-inf padded."""
        cells = select_topn(u @ index.centroids.T, nprobe)
        truth = np.einsum("uk,ik->ui", u, v)
        if exclude is not None:
            truth[exclude.w.toarray() != 0] = -np.inf
        items = np.full((len(u), n), -1)
        scores = np.full((len(u), n), -np.inf)
        for row in range(len(u)):
            cand = np.sort(np.concatenate([
                index.cell_items[index.cell_offsets[c]:index.cell_offsets[c + 1]]
                for c in cells[row]
            ]))
            order = cand[np.lexsort((cand, -truth[row, cand]))][:n]
            items[row, : order.size] = order
            scores[row, : order.size] = truth[row, order]
        return items, scores

    @pytest.mark.parametrize("nprobe", [1, 3, 8])
    @pytest.mark.parametrize("masked", [False, True])
    def test_partial_probe_lists_and_scores(
        self, clustered, clustered_index, nprobe, masked
    ):
        u, v = clustered
        exclude = None
        if masked:
            rng = np.random.default_rng(13)
            exclude = BipartiteGraph.from_dense(
                (rng.random((u.shape[0], v.shape[0])) < 0.05).astype(float)
            )
        items, scores = _probed(u, v, clustered_index, nprobe).top_items(
            12, exclude=exclude, with_scores=True
        )
        want_items, want_scores = self._probe_reference(
            clustered_index, u, v, 12, nprobe, exclude
        )
        np.testing.assert_array_equal(items, want_items)
        np.testing.assert_array_equal(scores, want_scores)

    def test_full_probe_through_a_given_engine(self, clustered, clustered_index):
        """A full probe is the engine's sweep: it stages the same V.T as the
        engine without the index and lists what it lists; a partial probe
        stages none.  An index over other items is refused."""
        u, v = clustered
        exact = TopKEngine(u, v, block_rows=5)
        full = _probed(u, v, clustered_index, block_rows=5)
        partial = _probed(u, v, clustered_index, 2, block_rows=5)
        assert full.resident_bytes() == exact.resident_bytes() > partial.resident_bytes()
        got = full.top_items(10, with_scores=True)
        want = exact.top_items(10, with_scores=True)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        with pytest.raises(ValueError, match="items"):
            _probed(u, v[:-1], clustered_index)

    @pytest.mark.parametrize("masked", [False, True])
    def test_partial_probe_runs_in_the_engines_blocks(
        self, clustered, clustered_index, masked, monkeypatch
    ):
        """No probe sees more than ``block_rows`` query rows, and the lists
        and scores do not depend on the block size; training edges stay
        masked across block edges."""
        u, v = clustered
        exclude = None
        if masked:
            rng = np.random.default_rng(17)
            exclude = BipartiteGraph.from_dense(
                (rng.random((u.shape[0], v.shape[0])) < 0.05).astype(float)
            )
        seen = []
        probe = IVFIndex.probe

        def recording(index, queries, nprobe):
            seen.append(queries.shape[0])
            return probe(index, queries, nprobe)

        monkeypatch.setattr(IVFIndex, "probe", recording)
        results = {}
        for block_rows in (1, 7, None):
            seen.clear()
            engine = _probed(u, v, clustered_index, 3, block_rows=block_rows)
            results[block_rows] = engine.top_items(12, exclude=exclude, with_scores=True)
            assert sum(seen) == u.shape[0]
            assert max(seen) == min(engine.block_rows, u.shape[0])
        want_items, want_scores = self._probe_reference(
            clustered_index, u, v, 12, 3, exclude
        )
        for items, scores in results.values():
            np.testing.assert_array_equal(items, want_items)
            np.testing.assert_array_equal(scores, want_scores)

    def test_index_holds_no_staged_copy_of_v(self, clustered, tmp_path):
        _, v = clustered
        np.save(tmp_path / "v.npy", v)
        mapped = np.load(tmp_path / "v.npy", mmap_mode="r")
        index = IVFIndex.build(v, n_cells=9, seed=0)
        index.save(tmp_path / "index-ivf.npz")
        for built in (index, IVFIndex.load(tmp_path / "index-ivf.npz", mapped)):
            arrays = [a for a in vars(built).values() if isinstance(a, np.ndarray)]
            # No reference to the item matrix: every array is routing state,
            # far smaller than V.
            assert not any(np.shares_memory(a, v) or np.shares_memory(a, mapped)
                           for a in arrays)
            assert all(a.nbytes < v.nbytes // 2 for a in arrays)


class TestInvertedListProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 60),
        k=st.integers(1, 6),
        cells=st.integers(1, 80),
        seed=st.integers(0, 2**16),
    )
    def test_every_item_in_exactly_one_cell(self, n, k, cells, seed):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal((n, k))
        index = IVFIndex.build(v, n_cells=cells, seed=seed)
        # Cell count is clipped to the item count, never beyond.
        assert 1 <= index.n_cells <= min(cells, n)
        offsets = index.cell_offsets
        assert offsets[0] == 0 and offsets[-1] == n
        assert np.all(np.diff(offsets) >= 0)
        # The inverted lists are a permutation of arange(n): every item in
        # exactly one cell, ids ascending inside each cell.
        np.testing.assert_array_equal(np.sort(index.cell_items), np.arange(n))
        for cell in range(index.n_cells):
            members = index.cell_items[offsets[cell] : offsets[cell + 1]]
            assert np.all(np.diff(members) > 0)

    def test_empty_cells_are_legal_and_searchable(self):
        # All-duplicate points collapse into one cluster; the other cells
        # stay empty and search must still match the exact engine.
        v = np.ones((20, 3))
        index = IVFIndex.build(v, n_cells=5, seed=0)
        assert (index.cell_sizes() == 0).any()
        u = np.ones((4, 3))
        expected = TopKEngine(u, v).top_items(6)
        np.testing.assert_array_equal(
            _probed(u, v, index, index.n_cells).top_items(6), expected
        )
        # Probing only empty-ish cells still answers (possibly padded).
        items = _probed(u, v, index, 1).top_items(6)
        assert items.shape == (4, 6)

    def test_n_larger_than_num_items(self, clustered, clustered_index):
        # k > n_items clips the list width exactly like the engine.
        u, v = clustered
        small = IVFIndex.build(v[:7], n_cells=3, seed=0)
        expected = TopKEngine(u, v[:7]).top_items(50)
        items = _probed(u, v[:7], small, small.n_cells).top_items(50)
        assert items.shape == expected.shape == (u.shape[0], 7)
        np.testing.assert_array_equal(items, expected)

    def test_default_cells_heuristic(self):
        assert DEFAULT_CELLS(1) == 1
        assert DEFAULT_CELLS(100) == 10
        assert DEFAULT_CELLS(1_000_000) == 1000
        assert DEFAULT_CELLS(2) <= 2


class TestKMeans:
    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(1)
        points = rng.standard_normal((200, 5))
        a_centroids, a_labels = kmeans_fit(points, 8, seed=9)
        b_centroids, b_labels = kmeans_fit(points, 8, seed=9)
        np.testing.assert_array_equal(a_centroids, b_centroids)
        np.testing.assert_array_equal(a_labels, b_labels)

    def test_labels_are_nearest_centroid(self):
        rng = np.random.default_rng(2)
        points = rng.standard_normal((150, 4))
        centroids, labels = kmeans_fit(points, 6, seed=0)
        expected, _ = assign_clusters(points, centroids)
        np.testing.assert_array_equal(labels, expected)

    def test_assign_ties_break_to_smallest_index(self):
        points = np.zeros((3, 2))
        centroids = np.zeros((4, 2))  # every centroid equidistant
        labels, distances = assign_clusters(points, centroids)
        np.testing.assert_array_equal(labels, np.zeros(3, dtype=labels.dtype))
        np.testing.assert_allclose(distances, 0.0, atol=1e-12)

    def test_cluster_count_clamped_to_points(self):
        points = np.random.default_rng(0).standard_normal((5, 3))
        centroids, labels = kmeans_fit(points, 50, seed=0)
        assert centroids.shape[0] <= 5
        assert labels.max() < centroids.shape[0]


class TestPersistence:
    def test_save_load_round_trip(self, clustered, clustered_index, tmp_path):
        u, v = clustered
        path = tmp_path / "index-ivf.npz"
        clustered_index.save(path)
        loaded = IVFIndex.load(path, v)
        np.testing.assert_array_equal(
            _probed(u, v, loaded, 4).top_items(10),
            _probed(u, v, clustered_index, 4).top_items(10),
        )
        assert loaded.v_checksum == clustered_index.v_checksum
        assert loaded.n_cells == clustered_index.n_cells

    def test_load_rejects_dimension_mismatch(
        self, clustered, clustered_index, tmp_path
    ):
        _, v = clustered
        path = tmp_path / "index-ivf.npz"
        clustered_index.save(path)
        with pytest.raises(ArtifactError, match="dimension"):
            IVFIndex.load(path, v[:, :-1])

    def test_load_rejects_item_count_mismatch(
        self, clustered, clustered_index, tmp_path
    ):
        _, v = clustered
        path = tmp_path / "index-ivf.npz"
        clustered_index.save(path)
        with pytest.raises(ArtifactError, match="rebuild"):
            IVFIndex.load(path, v[:-1])

    def test_load_rejects_content_drift(
        self, clustered, clustered_index, tmp_path
    ):
        # Same shape, different bytes: the "index built from artifact v3,
        # served against v4" failure mode.  The digest catches it.
        _, v = clustered
        path = tmp_path / "index-ivf.npz"
        clustered_index.save(path)
        tampered = v.copy()
        tampered[0, 0] += 1.0
        with pytest.raises(ArtifactError, match="different artifact version"):
            IVFIndex.load(path, tampered)

    def test_load_rejects_garbage_file(self, clustered, tmp_path):
        _, v = clustered
        path = tmp_path / "index-ivf.npz"
        path.write_bytes(b"not an npz")
        with pytest.raises(ArtifactError):
            IVFIndex.load(path, v)

    def test_meta_records_provenance(self, clustered):
        _, v = clustered
        index = IVFIndex.build(v, n_cells=4, seed=11, source="toy@v1")
        meta = index.meta()
        assert meta["schema"] == "repro.ann.ivf"
        assert meta["seed"] == 11
        assert meta["source"] == "toy@v1"
        assert meta["num_items"] == v.shape[0]
        assert meta["v_checksum"]


class TestObservability:
    def test_counters_report_probes_and_candidates(
        self, clustered, clustered_index
    ):
        u, v = clustered
        engine = _probed(u, v, clustered_index, 3)
        with obs.collect() as collector:
            engine.top_items(10)
        assert collector.ops.ann_probes == len(u) * 3
        assert collector.ops.ann_probes == engine.ops.ann_probes
        assert collector.ops.ann_candidates == engine.ops.ann_candidates
        assert collector.ops.gemms >= 1  # the centroid routing GEMM


class TestKMeansThreadInvariance:
    """The satellite pin: the assignment sweep's span partition depends on
    ``_CHUNK_ENTRIES`` alone, never the thread count, so routing the
    distance GEMMs through ``ParallelExecutor`` is bit-invisible — same
    labels, same distances, same GEMM tally at every ``n_threads``."""

    def test_assignments_bit_identical_and_counters_pinned(self, monkeypatch):
        import repro.ann.kmeans as kmeans_mod

        monkeypatch.setattr(kmeans_mod, "_CHUNK_ENTRIES", 640)
        rng = np.random.default_rng(5)
        points = rng.standard_normal((300, 6))
        centroids = rng.standard_normal((10, 6))
        # chunk = 640 // 10 = 64 points -> ceil(300 / 64) = 5 spans.
        serial = ExecPolicy(n_threads=1, serial_threshold=0)
        with obs.collect() as baseline:
            ref_labels, ref_distances = assign_clusters(
                points, centroids, exec_policy=serial
            )
        assert baseline.ops.gemms == 5
        assert baseline.threads == 1
        for n_threads in (2, 4):
            policy = ExecPolicy(n_threads=n_threads, serial_threshold=0)
            with obs.collect() as collector:
                labels, distances = assign_clusters(
                    points, centroids, exec_policy=policy
                )
            np.testing.assert_array_equal(labels, ref_labels)
            np.testing.assert_array_equal(distances, ref_distances)
            # One GEMM per span — the tally must not shift with threads.
            assert collector.ops.gemms == 5
            assert collector.threads == min(n_threads, 5)

    def test_kmeans_fit_bit_identical_across_thread_counts(self):
        rng = np.random.default_rng(7)
        points = rng.standard_normal((240, 5))
        serial = ExecPolicy(n_threads=1, serial_threshold=0)
        ref_centroids, ref_labels = kmeans_fit(
            points, 8, seed=3, exec_policy=serial
        )
        for n_threads in (2, 4):
            policy = ExecPolicy(n_threads=n_threads, serial_threshold=0)
            centroids, labels = kmeans_fit(
                points, 8, seed=3, exec_policy=policy
            )
            np.testing.assert_array_equal(centroids, ref_centroids)
            np.testing.assert_array_equal(labels, ref_labels)

    def test_index_build_unchanged_by_exec_policy(self):
        _, v = _clustered(num_items=200, num_queries=1, seed=13)
        reference = IVFIndex.build(v, n_cells=12, seed=0)
        threaded = IVFIndex.build(
            v,
            n_cells=12,
            seed=0,
            exec_policy=ExecPolicy(n_threads=4, serial_threshold=0),
        )
        np.testing.assert_array_equal(
            reference.centroids, threaded.centroids
        )
        np.testing.assert_array_equal(
            reference.cell_offsets, threaded.cell_offsets
        )
        np.testing.assert_array_equal(
            reference.cell_items, threaded.cell_items
        )

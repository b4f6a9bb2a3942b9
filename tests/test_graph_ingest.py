"""Streaming ingest and the on-disk CSR graph store.

Pins the contracts docs/SCALING.md advertises:

* the chunked parser (:func:`iter_edge_chunks`) raises byte-identical
  error messages to the legacy ``read_edge_list`` path — which now *runs*
  on it, so the equivalence is checked by raising through both entry
  points;
* :func:`build_graph_store` publishes a store whose resident load matches
  ``read_edge_list`` bit-for-bit on duplicate-free input (structure always,
  weights up to summation order only when duplicates exist);
* ingest peak RSS is O(chunk + nodes), independent of the edge count.
"""

import threading
import time

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graph import (
    GraphStore,
    GraphStoreError,
    build_graph_store,
    iter_edge_chunks,
    read_edge_list,
)
from repro.obs import MemorySampler


def _parse_all(path, **kwargs):
    """Run the chunk parser to completion, returning (chunks, u_index, v_index)."""
    u_index, v_index = {}, {}
    chunks = list(
        iter_edge_chunks(path, u_index=u_index, v_index=v_index, **kwargs)
    )
    return chunks, u_index, v_index


class TestIterEdgeChunks:
    def test_chunk_sizes_and_first_seen_indices(self, tmp_path):
        path = tmp_path / "g.tsv"
        lines = [f"u{i % 4}\ti{i}\t{float(i + 1)!r}\n" for i in range(10)]
        path.write_text("".join(lines))
        chunks, u_index, v_index = _parse_all(path, chunk_edges=3)
        assert [c.u.shape[0] for c in chunks] == [3, 3, 3, 1]
        # First-seen order, independently per side.
        assert list(u_index) == ["u0", "u1", "u2", "u3"]
        assert list(v_index) == [f"i{i}" for i in range(10)]
        # Typed arrays, already label-resolved.
        first = chunks[0]
        assert first.u.dtype == np.int64
        assert first.weight.dtype == np.float64
        np.testing.assert_array_equal(first.u, [0, 1, 2])
        np.testing.assert_array_equal(first.weight, [1.0, 2.0, 3.0])

    def test_new_labels_reported_exactly_once(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("a\tx\n" "b\tx\n" "a\ty\n" "c\ty\n")
        chunks, u_index, v_index = _parse_all(path, chunk_edges=2)
        seen_u = [label for c in chunks for label in c.new_u_labels]
        seen_v = [label for c in chunks for label in c.new_v_labels]
        assert seen_u == list(u_index) == ["a", "b", "c"]
        assert seen_v == list(v_index) == ["x", "y"]

    def test_unweighted_lines_default_to_one(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("a\tx\n" "b\ty\t2.5\n")  # mixed; weighted=None
        chunks, _, _ = _parse_all(path)
        np.testing.assert_array_equal(chunks[0].weight, [1.0, 2.5])

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("# header\n\na\tx\t1.0\n")
        chunks, _, _ = _parse_all(path)
        assert sum(c.u.shape[0] for c in chunks) == 1

    def test_chunk_edges_must_be_positive(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("a\tx\n")
        with pytest.raises(ValueError, match="chunk_edges must be positive"):
            _parse_all(path, chunk_edges=0)


class TestErrorMessageEquivalence:
    """Both entry points must raise the exact legacy diagnostics."""

    BAD_INPUTS = [
        ("a\n", {}, "{path}:1: expected at least 2 fields"),
        (
            "a\tx\t1.0\tjunk\n",
            {},
            "{path}:1: expected at most 3 fields, got 4",
        ),
        ("a\tx\n", {"weighted": True}, "{path}:1: expected a weight column"),
        (
            "a\tx\t1.0\n",
            {"weighted": False},
            "{path}:1: unexpected weight column "
            "(file has 3 fields but weighted=False was requested)",
        ),
        ("a\tx\tnan\n", {}, "{path}:1: non-finite weight 'nan'"),
        ("ok\tx\t1.0\nb\n", {}, "{path}:2: expected at least 2 fields"),
    ]

    @pytest.mark.parametrize("content,kwargs,message", BAD_INPUTS)
    def test_loader_and_ingest_raise_identically(
        self, tmp_path, content, kwargs, message
    ):
        path = tmp_path / "bad.tsv"
        path.write_text(content)
        expected = message.format(path=path)
        with pytest.raises(ValueError) as via_loader:
            read_edge_list(path, **kwargs)
        with pytest.raises(ValueError) as via_ingest:
            build_graph_store(path, tmp_path / "store", **kwargs)
        assert str(via_loader.value) == expected
        assert str(via_ingest.value) == expected
        # A failed ingest publishes nothing.
        assert not (tmp_path / "store").exists()


def _random_edge_file(path, rng, num_u=37, num_v=53, num_edges=700):
    """A duplicate-free weighted edge list touching every U node."""
    pairs = rng.permutation(num_u * num_v)[:num_edges]
    with open(path, "w", encoding="utf-8") as handle:
        for flat in pairs.tolist():
            u, v = divmod(flat, num_v)
            weight = float(rng.uniform(0.1, 5.0))
            handle.write(f"u{u}\tv{v}\t{weight!r}\n")


class TestBuildGraphStore:
    def test_matches_resident_loader_bit_identically(self, tmp_path):
        path = tmp_path / "g.tsv"
        _random_edge_file(path, np.random.default_rng(11))
        resident = read_edge_list(path)
        # chunk_edges far below the edge count forces multiple spill runs.
        store, stats = build_graph_store(
            path, tmp_path / "store", chunk_edges=64
        )
        assert stats.runs_spilled > 1
        assert stats.duplicates_merged == 0
        loaded = store.resident_graph().w
        np.testing.assert_array_equal(loaded.indptr, resident.w.indptr)
        np.testing.assert_array_equal(loaded.indices, resident.w.indices)
        np.testing.assert_array_equal(loaded.data, resident.w.data)
        assert store.resident_graph().u_labels == resident.u_labels
        assert store.resident_graph().v_labels == resident.v_labels

    def test_transposed_direction_is_the_transpose(self, tmp_path):
        path = tmp_path / "g.tsv"
        _random_edge_file(path, np.random.default_rng(13), num_edges=300)
        store, _ = build_graph_store(path, tmp_path / "store", chunk_edges=50)
        v2u = store.csr("v2u").to_scipy()
        expected = store.resident_graph().w.T.tocsr()
        expected.sort_indices()
        assert (v2u != expected).nnz == 0

    def test_duplicates_summed_in_input_order(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text(
            "a\tx\t1.5\n" "b\ty\t1.0\n" "a\tx\t2.0\n" "a\tx\t0.25\n"
        )
        store, stats = build_graph_store(
            path, tmp_path / "store", chunk_edges=2
        )
        assert stats.edges_read == 4
        assert stats.duplicates_merged == 2
        assert stats.nnz == store.nnz == 2
        graph = store.resident_graph()
        assert graph.weight(graph.u_id("a"), graph.v_id("x")) == 1.5 + 2.0 + 0.25

    def test_zero_aggregates_dropped(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("a\tx\t0.0\n" "b\ty\t1.0\n" "c\tz\t2.0\nc\tz\t-2.0\n")
        store, stats = build_graph_store(path, tmp_path / "store")
        assert stats.zeros_dropped == 2
        assert store.nnz == 1
        # Dropped edges still claim their node ids (first-seen order).
        assert store.num_u == 3 and store.num_v == 3

    def test_negative_aggregate_rejected(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("a\tx\t1.0\n" "a\tx\t-3.0\n")
        with pytest.raises(ValueError, match="must be non-negative"):
            build_graph_store(path, tmp_path / "store")
        assert not (tmp_path / "store").exists()

    def test_existing_dest_requires_force(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("a\tx\t1.0\n")
        build_graph_store(path, tmp_path / "store")
        with pytest.raises(GraphStoreError, match="already exists"):
            build_graph_store(path, tmp_path / "store")
        path.write_text("a\tx\t9.0\n")
        store, _ = build_graph_store(path, tmp_path / "store", force=True)
        assert store.resident_graph().weight(0, 0) == 9.0

    def test_verify_catches_corruption(self, tmp_path):
        path = tmp_path / "g.tsv"
        _random_edge_file(path, np.random.default_rng(17), num_edges=120)
        store, _ = build_graph_store(path, tmp_path / "store")
        store.verify()  # clean store passes
        target = store.path / store.manifest["arrays"]["u2v_data"]["file"]
        raw = bytearray(target.read_bytes())
        raw[-1] ^= 0xFF
        target.write_bytes(bytes(raw))
        with pytest.raises(GraphStoreError, match="checksum mismatch"):
            GraphStore.open(store.path).verify()

    @pytest.mark.parametrize("damage", ["truncated", "appended", "header", "empty"])
    def test_verify_names_a_damaged_file(self, tmp_path, damage):
        path = tmp_path / "g.tsv"
        _random_edge_file(path, np.random.default_rng(17), num_edges=120)
        store, _ = build_graph_store(path, tmp_path / "store")
        name = store.manifest["arrays"]["v2u_indices"]["file"]
        raw = (store.path / name).read_bytes()
        raw = {
            "truncated": raw[:-3],
            "appended": raw + b"\0",
            "header": b"\0" * 16 + raw[16:],
            "empty": b"",
        }[damage]
        (store.path / name).write_bytes(raw)
        with pytest.raises(GraphStoreError, match=name):
            GraphStore.open(store.path).verify()
        if damage != "appended":
            # Mapping the direction for a fit names the file too.
            with pytest.raises(GraphStoreError, match=name):
                GraphStore.open(store.path).csr("v2u")

    def test_open_missing_or_invalid(self, tmp_path):
        with pytest.raises(GraphStoreError, match="does not exist"):
            GraphStore.open(tmp_path / "nope")
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(GraphStoreError, match="missing manifest.json"):
            GraphStore.open(empty)

    def test_stats_property_and_nbytes(self, tmp_path):
        path = tmp_path / "g.tsv"
        _random_edge_file(path, np.random.default_rng(19), num_edges=200)
        store, stats = build_graph_store(path, tmp_path / "store")
        assert store.stats == stats.to_dict()
        itemsize = np.dtype(np.int64).itemsize
        expected = (
            (store.num_u + 1 + store.num_v + 1) * itemsize  # indptrs
            + 2 * store.nnz * itemsize  # indices, both directions
            + 2 * store.nnz * np.dtype(np.float64).itemsize  # data
        )
        assert store.nbytes() == expected


class TestIngestMemory:
    def test_peak_rss_is_chunk_bounded_not_edge_bounded(self, tmp_path):
        """Ingest RSS must track O(chunk + nodes), not the edge count.

        300k edges through the legacy tuple-list loader cost ~45 MB of
        resident tuples; the streaming pipeline with chunk_edges=8192 keeps
        under ~1 MB of chunk state.  The 32 MB ceiling is ~30x the expected
        footprint yet well below the tuple-list cost, so a regression to
        edge-proportional buffering trips it deterministically.
        """
        num_edges = 300_000
        path = tmp_path / "big.tsv"
        rng = np.random.default_rng(23)
        users = rng.integers(0, 2_000, size=num_edges)
        items = rng.integers(0, 5_000, size=num_edges)
        with open(path, "w", encoding="utf-8") as handle:
            block = 50_000
            for lo in range(0, num_edges, block):
                handle.write(
                    "".join(
                        f"u{u}\ti{v}\n"
                        for u, v in zip(
                            users[lo : lo + block].tolist(),
                            items[lo : lo + block].tolist(),
                        )
                    )
                )

        sampler = MemorySampler()
        sampler.sample()
        baseline = sampler.peak_rss_bytes
        if baseline == 0:
            pytest.skip("RSS sampling unavailable on this platform")
        done = threading.Event()

        def poll():
            while not done.is_set():
                sampler.sample()
                time.sleep(0.002)

        thread = threading.Thread(target=poll)
        thread.start()
        try:
            store, stats = build_graph_store(
                path, tmp_path / "store", chunk_edges=8192
            )
        finally:
            done.set()
            thread.join()
        sampler.sample()
        assert stats.runs_spilled >= num_edges // 8192
        assert store.nnz > 0
        delta = sampler.peak_rss_bytes - baseline
        assert delta < 32 * 1024 * 1024, (
            f"ingest grew RSS by {delta / 1e6:.1f} MB on {num_edges} edges; "
            "the streaming pipeline should stay chunk-bounded"
        )

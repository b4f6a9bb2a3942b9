"""Differential and property tests for the similarity engine (repro.tasks).

The load-bearing contract: :class:`~repro.tasks.SimilarityEngine` must
produce top-n lists *element-identical* to ranking the dense
``repro.core.measures`` references (``mhs_matrix`` / ``mhp_matrix``) with
the shared :func:`~repro.core.selection.select_topn` — same items, same
order, same tie-breaks — at every block size and thread count, because a
one-hot column evolves independently through the hop recurrence and the
diagonal scaling replicates the dense elementwise order.  The blocked
applies are a pure batching knob: per-source rows are bit-identical for
every ``BLOCK_SOURCES`` width and every thread count.
"""

import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.measures import h_matrix, mhp_matrix, mhs_matrix
from repro.core.pmf import PoissonPMF, UniformPMF
from repro.core.selection import select_topn
from repro.datasets import erdos_renyi_bipartite, figure1_graph
from repro.graph import BipartiteGraph, build_graph_store
from repro.linalg import DtypePolicy
from repro.tasks import (
    SIMILARITY_MODES,
    SimilarityEngine,
    transposed_graph,
)
from repro.tasks import similarity as similarity_module

TAU = 4
PMF = PoissonPMF(lam=1.5)

# {1, 7, all}: degenerate single-source blocks, a width that never divides
# the source count evenly, and one block swallowing every source at once.
BLOCKS = (1, 7, 10_000)
THREADS = (1, 2, 4)


def _engine(graph, *, threads=1, pmf=PMF, tau=TAU):
    policy = DtypePolicy.default().with_threads(threads)
    return SimilarityEngine(graph, pmf, tau, normalization="none", policy=policy)


def _blocks(width):
    """Run queries and diagonal probes in ``width``-source blocks."""
    return mock.patch.object(similarity_module, "BLOCK_SOURCES", width)


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi_bipartite(40, 25, 220, weighted=True, seed=5)


@pytest.fixture(scope="module")
def dense(graph):
    """Dense reference scores: raw Eq. 3-5 over the same graph."""
    s = mhs_matrix(graph, PMF, TAU)
    np.fill_diagonal(s, -np.inf)
    return {"mhs": s, "mhp": mhp_matrix(graph, PMF, TAU)}


@pytest.fixture(scope="module")
def ties_graph():
    """All-ties fixture: complete unweighted K_{8,5}.

    Every H entry (and every MHP entry) collapses onto a handful of exactly
    representable integer-arithmetic values, so rankings are decided almost
    entirely by the lexicographic tie-break — the harshest test of list
    identity.
    """
    edges = [(u, v) for u in range(8) for v in range(5)]
    return BipartiteGraph.from_edges(edges, num_u=8, num_v=5)


# ---------------------------------------------------------------------------
# Differential: engine lists == dense reference lists
# ---------------------------------------------------------------------------
class TestDifferential:
    @pytest.mark.parametrize("mode", SIMILARITY_MODES)
    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("threads", THREADS)
    def test_lists_identical_to_dense_reference(
        self, graph, dense, mode, block, threads
    ):
        sources = np.arange(graph.num_u, dtype=np.int64)
        expected = select_topn(dense[mode], 10)
        with _blocks(block):
            engine = _engine(graph, threads=threads)
            items, scores = engine.query(sources, 10, mode=mode, with_scores=True)
        np.testing.assert_array_equal(items, expected)
        assert scores.shape == items.shape

    @pytest.mark.parametrize("block", BLOCKS)
    def test_rows_bitwise_identical_across_blocks(self, graph, block):
        # The block width is pure batching: per-source rows never move a bit.
        sources = np.arange(graph.num_u, dtype=np.int64)
        anchor = _engine(graph)
        with _blocks(block):
            engine = _engine(graph)
            h_rows, mhp_rows = engine.h_rows(sources), engine.mhp_rows(sources)
        np.testing.assert_array_equal(h_rows, anchor.h_rows(sources))
        np.testing.assert_array_equal(
            mhp_rows, anchor.mhp_rows(sources)
        )
        np.testing.assert_array_equal(
            engine.mhs_rows(sources), anchor.mhs_rows(sources)
        )

    @pytest.mark.parametrize("threads", THREADS)
    def test_rows_bitwise_identical_across_threads(self, graph, threads):
        sources = np.arange(graph.num_u, dtype=np.int64)
        anchor = _engine(graph, threads=1)
        engine = _engine(graph, threads=threads)
        np.testing.assert_array_equal(
            engine.h_rows(sources), anchor.h_rows(sources)
        )
        np.testing.assert_array_equal(
            engine.mhs_rows(sources), anchor.mhs_rows(sources)
        )

    def test_h_rows_match_dense_h(self, graph):
        h = h_matrix(graph, PMF, TAU)
        engine = _engine(graph)
        np.testing.assert_allclose(
            engine.h_rows(np.arange(graph.num_u)), h, rtol=1e-12, atol=1e-12
        )

    def test_self_similarity_pinned(self, graph):
        # Lemma 2.1(ii): s(u, u) = 1 exactly; exclude_self masks it to -inf.
        engine = _engine(graph)
        sources = np.arange(graph.num_u, dtype=np.int64)
        rows = engine.mhs_rows(sources, exclude_self=False)
        np.testing.assert_array_equal(
            rows[sources, sources], np.ones(graph.num_u)
        )
        masked = engine.mhs_rows(sources, exclude_self=True)
        assert np.all(np.isneginf(masked[sources, sources]))

    @pytest.mark.parametrize("mode", SIMILARITY_MODES)
    @pytest.mark.parametrize("block", (1, 3, 10_000))
    def test_all_ties_integer_weights(self, ties_graph, mode, block):
        # Massive exact ties: the lexicographic tie-break alone decides.
        reference = {
            "mhs": mhs_matrix(ties_graph, PMF, TAU),
            "mhp": mhp_matrix(ties_graph, PMF, TAU),
        }[mode]
        if mode == "mhs":
            reference = reference.copy()
            np.fill_diagonal(reference, -np.inf)
        n = reference.shape[1]
        expected = select_topn(reference, n)
        with _blocks(block):
            items, _ = _engine(ties_graph).query(
                np.arange(ties_graph.num_u), n, mode=mode
            )
        np.testing.assert_array_equal(items, expected)

    def test_v_side_via_transposed_graph(self, graph):
        # The V-side engine runs the same Eq. 3-4 series over W^T, i.e. the
        # dense reference is mhs_matrix of the transposed graph.  (This is
        # deliberately NOT measures.mhs_matrix_v_side, which is Lemma 2.2's
        # shifted series.)
        expected_s = mhs_matrix(graph.transpose(), PMF, TAU)
        np.fill_diagonal(expected_s, -np.inf)
        engine = _engine(transposed_graph(graph))
        assert engine.num_u == graph.num_v
        items, _ = engine.query(np.arange(graph.num_v), 10, mode="mhs")
        np.testing.assert_array_equal(items, select_topn(expected_s, 10))
        # V-side MHP ranks U-nodes: scores are the dense P^T rows.
        expected_p = mhp_matrix(graph, PMF, TAU).T
        items, _ = engine.query(np.arange(graph.num_v), 10, mode="mhp")
        np.testing.assert_array_equal(items, select_topn(expected_p, 10))

    @settings(max_examples=25, deadline=None)
    @given(
        num_u=st.integers(2, 10),
        num_v=st.integers(1, 8),
        tau=st.integers(0, 4),
        n=st.integers(1, 6),
        block=st.integers(1, 12),
        integer_weights=st.booleans(),
        seed=st.integers(0, 10_000),
    )
    def test_property_random_graphs(
        self, num_u, num_v, tau, n, block, integer_weights, seed
    ):
        rng = np.random.default_rng(seed)
        num_edges = int(rng.integers(1, num_u * num_v + 1))
        graph = erdos_renyi_bipartite(
            num_u, num_v, num_edges, weighted=not integer_weights, seed=seed
        )
        pmf = UniformPMF(tau=max(tau, 1))
        s = mhs_matrix(graph, pmf, tau)
        np.fill_diagonal(s, -np.inf)
        p = mhp_matrix(graph, pmf, tau)
        engine = _engine(graph, pmf=pmf, tau=tau)
        sources = np.arange(num_u, dtype=np.int64)
        with _blocks(block):
            mhs_items, _ = engine.query(sources, n, mode="mhs")
            mhp_items, _ = engine.query(sources, n, mode="mhp")
        np.testing.assert_array_equal(mhs_items, select_topn(s, n))
        np.testing.assert_array_equal(mhp_items, select_topn(p, n))


# ---------------------------------------------------------------------------
# Store-backed (mmap) graphs
# ---------------------------------------------------------------------------
class TestStoreBacked:
    @pytest.fixture(scope="class")
    def store_pair(self, tmp_path_factory):
        # Both sides parse the same TSV, so node indexing is identical and
        # mmap-vs-resident comparisons can demand bitwise equality.
        root = tmp_path_factory.mktemp("similarity-store")
        graph = erdos_renyi_bipartite(30, 18, 140, weighted=True, seed=11)
        path = root / "edges.tsv"
        coo = graph.w.tocoo()
        with open(path, "w", encoding="utf-8") as handle:
            for u, v, weight in zip(
                coo.row.tolist(), coo.col.tolist(), coo.data.tolist()
            ):
                handle.write(f"{u}\t{v}\t{weight!r}\n")
        from repro.graph import read_edge_list

        store, _ = build_graph_store(path, root / "store", chunk_edges=64)
        return read_edge_list(path), store.graph()

    def test_mmap_rows_bitwise_identical_to_resident(self, store_pair):
        resident, mmapped = store_pair
        sources = np.arange(resident.num_u, dtype=np.int64)
        anchor = _engine(resident)
        engine = _engine(mmapped)
        np.testing.assert_array_equal(
            engine.h_rows(sources), anchor.h_rows(sources)
        )
        np.testing.assert_array_equal(
            engine.mhs_rows(sources), anchor.mhs_rows(sources)
        )
        np.testing.assert_array_equal(
            engine.mhp_rows(sources), anchor.mhp_rows(sources)
        )

    def test_mmap_transposed_lists_match_resident(self, store_pair):
        resident, mmapped = store_pair
        sources = np.arange(resident.num_v, dtype=np.int64)
        anchor = _engine(transposed_graph(resident))
        engine = _engine(transposed_graph(mmapped))
        for mode in SIMILARITY_MODES:
            expected, _ = anchor.query(sources, 5, mode=mode)
            items, _ = engine.query(sources, 5, mode=mode)
            np.testing.assert_array_equal(items, expected)


# ---------------------------------------------------------------------------
# Paper anchor
# ---------------------------------------------------------------------------
class TestTable2Anchor:
    def test_matrix_free_rows_reproduce_table2(self):
        # Figure 1's running example, Poisson(2) over 60 hops (Table 2).
        engine = SimilarityEngine(
            figure1_graph(), PoissonPMF(lam=2.0), 60, normalization="none"
        )
        assert engine.h_rows([0])[0][0] == pytest.approx(3.641, abs=2e-3)
        assert engine.mhs_rows([1])[0][3] == pytest.approx(0.914, abs=2e-3)


# ---------------------------------------------------------------------------
# Diagonal probing
# ---------------------------------------------------------------------------
class TestDiagonal:
    def test_matches_dense_diagonal(self, graph):
        h = h_matrix(graph, PMF, TAU)
        diag = _engine(graph).h_diagonal()
        np.testing.assert_allclose(diag, np.diag(h), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("block_size", (1, 5, 64, 1000))
    def test_bitwise_identical_at_every_block_size(self, graph, block_size):
        anchor = _engine(graph).h_diagonal()
        with _blocks(block_size):
            probed = _engine(graph).h_diagonal()
        np.testing.assert_array_equal(probed, anchor)

    def test_cached_after_first_probe(self, graph):
        engine = _engine(graph)
        first = engine.h_diagonal()
        with _blocks(3):
            assert engine.h_diagonal() is first


# ---------------------------------------------------------------------------
# Worker clones
# ---------------------------------------------------------------------------
class TestClone:
    def test_clone_shares_diagonal_and_matches(self, graph):
        engine = _engine(graph)
        diag = engine.h_diagonal()
        clone = engine.clone_for_worker()
        assert clone.h_diagonal() is diag  # shared, not re-probed
        sources = np.arange(graph.num_u, dtype=np.int64)
        for mode in SIMILARITY_MODES:
            expected, _ = engine.query(sources, 8, mode=mode)
            items, _ = clone.query(sources, 8, mode=mode)
            np.testing.assert_array_equal(items, expected)

    def test_concurrent_clones_never_contend(self, graph):
        engine = _engine(graph)
        engine.h_diagonal()
        sources = np.arange(graph.num_u, dtype=np.int64)
        expected, _ = engine.query(sources, 6, mode="mhs")
        results = {}

        def worker(slot):
            clone = engine.clone_for_worker()
            for _ in range(5):
                items, _ = clone.query(sources, 6, mode="mhs")
                results.setdefault(slot, []).append(items)

        threads = [
            threading.Thread(target=worker, args=(k,)) for k in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(results) == 4
        for rounds in results.values():
            for items in rounds:
                np.testing.assert_array_equal(items, expected)


# ---------------------------------------------------------------------------
# Cost accounting
# ---------------------------------------------------------------------------
class TestAccounting:
    @pytest.mark.parametrize("mode", SIMILARITY_MODES)
    def test_matvecs_counted_at_linalg_layer(self, graph, mode):
        engine = _engine(graph)
        engine.h_diagonal()  # pre-pay the probe outside the window
        sources = np.arange(13, dtype=np.int64)
        with obs.collect() as collector:
            engine.query(sources, 5, mode=mode)
        assert collector.ops.sparse_matvecs == (
            engine.matvecs_per_source(mode) * sources.size
        )

    def test_per_source_cost_formula(self, graph):
        engine = _engine(graph)
        assert engine.matvecs_per_source("mhs") == 2 * TAU
        assert engine.matvecs_per_source("mhp") == 2 * TAU + 1
        with obs.collect() as collector:
            engine.h_diagonal()
        assert collector.ops.sparse_matvecs == 2 * TAU * graph.num_u

    def test_workspace_reused_across_queries(self, graph):
        engine = _engine(graph)

        def workspace_bytes():
            # The reusable buffers: the kernels' pools plus the one-hot block.
            return engine._operator._kernel.workspace_bytes() + engine._onehot.nbytes

        engine.query([0, 1, 2], 5, mode="mhp")
        held = workspace_bytes()
        assert held > 0
        engine.query(np.arange(graph.num_u), 5, mode="mhs")
        # Wider batches may grow the one-hot buffer once; repeating the
        # same shapes must not.
        grown = workspace_bytes()
        engine.query(np.arange(graph.num_u), 5, mode="mhs")
        assert workspace_bytes() == grown


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------
class TestValidation:
    def test_rejects_bad_parameters(self, graph):
        with pytest.raises(ValueError, match="tau"):
            SimilarityEngine(graph, PMF, -1)

    def test_rejects_unknown_mode(self, graph):
        engine = _engine(graph)
        with pytest.raises(ValueError, match="mode"):
            engine.query([0], 3, mode="cosine")
        with pytest.raises(ValueError, match="mode"):
            engine.matvecs_per_source("cosine")

    def test_rejects_out_of_range_sources(self, graph):
        engine = _engine(graph)
        with pytest.raises(IndexError, match="out of range"):
            engine.query([graph.num_u], 3)
        with pytest.raises(IndexError, match="out of range"):
            engine.h_rows([-1])

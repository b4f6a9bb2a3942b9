"""Out-of-core fit: bit-identity to the resident path and budget-bounded RSS.

The store layer's contract (see ``repro/graph/store.py``) is that every
blocked product performs, per output element, exactly the floating-point
operations of the resident scipy path in the same order — so a GEBE^p fit
over a memory-mapped store must be **bit-identical** to the fit over the
same store loaded resident, at every thread count and staging budget.
These tests pin that claim, the unchanged operation schedule, and the
peak-RSS win the whole path exists for.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.preprocess as preprocess_module
from repro import obs
from repro.core import GEBEPoisson, MHPOnlyBNE, MHSOnlyBNE, gebe_poisson
from repro.graph import build_graph_store
from repro.graph.store import OocWorkspace, StoreCSR, row_blocks
from repro.linalg import DtypePolicy, SparseKernel, SpectrumCache, warm_basis_from_embedding
from repro.obs import current_rss_bytes


def _random_edge_file(path, rng, num_u=40, num_v=60, num_edges=500):
    pairs = rng.permutation(num_u * num_v)[:num_edges]
    with open(path, "w", encoding="utf-8") as handle:
        for flat in pairs.tolist():
            u, v = divmod(flat, num_v)
            weight = float(rng.uniform(0.1, 5.0))
            handle.write(f"u{u}\tv{v}\t{weight!r}\n")


def _fit(graph, *, threads=1, budget_mb=None, seed=7):
    policy = DtypePolicy.default().with_threads(threads)
    if budget_mb is not None:
        policy = policy.with_ooc_budget(budget_mb)
    return GEBEPoisson(dimension=8, seed=seed, dtype_policy=policy).fit(graph)


@pytest.fixture(scope="module")
def fit_store(tmp_path_factory):
    root = tmp_path_factory.mktemp("ooc-fit")
    path = root / "g.tsv"
    _random_edge_file(path, np.random.default_rng(31))
    store, _ = build_graph_store(path, root / "store", chunk_edges=128)
    return store


def _counted_fit(graph, **kwargs):
    """A fit and its operation schedule: (sparse matvecs, QR factorizations)."""
    with obs.collect() as collector:
        result = _fit(graph, **kwargs)
    return result, (collector.ops.sparse_matvecs, collector.ops.qr_factorizations)


@pytest.fixture(scope="module")
def anchor(fit_store):
    """The resident single-thread fit every out-of-core fit must reproduce,
    with its operation schedule."""
    return _counted_fit(fit_store.resident_graph())


# ---------------------------------------------------------------------------
# Blocked-operator building blocks
# ---------------------------------------------------------------------------
class TestRowBlocks:
    @settings(max_examples=60, deadline=None)
    @given(
        counts=st.lists(st.integers(0, 40), min_size=1, max_size=50),
        max_nnz=st.integers(1, 64),
    )
    def test_blocks_partition_rows_within_budget(self, counts, max_nnz):
        indptr = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        blocks = list(row_blocks(indptr, 0, len(counts), max_nnz))
        # Exact partition of [0, n) in order.
        assert blocks[0][0] == 0 and blocks[-1][1] == len(counts)
        for (_, prev_hi), (lo, hi) in zip(blocks, blocks[1:]):
            assert lo == prev_hi
            assert hi > lo
        for lo, hi in blocks:
            nnz = int(indptr[hi] - indptr[lo])
            # Budget respected unless a single row alone exceeds it.
            assert nnz <= max_nnz or hi == lo + 1
            assert hi - lo <= max_nnz

    def test_single_wide_row_forms_own_block(self):
        indptr = np.array([0, 100, 101], dtype=np.int64)
        assert list(row_blocks(indptr, 0, 2, 8)) == [(0, 1), (1, 2)]


class TestOocWorkspace:
    def test_staged_block_matches_direct_slices(self):
        rng = np.random.default_rng(5)
        w = sp.random(20, 30, density=0.3, random_state=3, format="csr")
        csr = StoreCSR(w.indptr, w.indices, w.data, w.shape)
        ws = OocWorkspace(1 << 20, w.indices.dtype, w.data.dtype)
        indptr, indices, data = ws.stage(csr, 4, 11)
        start, stop = int(w.indptr[4]), int(w.indptr[11])
        np.testing.assert_array_equal(indptr, w.indptr[4:12] - w.indptr[4])
        np.testing.assert_array_equal(indices, w.indices[start:stop])
        np.testing.assert_array_equal(data, w.data[start:stop])
        assert rng is not None  # silence lint on unused rng

    def test_bytes_copied_odometer(self):
        w = sp.random(16, 16, density=0.4, random_state=9, format="csr")
        csr = StoreCSR(w.indptr, w.indices, w.data, w.shape)
        ws = OocWorkspace(1 << 20, w.indices.dtype, w.data.dtype)
        assert ws.bytes_copied == 0
        indptr, indices, data = ws.stage(csr, 0, 16)
        expected = indptr.nbytes + indices.nbytes + data.nbytes
        assert ws.bytes_copied == expected
        ws.stage(csr, 0, 16)
        assert ws.bytes_copied == 2 * expected

    def test_tiny_budget_still_admits_one_element(self):
        ws = OocWorkspace(1, np.dtype(np.int64), np.dtype(np.float64))
        assert ws.max_nnz == 1


class TestBlockedProductsBitIdentical:
    """Kernel products under any budget == scipy products, bit for bit."""

    @pytest.mark.parametrize("budget_mb", [1e-4, 0.01, 64.0])
    def test_matmul_and_t_matmul(self, budget_mb):
        rng = np.random.default_rng(41)
        w = sp.random(37, 53, density=0.15, random_state=11, format="csr")
        csr = StoreCSR(w.indptr, w.indices, w.data, w.shape)
        policy = DtypePolicy.default().with_ooc_budget(budget_mb)
        kernel = SparseKernel(csr, policy)
        x = rng.standard_normal((53, 5))
        y = rng.standard_normal((37, 5))
        assert np.array_equal(kernel.matmul(x), w @ x)
        assert np.array_equal(kernel.t_matmul(y), w.T @ y)


# ---------------------------------------------------------------------------
# The fit-level contract
# ---------------------------------------------------------------------------
class TestFitBitIdentity:
    @pytest.mark.parametrize("threads", [1, 2, 4])
    @pytest.mark.parametrize("budget_mb", [0.05, 1.0])
    def test_store_fit_matches_resident_anchor(
        self, fit_store, anchor, threads, budget_mb
    ):
        result, schedule = _counted_fit(
            fit_store.graph(), threads=threads, budget_mb=budget_mb
        )
        anchor_fit, anchor_schedule = anchor
        assert np.array_equal(result.u, anchor_fit.u)
        assert np.array_equal(result.v, anchor_fit.v)
        # Streaming the store changes memory traffic, never the operation
        # schedule: every matvec and QR is counted as on the resident path.
        assert schedule == anchor_schedule

    def test_resident_fit_is_thread_invariant(self, fit_store, anchor):
        # The anchor itself must not depend on executor width, or the
        # mmap-vs-resident comparison above would be ill-posed.
        anchor_fit, _ = anchor
        result = _fit(fit_store.resident_graph(), threads=4)
        assert np.array_equal(result.u, anchor_fit.u)
        assert np.array_equal(result.v, anchor_fit.v)


class TestStoreBackedSolvers:
    """Every store-backed solver stages under the policy's budget, and the
    solver features built on GEBE^p's SVD work on a store as they do
    resident."""

    BUDGET_MB = 0.05

    @pytest.mark.parametrize(
        "method", [gebe_poisson, MHPOnlyBNE, MHSOnlyBNE], ids=["gebe", "mhp", "mhs"]
    )
    def test_staging_stays_within_the_budget(self, fit_store, method, monkeypatch):
        budget_bytes = self.BUDGET_MB * 1024 * 1024
        workspace_budgets, normalize_blocks = [], []
        init = OocWorkspace.__init__

        def recording_init(ws, budget, *args, **kwargs):
            workspace_budgets.append(budget)
            init(ws, budget, *args, **kwargs)

        def recording_row_blocks(indptr, lo, hi, max_nnz):
            normalize_blocks.append(max_nnz)
            return row_blocks(indptr, lo, hi, max_nnz)

        monkeypatch.setattr(OocWorkspace, "__init__", recording_init)
        monkeypatch.setattr(preprocess_module, "row_blocks", recording_row_blocks)
        policy = DtypePolicy.default().with_ooc_budget(self.BUDGET_MB)
        result = method(8, seed=7, dtype_policy=policy).fit(fit_store.graph())
        assert workspace_budgets and normalize_blocks
        assert max(workspace_budgets) <= budget_bytes
        # The streamed normalize reads three arrays per staged element.
        assert max(normalize_blocks) * 24 <= budget_bytes
        monkeypatch.undo()
        resident = method(8, seed=7).fit(fit_store.resident_graph())
        assert np.array_equal(result.u, resident.u)
        assert np.array_equal(result.v, resident.v)

    def test_similarity_engine_stages_within_the_budget(self, fit_store, monkeypatch):
        from repro.core.pmf import PoissonPMF
        from repro.tasks import SimilarityEngine

        budget_bytes = self.BUDGET_MB * 1024 * 1024
        normalize_blocks = []

        def recording_row_blocks(indptr, lo, hi, max_nnz):
            normalize_blocks.append(max_nnz)
            return row_blocks(indptr, lo, hi, max_nnz)

        monkeypatch.setattr(preprocess_module, "row_blocks", recording_row_blocks)
        policy = DtypePolicy.default().with_ooc_budget(self.BUDGET_MB)

        def lists(graph, policy=None):
            engine = SimilarityEngine(
                graph, PoissonPMF(lam=1.0), 3, normalization="sym", policy=policy
            )
            return engine.query(list(range(graph.num_u)), 5, mode="mhp")

        store_items, store_scores = lists(fit_store.graph(), policy)
        assert normalize_blocks
        # The streamed normalize reads three arrays per staged element.
        assert max(normalize_blocks) * 24 <= budget_bytes
        monkeypatch.undo()
        items, scores = lists(fit_store.resident_graph())
        assert np.array_equal(store_items, items)
        assert np.array_equal(store_scores, scores)

    def test_lambda_sweep_over_a_store_runs_one_svd(self, fit_store):
        def sweep(graph):
            cache = SpectrumCache()
            fits = [
                GEBEPoisson(8, lam=lam, seed=7, spectrum_cache=cache).fit(graph)
                for lam in (0.5, 2.0)
            ]
            return cache, fits

        cache, fits = sweep(fit_store.graph())
        assert (cache.misses, cache.hits) == (1, 1)
        _, resident = sweep(fit_store.resident_graph())
        for got, want in zip(fits, resident):
            assert np.array_equal(got.u, want.u)
            assert np.array_equal(got.v, want.v)

    def test_warm_refit_over_a_store_matches_resident(self, fit_store, anchor):
        anchor_fit, _ = anchor
        basis = warm_basis_from_embedding(
            anchor_fit.u, anchor_fit.metadata["effective_dimension"]
        )
        policy = DtypePolicy.default().with_ooc_budget(self.BUDGET_MB)
        store_fit, resident_fit = (
            GEBEPoisson(8, seed=7, dtype_policy=policy, warm_start=basis).fit(graph)
            for graph in (fit_store.graph(), fit_store.resident_graph())
        )
        assert store_fit.metadata["refresh"]["mode"] == "warm"
        assert store_fit.metadata["refresh"] == resident_fit.metadata["refresh"]
        assert np.array_equal(store_fit.u, resident_fit.u)
        assert np.array_equal(store_fit.v, resident_fit.v)


@pytest.mark.slow
class TestFitBitIdentityProperties:
    """Hypothesis sweep: ingest arbitrary edge lists, fit both ways."""

    @settings(max_examples=10, deadline=None)
    @given(
        edges=st.lists(
            st.tuples(
                st.integers(0, 9),
                st.integers(0, 9),
                st.floats(0.1, 5.0, allow_nan=False),
            ),
            min_size=1,
            max_size=50,
        ),
        threads=st.sampled_from([1, 4]),
        budget_mb=st.sampled_from([0.001, 0.5]),
    )
    def test_random_graphs_fit_bit_identically(self, edges, threads, budget_mb):
        with tempfile.TemporaryDirectory(prefix="repro-ooc-prop-") as tmp:
            path = Path(tmp) / "g.tsv"
            with open(path, "w", encoding="utf-8") as handle:
                for u, v, weight in edges:
                    handle.write(f"u{u}\ti{v}\t{float(weight)!r}\n")
            store, _ = build_graph_store(
                path, Path(tmp) / "store", chunk_edges=7
            )
            reference = _fit(store.resident_graph())
            result = _fit(
                store.graph(), threads=threads, budget_mb=budget_mb
            )
            assert np.array_equal(result.u, reference.u)
            assert np.array_equal(result.v, reference.v)


# ---------------------------------------------------------------------------
# Peak-RSS regression
# ---------------------------------------------------------------------------
_RSS_PROBE = """
import sys, threading, time
from repro.graph import GraphStore
from repro.core import GEBEPoisson
from repro.linalg import DtypePolicy
from repro.obs import MemorySampler

mode, store_path, budget_mb = sys.argv[1], sys.argv[2], float(sys.argv[3])
store = GraphStore.open(store_path)
sampler = MemorySampler()
sampler.sample()
baseline = sampler.peak_rss_bytes
done = threading.Event()

def poll():
    while not done.is_set():
        sampler.sample()
        time.sleep(0.002)

thread = threading.Thread(target=poll)
thread.start()
try:
    # Graph construction counts: the resident path pays for its arrays here.
    if mode == "mmap":
        graph = store.graph()
        policy = DtypePolicy.default().with_ooc_budget(budget_mb)
    else:
        graph = store.resident_graph()
        policy = DtypePolicy.default()
    GEBEPoisson(dimension=8, seed=7, dtype_policy=policy).fit(graph)
finally:
    done.set()
    thread.join()
sampler.sample()
print(sampler.peak_rss_bytes - baseline)
"""


def _fit_rss_delta(store_path, mode, budget_mb):
    """Peak RSS growth of open-store -> fit, measured in a fresh process."""
    import os
    import subprocess
    import sys

    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(Path(__file__).resolve().parent.parent / "src")
        + os.pathsep
        + env.get("PYTHONPATH", "")
    )
    proc = subprocess.run(
        [sys.executable, "-c", _RSS_PROBE, mode, str(store_path), str(budget_mb)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return int(proc.stdout.strip())


@pytest.mark.slow
class TestFitPeakRss:
    def test_mmap_fit_stays_under_resident_footprint(self, tmp_path):
        """The out-of-core fit must not materialize the store's arrays.

        On a store whose CSR arrays dwarf the dense embedding blocks, the
        mmap fit's RSS growth must stay below the store size (it streams
        budget-sized slices) and below the growth of the same fit over the
        resident-loaded graph (which pays for the full arrays up front).
        """
        if current_rss_bytes() is None:
            pytest.skip("RSS sampling unavailable on this platform")
        num_edges, num_u, num_v = 600_000, 1_500, 5_000
        rng = np.random.default_rng(47)
        users = rng.integers(0, num_u, size=num_edges)
        items = rng.integers(0, num_v, size=num_edges)
        path = tmp_path / "big.tsv"
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
        store, _ = build_graph_store(path, tmp_path / "store")
        budget_mb = 2.0

        # The copy odometer and bit-identity checks run in-process.
        with obs.collect() as collector:
            mmap_fit = _fit(store.graph(), budget_mb=budget_mb)
            section = collector.ooc_section(budget_mb=budget_mb)
        resident_fit = _fit(store.resident_graph())
        assert np.array_equal(mmap_fit.u, resident_fit.u)
        assert np.array_equal(mmap_fit.v, resident_fit.v)
        # The kernels streamed the matrix rather than loading it: at least
        # one full pass of the u2v indices+data went through staging.
        assert section["bytes_copied_in"] >= store.nnz * 16

        # RSS deltas come from fresh subprocesses: in-process measurement is
        # order-contaminated (freed pages stay resident, so whichever fit
        # runs second reuses the first one's arena and "grows" less).
        delta_mmap = _fit_rss_delta(store.path, "mmap", budget_mb)
        delta_resident = _fit_rss_delta(store.path, "resident", budget_mb)
        assert delta_mmap < store.nbytes(), (
            f"mmap fit grew RSS by {delta_mmap / 1e6:.1f} MB, at least the "
            f"whole {store.nbytes() / 1e6:.1f} MB store — not out-of-core"
        )
        assert delta_mmap < delta_resident, (
            f"mmap fit RSS growth ({delta_mmap / 1e6:.1f} MB) should undercut "
            f"the resident fit's ({delta_resident / 1e6:.1f} MB)"
        )

"""Cross-module checks at the shapes the retired benchmark harness gated.

The per-module suites pin each contract on small unit inputs.  These tests
run the same contracts end to end on the harness's seeded mid-size inputs:
the ``dblp`` zoo graph for fits, top-k and refresh; a clustered item
stand-in for the IVF index and quantized artifacts; a streamed edge file for
the out-of-core fit; an Erdos-Renyi graph for similarity queries.  No test
reads a clock: every assertion is on lists, bits or operation counts.
"""

from unittest import mock

import numpy as np
import pytest

from repro import obs
from repro.ann import IVFIndex
from repro.baselines import make_method
from repro.core import GEBEPoisson, PoissonPMF
from repro.core.measures import mhp_matrix, mhs_matrix
from repro.core.quantize import dequantize_columns, quantize_columns
from repro.core.selection import select_topn
from repro.datasets import DATASETS, erdos_renyi_bipartite
from repro.graph import DeltaLog, apply_deltas, build_graph_store
from repro.linalg import DtypePolicy, kernels, warm_basis_from_embedding
from repro.linalg import policy as policy_module
from repro.serve.artifacts import ArtifactStore
from repro.tasks import SimilarityEngine, TopKEngine
from repro.tasks import similarity as similarity_module
from repro.tasks import topk as topk_module

DIMENSION = 16
METHODS = ("GEBE^p", "GEBE (Poisson)")
N = 10


def _serial() -> DtypePolicy:
    return DtypePolicy.default().with_threads(1)


def _sharded(threads: int) -> DtypePolicy:
    return DtypePolicy(n_threads=threads)


@pytest.fixture(autouse=True, scope="module")
def _shard_every_apply():
    # A zero threshold shards every apply of a _sharded policy, however
    # small the block.
    with mock.patch.object(policy_module, "SERIAL_THRESHOLD", 0):
        yield


def _overlap(lists: np.ndarray, reference: np.ndarray) -> float:
    """Mean per-row share of ``reference`` items that ``lists`` recovers."""
    return float(np.mean([np.isin(ref, got).mean() for got, ref in zip(lists, reference)]))


def _clustered(num_items: int, num_queries: int, seed: int = 0):
    """``(items, queries)`` scattered around 64 unit centers in ``DIMENSION``-d.

    Inner-product neighbourhoods are clustered, the regime IVF exists for,
    so recall climbs with ``nprobe`` instead of jumping to 1.
    """
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((64, DIMENSION))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    v = centers[rng.integers(0, 64, size=num_items)]
    queries = centers[rng.integers(0, 64, size=num_queries)]
    return (v + 0.15 * rng.standard_normal(v.shape),
            queries + 0.15 * rng.standard_normal(queries.shape))


@pytest.fixture(scope="module")
def dblp():
    return DATASETS["dblp"].load(0)


@pytest.fixture(scope="module")
def gebe_p(dblp):
    return make_method("GEBE^p", dimension=DIMENSION, seed=0, dtype_policy=_serial()).fit(dblp)


class TestRunBench:
    """Both GEBE variants on ``dblp``: no policy changes the op schedule."""

    @staticmethod
    def _ops(graph, policy):
        with obs.collect() as collector:
            for name in METHODS:
                kwargs = {"max_iterations": 15} if name.startswith("GEBE (") else {}
                make_method(name, dimension=DIMENSION, seed=0, dtype_policy=policy,
                            **kwargs).fit(graph)
        return collector.report(method="schedule", wall_seconds=0.0)

    @pytest.fixture(scope="class")
    def reference(self, dblp):
        return self._ops(dblp, _serial())

    def _assert_same_schedule(self, graph, policy, reference):
        report = self._ops(graph, policy)
        for key in ("sparse_matvecs", "flops", "qr_factorizations"):
            assert report.ops[key] == reference.ops[key], key
        return report

    def test_matvec_counts_identical_across_kernel_paths(self, dblp, reference):
        # Column chunks narrower than the sketch split every block apply.
        for block_cols in (1, 3):
            with mock.patch.object(kernels, "BLOCK_COLS", block_cols):
                self._assert_same_schedule(dblp, _serial(), reference)

    def test_comparisons_cover_every_new_kernel_policy(self, dblp, reference):
        policy = DtypePolicy.float32().with_threads(1)
        assert policy.describe() == "float32/workspace"
        self._assert_same_schedule(dblp, policy, reference)

    def test_comparisons_cover_every_thread_count(self, dblp, reference):
        for threads in (2, 4):
            report = self._assert_same_schedule(dblp, _sharded(threads), reference)
            assert report.threads == threads

    def test_topk_lists_identical_to_per_user(self, dblp, gebe_p):
        per_user = np.stack([
            gebe_p.top_items(user, N, exclude=dblp.u_neighbors(user))
            for user in range(dblp.num_u)
        ])
        for block_rows in (1, 64, 1024):
            for threads in (1, 2):
                with mock.patch.object(topk_module, "DEFAULT_BLOCK_ROWS", block_rows):
                    engine = TopKEngine.from_result(gebe_p, policy=_sharded(threads))
                with obs.collect() as collector:
                    lists = engine.top_items(N, exclude=dblp)
                np.testing.assert_array_equal(lists, per_user)
                assert collector.ops.topk_candidates == dblp.num_u * dblp.num_v


class TestAnnAxis:
    """IVF over 5 000 clustered items against the exact engine."""

    @pytest.fixture(scope="class")
    def standin(self):
        v, queries = _clustered(5_000, 16)
        engine = TopKEngine(queries, v, policy=_serial())
        return v, queries, engine.top_items(N), IVFIndex.build(v, seed=0)

    def _probe(self, standin, nprobe):
        """``(lists, candidates)`` of the engine whose candidates the index
        proposes, probing ``nprobe`` cells."""
        v, queries, _, index = standin
        engine = TopKEngine(queries, v, index=index, nprobe=nprobe, policy=_serial())
        return engine.top_items(N), engine.ops.ann_candidates

    def test_exact_row_first(self, standin):
        v, queries, reference, _ = standin
        with obs.collect() as collector:
            lists = TopKEngine(queries, v, policy=_serial()).top_items(N)
        np.testing.assert_array_equal(lists, reference)
        assert collector.ops.topk_candidates == len(v) * len(queries)

    def test_full_probe_row_rides_along_and_is_exact(self, standin):
        v, queries, reference, index = standin
        lists, candidates = self._probe(standin, index.n_cells)
        np.testing.assert_array_equal(lists, reference)
        assert candidates == len(v) * len(queries)

    def test_recall_monotone_in_nprobe(self, standin):
        _, _, reference, index = standin
        probes = sorted({min(p, index.n_cells) for p in (1, 2, 8)} | {index.n_cells})
        recalls, candidates = [], []
        for nprobe in probes:
            lists, probed = self._probe(standin, nprobe)
            # -1 padding (a starved partial probe) counts against recall.
            recalls.append(_overlap(lists, reference))
            candidates.append(probed)
        assert recalls == sorted(recalls) and candidates == sorted(candidates)
        assert recalls[0] < 1.0 == recalls[-1]


class TestQuantAxis:
    """Exact and quantized artifacts of a 5 000-item stand-in, served mapped."""

    @pytest.fixture(scope="class")
    def served(self, tmp_path_factory):
        """``{mode: (artifact bytes, engine over the mapped load)}`` over one
        artifact store, and ``"in-memory"``: an engine over the published
        arrays themselves."""
        v, u = _clustered(5_000, 16)
        store = ArtifactStore(str(tmp_path_factory.mktemp("quant")))
        cells = {"in-memory": (None, TopKEngine(u, v, policy=_serial()))}
        for mode in ("exact", "float16", "int8"):
            ref = store.publish("standin", u, v, quantize=None if mode == "exact" else mode)
            size = sum(entry.stat().st_size for entry in ref.path.iterdir())
            loaded = store.load("standin", ref.version, verify=False)
            scales = None if mode == "exact" else (loaded.u_scales, loaded.v_scales)
            cells[mode] = size, TopKEngine(loaded.u, loaded.v, scales=scales,
                                           policy=_serial())
        return cells

    def test_every_row_list_identical(self, served):
        in_memory = served["in-memory"][1].top_items(N)
        np.testing.assert_array_equal(served["exact"][1].top_items(N), in_memory)
        v, u = _clustered(5_000, 16)
        for codec in ("float16", "int8"):
            engine = served[codec][1]
            # Against the dequantized arrays: the margin rerank may not move
            # the lists beyond what quantization itself moved.
            dequantized = (dequantize_columns(*quantize_columns(side, codec))
                           for side in (u, v))
            exact = TopKEngine(*dequantized, policy=_serial()).top_items(N)
            np.testing.assert_array_equal(engine.top_items(N), exact)

    def test_quantized_artifacts_smaller_and_margin_bounded(self, served):
        exact_bytes, exact = served["exact"]
        for codec in ("float16", "int8"):
            size, engine = served[codec]
            assert size < exact_bytes
            # Both tiers stage the same float32 V.T from mapped codes; the
            # quantized one pins its two float64 scale vectors on top.
            pinned = engine.resident_bytes() - engine.workspace_bytes()
            exact_pinned = exact.resident_bytes() - exact.workspace_bytes()
            assert pinned == exact_pinned + 2 * engine.dimension * 8
            engine.reranked_candidates = 0
            engine.top_items(N)
            # The margin reranks a strict subset of the cross product.
            assert 0 < engine.reranked_candidates < engine.num_users * engine.num_items


class TestRefreshAxis:
    """GEBE^p on ``dblp`` refit cold and warm after 1% of the edges reweight."""

    FRACTION = 0.01

    @pytest.fixture(scope="class")
    def refresh(self, dblp, gebe_p):
        coo = dblp.w.tocoo()
        count = int(round(self.FRACTION * coo.nnz))
        chosen = np.sort(np.random.default_rng(1).choice(coo.nnz, count, replace=False))
        log = DeltaLog.for_graph(dblp)
        for pos in chosen:
            log.reweight(int(coo.row[pos]), int(coo.col[pos]), float(coo.data[pos]) * 1.25)
        new_graph = apply_deltas(dblp, log)

        def fit(warm_start=None):
            method = GEBEPoisson(dimension=DIMENSION, seed=0, dtype_policy=_serial(),
                                 warm_start=warm_start)
            with obs.collect() as collector:
                result = method.fit(new_graph)
            return result, collector.ops

        basis = warm_basis_from_embedding(gebe_p.u, gebe_p.metadata.get("effective_dimension"))
        return {"log": log, "count": count, "graph": new_graph,
                "cold": fit(), "warm": fit(basis)}

    def test_delta_touches_requested_fraction(self, dblp, refresh):
        assert len(refresh["log"].deltas) == refresh["count"] >= 1
        # A reweight-only delta keeps the incidence and moves exactly the
        # chosen weights.
        before, after = dblp.w.tocsr(), refresh["graph"].w.tocsr()
        assert ((before != 0) != (after != 0)).nnz == 0
        assert (before != after).nnz == refresh["count"]

    def test_warm_refit_saves_matvecs_and_qr(self, refresh):
        (_, cold), (warm_fit, warm) = refresh["cold"], refresh["warm"]
        assert warm_fit.metadata["refresh"]["mode"] == "warm"  # accepted, not the fallback
        assert warm.sparse_matvecs < cold.sparse_matvecs
        assert warm.qr_factorizations < cold.qr_factorizations

    def test_quality_gate_passes(self, refresh):
        cold_lists = TopKEngine.from_result(refresh["cold"][0], policy=_serial()).top_items(N)
        warm_lists = TopKEngine.from_result(refresh["warm"][0], policy=_serial()).top_items(N)
        assert _overlap(warm_lists, cold_lists) >= 0.9


class TestOocAxis:
    """GEBE^p over a streamed 2 000-item edge file: resident vs memory-mapped."""

    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory):
        # 250 users with eight random weighted items each: duplicates sum on
        # ingest and unobserved items compact away.
        rng = np.random.default_rng(0)
        items = rng.integers(0, 2_000, size=(250, 8))
        weights = rng.uniform(0.5, 1.5, size=items.shape)
        tmp = tmp_path_factory.mktemp("ooc")
        edges = tmp / "standin.tsv"
        edges.write_text("".join(
            f"u{row}\ti{items[row, j]}\t{float(weights[row, j])!r}\n"
            for row in range(250) for j in range(8)
        ))
        return build_graph_store(str(edges), str(tmp / "store"), weighted=True)[0]

    @staticmethod
    def _fit(graph, policy):
        method = make_method("GEBE^p", dimension=DIMENSION, seed=0, dtype_policy=policy)
        with obs.collect() as collector:
            result = method.fit(graph)
            copied = collector.ooc_section(budget_mb=policy.ooc_budget_mb)["bytes_copied_in"]
        return result, collector.ops.sparse_matvecs, collector.ops.qr_factorizations, copied

    @pytest.fixture(scope="class")
    def anchor(self, store):
        return self._fit(store.resident_graph(), _serial())

    def _assert_matches_anchor(self, store, anchor, policy):
        fitted, matvecs, qrs, copied = self._fit(store.graph(), policy)
        np.testing.assert_array_equal(fitted.u, anchor[0].u)
        np.testing.assert_array_equal(fitted.v, anchor[0].v)
        assert (matvecs, qrs) == anchor[1:3]
        return copied

    def test_every_gate_passes(self, store, anchor):
        for budget_mb in (0.25, 4.0):
            self._assert_matches_anchor(store, anchor, _serial().with_ooc_budget(budget_mb))

    def test_threaded_row_rides_along_at_largest_budget(self, store, anchor):
        self._assert_matches_anchor(store, anchor, _sharded(2).with_ooc_budget(4.0))

    def test_mmap_rows_copy_the_stream_in(self, store, anchor):
        assert anchor[3] == 0
        # Staging caches nothing across applies: every power sweep (one QR
        # each) streams the whole CSR, 16 bytes an entry, in again.
        copied = self._assert_matches_anchor(store, anchor, _serial().with_ooc_budget(0.25))
        assert copied >= anchor[2] * store.nnz * 16


class TestSimilarAxis:
    """Blocked MHS/MHP queries on a 60 x 40 graph against the dense measures."""

    TAU, N = 4, 5

    @pytest.fixture(scope="class")
    def setup(self):
        graph = erdos_renyi_bipartite(60, 40, 480, weighted=True, seed=7)
        pmf = PoissonPMF(lam=1.5)
        sources = np.sort(np.random.default_rng(8).choice(60, size=12, replace=False))
        s_dense = mhs_matrix(graph, pmf, self.TAU)
        np.fill_diagonal(s_dense, -np.inf)
        reference = {"mhs": select_topn(s_dense[sources], self.N),
                     "mhp": select_topn(mhp_matrix(graph, pmf, self.TAU)[sources], self.N)}
        return graph, pmf, sources, reference

    def _run(self, setup, mode, block, policy):
        """Blocked lists, per-source lists and sparse matvecs per single query."""
        graph, pmf, sources, _ = setup
        engine = SimilarityEngine(graph, pmf, self.TAU, normalization="none", policy=policy)
        with mock.patch.object(similarity_module, "BLOCK_SOURCES", block):
            if mode == "mhs":
                engine.h_diagonal()  # one-time serving state, not per-query cost
            blocked, _ = engine.query(sources, self.N, mode=mode)
            with obs.collect() as collector:
                singles = np.concatenate([
                    engine.query([int(source)], self.N, mode=mode)[0] for source in sources
                ])
        return blocked, singles, collector.ops.sparse_matvecs / sources.size

    def _assert_lists_equal(self, setup, block, policy):
        for mode in ("mhs", "mhp"):
            blocked, singles, _ = self._run(setup, mode, block, policy)
            np.testing.assert_array_equal(blocked, setup[3][mode])
            np.testing.assert_array_equal(singles, setup[3][mode])

    def test_every_list_gate_passes(self, setup):
        for block in (4, 16):
            self._assert_lists_equal(setup, block, _serial())

    def test_threaded_row_rides_along_at_largest_block(self, setup):
        self._assert_lists_equal(setup, 16, _sharded(2))

    def test_matvec_cost_matches_engine_formula(self, setup):
        # 2*tau matvecs per MHS query, 2*tau + 1 per MHP query (the W^T).
        for mode, extra in (("mhs", 0), ("mhp", 1)):
            assert self._run(setup, mode, 4, _serial())[2] == 2 * self.TAU + extra

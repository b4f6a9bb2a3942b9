"""The resident embedding service: artifacts in, query answers out.

:class:`EmbeddingService` is the compute tier between the versioned
:class:`~repro.serve.artifacts.ArtifactStore` and whatever front end asks
questions (the HTTP server of :mod:`repro.serve.server`, the micro-batcher,
a notebook).  It loads an artifact **once**, keeps one
:class:`~repro.tasks.topk.TopKEngine` *clone per worker thread* (the
engine's grow-once score workspace must never be shared across threads —
see the engine's class notes), and answers:

* :meth:`top_items` — batched top-``n`` retrieval, element-identical to the
  offline engine path;
* :meth:`scores` — raw ``U[u] . V[v]`` scores for one user;
* :meth:`similar` — *exact* matrix-free MHS/MHP neighbors through a
  :class:`~repro.tasks.similarity.SimilarityEngine` over the artifact's
  shipped training graph (graph-bearing artifacts only).

Hot swap: :meth:`reload` resolves and loads the requested (or latest)
artifact version off to the side, then atomically republishes the model
reference.  In-flight requests keep the old model's arrays alive until they
finish — zero failed requests by construction — and each worker thread
notices the swap on its next call and re-clones its engine.

All bookkeeping lives in :class:`ServiceMetrics`, a lock-guarded, always-on
counterpart of the per-run :mod:`repro.obs` collector (which is
single-threaded by design and therefore cannot sit on a multi-threaded hot
path).  Counter names match the RunReport ``ops`` vocabulary
(``gemms``, ``topk_candidates``) so ``/metrics`` and the ``service`` entry
of the RunReport ``sections`` map read the same language.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..ann import INDEX_FILE, IVFIndex
from ..core.base import EmbeddingResult
from ..graph import BipartiteGraph
from ..core.pmf import PathLengthPMF, PoissonPMF
from ..linalg.policy import DtypePolicy
from ..tasks.similarity import SIMILARITY_MODES, SimilarityEngine, transposed_graph
from ..tasks.topk import QuantizedTopKEngine, TopKEngine
from .artifacts import ArtifactError, ArtifactRef, ArtifactStore, LoadedArtifact

__all__ = ["EmbeddingService", "ServiceMetrics", "percentile"]

#: Ring-buffer length for per-stage latency samples; bounds the memory of a
#: long-lived service while keeping enough history for stable percentiles.
LATENCY_WINDOW = 2048


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) of ``samples`` (0.0 when empty).

    Nearest-rank on a sorted copy — no interpolation, so the result is
    always an observed latency.

    Standard nearest-rank definition: rank ``ceil(q/100 * n)``, clamped to
    ``[1, n]``.  (``round`` would banker's-round half-way ranks *down* —
    p85 of 10 samples must pick rank 9, not ``round(8.5) == 8``.)
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered), max(1, math.ceil(q / 100.0 * len(ordered))))
    return float(ordered[rank - 1])


class ServiceMetrics:
    """Thread-safe counters and latency windows for a long-lived service.

    Unlike :class:`~repro.obs.collector.ProfileCollector` (one run, one
    thread), every increment here happens under a lock because HTTP worker
    threads, the batcher thread, and admin calls all report concurrently.
    """

    _COUNTERS = (
        "requests",
        "batched_requests",
        "batches",
        "shed",
        "deadline_exceeded",
        "errors",
        "reloads",
        "gemms",
        "topk_candidates",
        "ann_probes",
        "ann_candidates",
        "similar_queries",
        "similar_matvecs",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: Dict[str, int] = {key: 0 for key in self._COUNTERS}
        self._stages: Dict[str, deque] = {}
        self._queue_depth = 0
        self._queue_depth_max = 0
        self.started = time.time()

    def count(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the named counter (must be a known counter)."""
        if name not in self._counts:
            raise KeyError(f"unknown service counter {name!r}")
        with self._lock:
            self._counts[name] += int(amount)

    def observe(self, stage: str, seconds: float) -> None:
        """Record one latency sample for ``stage`` (ring-buffered)."""
        with self._lock:
            window = self._stages.get(stage)
            if window is None:
                window = self._stages[stage] = deque(maxlen=LATENCY_WINDOW)
            window.append(float(seconds))

    def queue_entered(self) -> None:
        """One request admitted (tracks live and high-water queue depth)."""
        with self._lock:
            self._queue_depth += 1
            if self._queue_depth > self._queue_depth_max:
                self._queue_depth_max = self._queue_depth

    def queue_left(self) -> None:
        """One admitted request finished."""
        with self._lock:
            self._queue_depth = max(0, self._queue_depth - 1)

    @property
    def queue_depth(self) -> int:
        """Requests currently admitted and in flight."""
        with self._lock:
            return self._queue_depth

    def __getitem__(self, name: str) -> int:
        with self._lock:
            return self._counts[name]

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready copy of every counter, queue gauge, and stage window."""
        with self._lock:
            counts = dict(self._counts)
            stages = {name: list(window) for name, window in self._stages.items()}
            depth, depth_max = self._queue_depth, self._queue_depth_max
        return {
            "counters": counts,
            "queue": {"depth": depth, "depth_max": depth_max},
            "stages": {
                name: {
                    "count": len(samples),
                    "p50_ms": percentile(samples, 50) * 1e3,
                    "p95_ms": percentile(samples, 95) * 1e3,
                }
                for name, samples in stages.items()
            },
            "uptime_seconds": time.time() - self.started,
        }

    def service_report(self) -> Dict[str, Any]:
        """The ``service`` section of a RunReport (see repro.obs.report)."""
        snap = self.snapshot()
        request_stage = snap["stages"].get("request", {})
        return {
            "requests": snap["counters"]["requests"],
            "batched_requests": snap["counters"]["batched_requests"],
            "batches": snap["counters"]["batches"],
            "shed": snap["counters"]["shed"],
            "deadline_exceeded": snap["counters"]["deadline_exceeded"],
            "reloads": snap["counters"]["reloads"],
            "queue_depth_max": snap["queue"]["depth_max"],
            "latency_ms": {
                "p50": float(request_stage.get("p50_ms", 0.0)),
                "p95": float(request_stage.get("p95_ms", 0.0)),
            },
        }


class _Model:
    """One immutable loaded artifact: arrays, engine template, IVF index.

    Instances are swapped atomically on reload; nothing in here mutates
    after construction except the template engine's private workspace, which
    only :meth:`EmbeddingService._engine` clones ever touch.
    """

    def __init__(
        self,
        loaded: LoadedArtifact,
        policy: DtypePolicy,
        block_rows: Optional[int],
        ann: bool = False,
    ):
        self.ref = loaded.ref
        self.quantize: Optional[str] = loaded.quantize
        self.graph: Optional[BipartiteGraph] = loaded.graph
        # Per-side similarity templates, built on the first /v1/similar of
        # that side; the H diagonal is probed on the side's first mhs query.
        self._similarity: Dict[str, SimilarityEngine] = {}
        self._similarity_lock = threading.Lock()
        self.ivf: Optional[IVFIndex] = None
        if loaded.quantize is not None:
            if ann:
                raise ArtifactError(
                    f"{loaded.ref.tag} is quantized ({loaded.quantize}); the "
                    "ann serving mode needs a float artifact — republish "
                    "without --quantize to use it"
                )
            # No EmbeddingResult over codes: every read-out goes through the
            # quantized engine, which is exact over the dequantized arrays.
            self.result: Optional[EmbeddingResult] = None
            self.template: TopKEngine = QuantizedTopKEngine(
                loaded.u,
                loaded.u_scales,
                loaded.v,
                loaded.v_scales,
                quant_dtype=loaded.quantize,
                policy=policy,
                block_rows=block_rows,
            )
            return
        self.result = EmbeddingResult(
            u=loaded.u,
            v=loaded.v,
            method=loaded.ref.manifest.get("method") or "artifact",
        )
        self.template = TopKEngine(
            self.result.u, self.result.v, policy=policy, block_rows=block_rows
        )
        if ann:
            index_path = loaded.ref.path / INDEX_FILE
            if not index_path.is_file():
                raise ArtifactError(
                    f"{loaded.ref.tag} has no IVF index at {index_path}; "
                    "build one with: repro index"
                )
            # load() cross-checks dimension, item count, and the v-array
            # digest against this artifact version — an index built from a
            # different version is rejected here, before it serves anything.
            self.ivf = IVFIndex.load(index_path, loaded.v)

    def bytes_resident(self) -> int:
        """Heap bytes this model pins: engine arrays (memmaps excluded,
        they live in the shared page cache)."""
        return self.template.resident_bytes()

    def similarity_template(
        self,
        side: str,
        *,
        pmf: PathLengthPMF,
        tau: int,
        normalization: str,
        policy: DtypePolicy,
    ) -> SimilarityEngine:
        """The per-side similarity engine template, built once and cached.

        The exact ``H`` diagonal (blocked one-hot probing, ``2 tau |U|``
        matvecs) is not probed here: only MHS reads it, so the first mhs
        query of this model and side probes it, once, and every worker clone
        shares the result.  A side only ever queried by mhp never pays it.
        Only graph-bearing artifacts qualify: the engine queries the
        *graph's* multi-hop measures, which the embedding arrays alone
        cannot answer.
        """
        if self.graph is None:
            raise ArtifactError(
                f"{self.ref.tag} has no graph; exact MHS/MHP similarity "
                "queries run over the training graph — republish the "
                "artifact with graph=... to serve them"
            )
        with self._similarity_lock:
            engine = self._similarity.get(side)
            if engine is None:
                graph = (
                    transposed_graph(self.graph) if side == "v" else self.graph
                )
                engine = SimilarityEngine(
                    graph,
                    pmf,
                    tau,
                    normalization=normalization,
                    policy=policy,
                )
                self._similarity[side] = engine
        return engine


class EmbeddingService:
    """Loads one artifact and answers queries until told to reload.

    Parameters
    ----------
    store:
        The artifact store to resolve from.
    name:
        Artifact name to serve.
    version:
        Pinned version (``None``: latest at load/reload time).
    policy:
        :class:`~repro.linalg.DtypePolicy` for the scoring engines
        (``None``: default — float64, ``REPRO_NUM_THREADS`` threads).
    block_rows:
        Users per scoring GEMM (``None``: engine default).
    verify:
        Checksum-verify artifacts on every load (default on; the whole
        point of the manifest).
    ann, nprobe:
        Serve :meth:`top_items` through the artifact's IVF index
        (``repro index`` must have built one for the served version;
        rejected with a pointed error otherwise, or when the index was
        built from a different version).  ``nprobe`` is the recall knob —
        ``None`` probes every cell, which is exact.
    similar_pmf, similar_tau, similar_normalization:
        The measure instantiation :meth:`similar` answers queries under
        (``None`` pmf: Poisson with ``lam=1.0``; ``"sym"`` normalization —
        the solvers' default preprocessing).  The engines are built lazily
        on the first similarity query per side, since only graph-bearing
        artifacts can answer them at all.
    """

    def __init__(
        self,
        store: ArtifactStore,
        name: str,
        *,
        version: Optional[int] = None,
        policy: Optional[DtypePolicy] = None,
        block_rows: Optional[int] = None,
        verify: bool = True,
        mmap: bool = True,
        ann: bool = False,
        nprobe: Optional[int] = None,
        similar_pmf: Optional[PathLengthPMF] = None,
        similar_tau: int = 5,
        similar_normalization: str = "sym",
    ):
        if nprobe is not None and not ann:
            raise ValueError("nprobe requires ann=True")
        self._store = store
        self._name = name
        self._policy = policy if policy is not None else DtypePolicy()
        self._block_rows = block_rows
        self._verify = verify
        self._mmap = bool(mmap)
        self._ann = bool(ann)
        self._nprobe = nprobe
        self._similar_pmf = (
            similar_pmf if similar_pmf is not None else PoissonPMF(lam=1.0)
        )
        self._similar_tau = int(similar_tau)
        self._similar_normalization = similar_normalization
        self._reload_lock = threading.Lock()
        self._local = threading.local()
        self.metrics = ServiceMetrics()
        self._model = self._load(version)

    # ------------------------------------------------------------------
    # Model lifecycle
    # ------------------------------------------------------------------
    def _load(self, version: Optional[int]) -> _Model:
        loaded = self._store.load(
            self._name, version, verify=self._verify, mmap=self._mmap
        )
        return _Model(loaded, self._policy, self._block_rows, ann=self._ann)

    @property
    def artifact(self) -> ArtifactRef:
        """The currently served artifact version."""
        return self._model.ref

    @property
    def quantize(self) -> Optional[str]:
        """The served artifact's quantization codec (``None``: exact float)."""
        return self._model.quantize

    def bytes_resident(self) -> int:
        """Heap bytes the current model pins (memmapped arrays excluded)."""
        return self._model.bytes_resident()

    @property
    def num_users(self) -> int:
        return self._model.template.num_users

    @property
    def num_items(self) -> int:
        return self._model.template.num_items

    def reload(self, version: Optional[int] = None) -> Tuple[str, str]:
        """Hot-swap to ``version`` (``None``: latest); returns (old, new) tags.

        The replacement model is fully loaded and verified *before* the
        swap, so a corrupt artifact leaves the service on the old version.
        The swap itself is one reference assignment: requests already
        scoring keep the old arrays alive until they return, and every
        worker thread re-clones its engine on its next call.
        """
        with self._reload_lock:
            old_tag = self._model.ref.tag
            model = self._load(version)
            self._model = model
            self.metrics.count("reloads")
        return old_tag, model.ref.tag

    def _engine(self) -> Tuple[TopKEngine, _Model]:
        """This thread's engine clone for the current model (re-cloned on swap)."""
        model = self._model
        if getattr(self._local, "model", None) is not model:
            self._local.engine = model.template.clone_for_worker()
            self._local.model = model
        return self._local.engine, model

    def _similarity_engine(self, side: str) -> Tuple[SimilarityEngine, _Model]:
        """This thread's similarity clone for ``side`` (re-cloned on swap).

        The model-level template (one build per side, its lazily probed
        diagonal shared by every clone) is cloned per worker thread because the engine's one-hot and
        hop workspaces must never be shared across threads — the same
        discipline as :meth:`_engine`.
        """
        _, model = self._engine()
        if getattr(self._local, "similar_model", None) is not model:
            self._local.similar = {}
            self._local.similar_model = model
        engine = self._local.similar.get(side)
        if engine is None:
            template = model.similarity_template(
                side,
                pmf=self._similar_pmf,
                tau=self._similar_tau,
                normalization=self._similar_normalization,
                policy=self._policy,
            )
            engine = self._local.similar[side] = template.clone_for_worker()
        return engine, model

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def top_items(
        self,
        users: Sequence[int],
        n: int,
        *,
        with_scores: bool = False,
        exclude_train: bool = True,
    ) -> Dict[str, Any]:
        """Top-``n`` item lists for ``users`` (the serving read-out).

        ``exclude_train`` masks the artifact's training edges when the
        artifact ships its graph (a no-op otherwise).  Lists are
        element-identical to the offline
        :meth:`~repro.tasks.topk.TopKEngine.top_items` path — same engine,
        same :func:`~repro.core.selection.select_topn` ordering.  The ANN
        mode keeps that identity at full probe and trades measured recall
        below it.
        """
        engine, model = self._engine()
        users_array = np.asarray(users, dtype=np.int64)
        if users_array.ndim != 1:
            raise ValueError("users must be a 1-D index sequence")
        if model.ivf is not None:
            return self._top_items_ann(
                model, users_array, n, with_scores, exclude_train
            )
        exclude = model.graph if exclude_train else None
        started = time.perf_counter()
        item_blocks: List[np.ndarray] = []
        score_blocks: List[np.ndarray] = []
        for block in engine.iter_top_items(
            n, users=users_array, exclude=exclude, with_scores=with_scores
        ):
            item_blocks.append(block[1])
            if with_scores:
                score_blocks.append(block[2])
        elapsed = time.perf_counter() - started
        n_keep = min(max(int(n), 0), engine.num_items)
        # The engine yields no block for n == 0 (or no users): still one
        # (empty) row per user.
        items = (
            np.concatenate(item_blocks)
            if item_blocks
            else np.empty((users_array.size, n_keep), dtype=np.int64)
        )
        blocks = -(-users_array.size // engine.block_rows) if users_array.size else 0
        self.metrics.count("requests")
        self.metrics.count("gemms", blocks)
        self.metrics.count("topk_candidates", users_array.size * engine.num_items)
        self.metrics.observe("score", elapsed)
        payload: Dict[str, Any] = {
            "model": model.ref.tag,
            "users": users_array,
            "items": items,
            "n": n_keep,
        }
        if with_scores:
            payload["scores"] = (
                np.concatenate(score_blocks)
                if score_blocks
                else np.empty((users_array.size, n_keep))
            )
        return payload

    def _top_items_ann(
        self,
        model: _Model,
        users: np.ndarray,
        n: int,
        with_scores: bool,
        exclude_train: bool,
    ) -> Dict[str, Any]:
        """The IVF read-out: probe, exact rerank, measured recall knob."""
        index = model.ivf
        if users.size and (
            users.min() < 0 or users.max() >= model.result.u.shape[0]
        ):
            raise ValueError(
                f"user indices must be in [0, {model.result.u.shape[0]})"
            )
        exclude = model.graph if exclude_train else None
        started = time.perf_counter()
        result = index.search(
            model.result.u[users],
            n,
            nprobe=self._nprobe,
            exclude=exclude,
            users=users if exclude is not None else None,
            with_scores=True,
            return_stats=True,
        )
        items, scores, stats = result
        elapsed = time.perf_counter() - started
        self.metrics.count("requests")
        self.metrics.count("ann_probes", stats["probed_cells"])
        self.metrics.count("ann_candidates", stats["candidates"])
        self.metrics.observe("score", elapsed)
        payload: Dict[str, Any] = {
            "model": model.ref.tag,
            "users": users,
            "items": items,
            "n": items.shape[1],
            "mode": "ann",
            "nprobe": stats["nprobe"],
        }
        if with_scores:
            payload["scores"] = scores
        return payload

    def scores(
        self, user: int, items: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """Raw ``U[user] . V[item]`` scores (all items, or a subset).

        For a quantized artifact the row is the exact float64 product over
        the *dequantized* embeddings — the ground truth every quantized
        read-out is pinned to.
        """
        engine, model = self._engine()
        user = int(user)
        if not 0 <= user < engine.num_users:
            raise ValueError(
                f"user index must be in [0, {engine.num_users})"
            )
        row = (
            model.result.scores_for_u(user)
            if model.result is not None
            else engine.user_scores(user)
        )
        if items is None:
            self.metrics.count("requests")
            self.metrics.count("topk_candidates", row.size)
            return row
        items_array = np.asarray(items, dtype=np.int64)
        if items_array.size and (
            items_array.min() < 0 or items_array.max() >= row.size
        ):
            raise ValueError(f"item indices must be in [0, {row.size})")
        self.metrics.count("requests")
        self.metrics.count("topk_candidates", row.size)
        return row[items_array]

    def similar(
        self,
        sources: Sequence[int],
        n: int,
        *,
        mode: str = "mhs",
        side: str = "u",
        with_scores: bool = False,
    ) -> Dict[str, Any]:
        """Exact matrix-free similarity lists over the artifact's graph.

        ``mode="mhs"`` ranks same-side neighbors (self excluded),
        ``mode="mhp"`` opposite-side neighbors; ``side="v"`` answers from
        the item side via the transposed graph.  Lists are element-identical
        to the offline :class:`~repro.tasks.similarity.SimilarityEngine`
        (same engine, same :func:`~repro.core.selection.select_topn`
        ordering).  Graph-bearing artifacts only — a pointed
        :class:`~repro.serve.artifacts.ArtifactError` otherwise.

        ``similar_matvecs`` counts the operator cost at the service tier
        (``matvecs_per_source(mode) * len(sources)`` — the obs collector is
        single-threaded by design and cannot sit on this hot path).
        """
        if mode not in SIMILARITY_MODES:
            raise ValueError(
                f"mode must be one of {SIMILARITY_MODES}, got {mode!r}"
            )
        if side not in ("u", "v"):
            raise ValueError(f"side must be 'u' or 'v', got {side!r}")
        engine, model = self._similarity_engine(side)
        sources_array = np.asarray(sources, dtype=np.int64)
        if sources_array.ndim != 1:
            raise ValueError("sources must be a 1-D index sequence")
        started = time.perf_counter()
        items, scores = engine.query(
            sources_array, n, mode=mode, with_scores=with_scores
        )
        elapsed = time.perf_counter() - started
        self.metrics.count("requests")
        self.metrics.count("similar_queries", sources_array.size)
        self.metrics.count(
            "similar_matvecs",
            engine.matvecs_per_source(mode) * sources_array.size,
        )
        self.metrics.observe("similar", elapsed)
        payload: Dict[str, Any] = {
            "model": model.ref.tag,
            "sources": sources_array,
            "side": side,
            "mode": mode,
            "items": items,
            "n": items.shape[1],
        }
        if with_scores:
            payload["scores"] = scores
        return payload

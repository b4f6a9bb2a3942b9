"""The resident embedding service: artifacts in, query answers out.

:class:`EmbeddingService` is the compute tier between the versioned
:class:`~repro.serve.artifacts.ArtifactStore` and whatever front end asks
questions (the HTTP server of :mod:`repro.serve.server`, the micro-batcher,
a notebook).  It loads an artifact **once**, keeps one
:class:`~repro.tasks.topk.TopKEngine` *clone per worker thread* (the
engine's grow-once score workspace must never be shared across threads —
see the engine's class notes), and answers:

* :meth:`top_items` — batched top-``n`` retrieval through that one engine,
  for exact, quantized and ``--ann`` models alike, element-identical to the
  offline engine path;
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
(``gemms``, ``topk_candidates``, ``ann_probes``, ``ann_candidates``), and
the top-k ones are the deltas of the engine's own counts
(:attr:`~repro.tasks.topk.TopKEngine.ops`), so ``/metrics`` and a profiled
run's report count the same operations.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..ann import INDEX_FILE, IVFIndex
from ..graph import BipartiteGraph
from ..core.pmf import PoissonPMF
from ..linalg.policy import DtypePolicy
from ..tasks.similarity import SIMILARITY_MODES, SimilarityEngine, transposed_graph
from ..tasks.topk import TopKEngine
from .artifacts import ArtifactError, ArtifactRef, ArtifactStore, LoadedArtifact

__all__ = ["EmbeddingService", "ServiceMetrics", "percentile"]

#: Ring-buffer length for per-stage latency samples; bounds the memory of a
#: long-lived service while keeping enough history for stable percentiles.
LATENCY_WINDOW = 2048

#: The measure :meth:`EmbeddingService.similar` answers under: path lengths
#: Poisson(lambda = 1) truncated at tau = 5 hops, over "sym"-normalized
#: weights (the solvers' default preprocessing).
SIMILAR_PMF = PoissonPMF(lam=1.0)
SIMILAR_TAU = 5
SIMILAR_NORMALIZATION = "sym"


#: The engine's op counts that ``/metrics`` reports, as per-call deltas.
_ENGINE_COUNTERS = ("gemms", "topk_candidates", "ann_probes", "ann_candidates")


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


class _Model:
    """One immutable loaded artifact: its top-k engine template and graph.

    Instances are swapped atomically on reload; nothing in here mutates
    after construction except the template engine's private workspace, which
    only :meth:`EmbeddingService._engine` clones ever touch.
    """

    def __init__(
        self,
        loaded: LoadedArtifact,
        policy: DtypePolicy,
        ann: bool = False,
        nprobe: Optional[int] = None,
    ):
        self.ref = loaded.ref
        self.quantize: Optional[str] = loaded.quantize
        self.graph: Optional[BipartiteGraph] = loaded.graph
        # Per-side similarity templates, built on the first /v1/similar of
        # that side (or by a reload, see EmbeddingService.reload); the H
        # diagonal is probed on the side's first mhs query.
        self._similarity: Dict[str, SimilarityEngine] = {}
        self._similarity_lock = threading.Lock()
        index = None
        if ann:
            if loaded.quantize is not None:
                raise ArtifactError(
                    f"{loaded.ref.tag} is quantized ({loaded.quantize}); the "
                    "ann serving mode needs a float artifact — republish "
                    "without --quantize to use it"
                )
            index_path = loaded.ref.path / INDEX_FILE
            if not index_path.is_file():
                raise ArtifactError(
                    f"{loaded.ref.tag} has no IVF index at {index_path}; "
                    "build one with: repro index"
                )
            # load() cross-checks dimension, item count, and the v-array
            # digest against this artifact version — an index built from a
            # different version is rejected here, before it serves anything.
            index = IVFIndex.load(index_path, loaded.v)
        # One engine for every artifact: exact or quantized codes, swept or
        # probed (a partial probe stages no float32 V.T).
        self.template = TopKEngine(
            loaded.u,
            loaded.v,
            scales=None if loaded.quantize is None else (loaded.u_scales, loaded.v_scales),
            index=index,
            nprobe=nprobe,
            policy=policy,
        )

    def probed_sides(self) -> List[str]:
        """The sides whose H diagonal this model has probed."""
        with self._similarity_lock:
            return [
                side
                for side, engine in self._similarity.items()
                if engine.diagonal_probed
            ]

    def similarity_template(
        self, side: str, policy: DtypePolicy
    ) -> SimilarityEngine:
        """The per-side similarity engine template, built once and cached.

        The exact ``H`` diagonal (blocked one-hot probing, ``2 tau |U|``
        matvecs) is not probed here: only MHS reads it, so the first mhs
        query of this model and side probes it, once, and every worker clone
        shares the result (a reload probes it ahead of the swap for the
        sides the outgoing model had probed).  A side only ever queried by
        mhp never pays it.
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
                    SIMILAR_PMF,
                    SIMILAR_TAU,
                    normalization=SIMILAR_NORMALIZATION,
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
    ann, nprobe:
        Serve :meth:`top_items` through the artifact's IVF index
        (``repro index`` must have built one for the served version;
        rejected with a pointed error otherwise, or when the index was
        built from a different version).  ``nprobe`` is the recall knob —
        ``None`` probes every cell, which is exact.

    Every load and reload checksum-verifies the artifact and memory-maps
    its arrays (:meth:`~repro.serve.artifacts.ArtifactStore.load`).
    :meth:`similar` answers under one measure (:data:`SIMILAR_PMF`,
    :data:`SIMILAR_TAU`, :data:`SIMILAR_NORMALIZATION`).  Its engines are
    built lazily on the first similarity query per side, since only
    graph-bearing artifacts can answer them at all.
    """

    def __init__(
        self,
        store: ArtifactStore,
        name: str,
        *,
        version: Optional[int] = None,
        policy: Optional[DtypePolicy] = None,
        ann: bool = False,
        nprobe: Optional[int] = None,
    ):
        if nprobe is not None and not ann:
            raise ValueError("nprobe requires ann=True")
        self._store = store
        self._name = name
        self._policy = policy if policy is not None else DtypePolicy()
        self._ann = bool(ann)
        self._nprobe = nprobe
        self._reload_lock = threading.Lock()
        self._local = threading.local()
        self.metrics = ServiceMetrics()
        self._model = self._load(version)

    # ------------------------------------------------------------------
    # Model lifecycle
    # ------------------------------------------------------------------
    def _load(self, version: Optional[int]) -> _Model:
        loaded = self._store.load(self._name, version)
        return _Model(loaded, self._policy, ann=self._ann, nprobe=self._nprobe)

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
        return self._model.template.resident_bytes()

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
        Before the swap, too, it probes the H diagonal of exactly the sides
        whose diagonal the outgoing model had probed (a side that only saw
        mhp traffic stays unprobed), so the first mhs request of the new
        version does not wait behind a probe; the old version answers
        meanwhile.  The swap itself is one reference assignment: requests
        already scoring keep the old arrays alive until they return, and
        every worker thread re-clones its engine on its next call.
        """
        with self._reload_lock:
            old = self._model
            model = self._load(version)
            if model.graph is not None:
                for side in old.probed_sides():
                    # A throwaway clone probes into the shared diagonal, so
                    # the template keeps no kernel workspace of its own.
                    template = model.similarity_template(side, self._policy)
                    template.clone_for_worker().h_diagonal()
            self._model = model
            self.metrics.count("reloads")
        return old.ref.tag, model.ref.tag

    def _engine(self) -> Tuple[TopKEngine, _Model]:
        """This thread's engine clone for the current model (re-cloned on
        swap)."""
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
            template = model.similarity_template(side, self._policy)
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
        started = time.perf_counter()
        before = engine.ops.to_dict()
        items, scores = engine.top_items(
            n,
            users=users_array,
            exclude=model.graph if exclude_train else None,
            with_scores=True,
        )
        elapsed = time.perf_counter() - started
        after = engine.ops.to_dict()
        self.metrics.count("requests")
        for name in _ENGINE_COUNTERS:
            self.metrics.count(name, after[name] - before[name])
        self.metrics.observe("score", elapsed)
        payload: Dict[str, Any] = {
            "model": model.ref.tag,
            "users": users_array,
            "items": items,
            "n": items.shape[1],
        }
        if engine.index is not None:
            payload.update(mode="ann", nprobe=engine.nprobe)
        if with_scores:
            payload["scores"] = scores
        return payload

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

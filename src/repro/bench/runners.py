"""The runners of the bench axes (see :data:`repro.bench.axes.AXES`).

A per-dataset runner is called as ``run(config, emit, dataset, graph)``, a
stand-in runner as ``run(config, emit)``; each passes every row it produces
to ``emit(axis_name, row)``.  Rows carry exactly the fields of their axis's
spec, and every hard-gate field is *measured* here, never assumed.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
import urllib.error
import urllib.request
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from .. import obs
from ..baselines import make_method
from ..datasets import DATASETS, toy_graph
from ..experiments.runner import profile_method
from ..graph import BipartiteGraph
from ..linalg import DtypePolicy
from ..serve.service import percentile
from ..tasks import TopKEngine

Emit = Callable[[str, Dict[str, Any]], None]

#: Methods whose constructors take ``max_iterations`` (the KSI budget);
#: benchmarks cap it so the truncated-series methods finish in seconds.
_ITERATIVE_PREFIX = "GEBE ("


def load_graph(name: str, seed: int) -> BipartiteGraph:
    if name == "toy":
        return toy_graph()
    if name not in DATASETS:
        raise KeyError(f"unknown dataset {name!r}; choices: toy, {list(DATASETS)}")
    return DATASETS[name].load(seed)


def _policy(threads: int = 1) -> DtypePolicy:
    return DtypePolicy.default().with_threads(threads)


def _method(name: str, config, policy: DtypePolicy):
    kwargs: Dict[str, Any] = {"dtype_policy": policy}
    if name.startswith(_ITERATIVE_PREFIX) and config.gebe_iterations is not None:
        kwargs["max_iterations"] = config.gebe_iterations
    return make_method(name, dimension=config.dimension, seed=config.seed, **kwargs)


def _sorted_positive(name: str, values) -> list:
    values = sorted(set(values))
    if not values or values[0] <= 0:
        raise ValueError(f"{name} must be positive, got {values}")
    return values


def _walls(walls: List[float]) -> Dict[str, Any]:
    return {"wall_seconds": min(walls), "wall_seconds_all": walls}


def _latency(latencies: List[float]) -> Dict[str, float]:
    return {
        "wall_seconds": sum(latencies),
        "p50_ms": percentile(latencies, 50) * 1e3,
        "p95_ms": percentile(latencies, 95) * 1e3,
    }


def _timed(call: Callable[[], Any]) -> Tuple[Any, float]:
    started = time.perf_counter()
    out = call()
    return out, time.perf_counter() - started


def _per_query(engine, n: int, count: int) -> List[float]:
    """Single-user top-``n`` latencies over the first ``count`` users."""
    return [
        _timed(lambda: engine.top_items(n, users=np.array([row])))[1]
        for row in range(count)
    ]


def _overlap(lists: np.ndarray, reference: np.ndarray) -> float:
    """Mean per-row share of ``reference`` items that ``lists`` recovers."""
    return float(np.mean([np.isin(reference[i], lists[i]).mean() for i in range(len(lists))]))


def run_fit(config, emit: Emit, dataset: str, graph: BipartiteGraph) -> None:
    """The fit grid: every method under every policy, plus the comparisons.

    Every serial float32 row is paired with the float64 row of the same
    method, and every threaded row with its serial twin; ``matvecs_equal``
    must hold across all pairs — dtype changes arithmetic precision and
    threading changes wall time, but neither changes the operation schedule.
    """
    grid = config.policies() + [_policy(t) for t in config.thread_counts() if t > 1]
    runs: Dict[Tuple[str, str, int], Dict[str, Any]] = {}
    for name in config.methods:
        for policy in grid:
            walls, best, peak_rss, workspace = [], None, 0, 0
            for _ in range(config.repeats):
                run = profile_method(_method(name, config, policy), graph, dataset=dataset)
                walls.append(float(run.result.elapsed_seconds))
                peak_rss = max(peak_rss, int(run.report.memory.get("peak_rss_bytes", 0)))
                workspace = max(workspace, int(run.report.memory.get("workspace_bytes", 0)))
                if best is None or walls[-1] == min(walls):
                    best = run
            ops = best.report.ops
            row = {
                "method": best.result.method,
                "dataset": dataset,
                "policy": policy.describe(),
                "threads": policy.n_threads,
                "dimension": config.dimension,
                "seed": config.seed,
                "repeats": config.repeats,
                **_walls(walls),
                "matvecs": int(ops.get("sparse_matvecs", 0)),
                "gemms": int(ops.get("gemms", 0)),
                "flops": float(ops.get("flops", 0.0)),
                "peak_rss_bytes": peak_rss,
                "workspace_bytes": workspace,
                "graph": {
                    "num_u": graph.num_u,
                    "num_v": graph.num_v,
                    "num_edges": graph.num_edges,
                },
            }
            runs[row["method"], row["policy"], row["threads"]] = row
            emit("fit", row)
    default = DtypePolicy.default().describe()
    for (method, policy, threads), row in runs.items():
        if threads > 1:
            base = runs.get((method, policy, 1))
        else:
            base = runs.get((method, default, 1)) if policy != default else None
        if base is not None:
            emit("comparisons", {
                "method": method,
                "dataset": dataset,
                "baseline_policy": base["policy"],
                "candidate_policy": policy,
                "baseline_threads": base["threads"],
                "candidate_threads": threads,
                "speedup": base["wall_seconds"] / max(row["wall_seconds"], 1e-12),
                "matvecs_equal": row["matvecs"] == base["matvecs"],
            })


def run_topk(config, emit: Emit, dataset: str, graph: BipartiteGraph) -> None:
    """The retrieval axis: per-user reference read-out vs batched engine.

    Fits ``config.methods[0]`` once, then times full top-``topk_n`` sweeps
    over every user with the training edges masked.  ``per_user`` is one
    :meth:`~repro.core.base.EmbeddingResult.top_items` call per user
    (uninstrumented, so its counters are zero); ``batched`` runs at each
    ``topk_block_rows`` (serial), plus one unmasked row and one row at the
    widest thread count, both at the largest block.  Every masked batched
    row is paired with the per-user lists (``lists_equal``).
    """
    result = _method(config.methods[0], config, _policy()).fit(graph)
    n = min(config.topk_n, graph.num_v)
    base = {"method": result.method, "dataset": dataset, "n": n,
            "num_users": graph.num_u, "num_items": graph.num_v}
    walls, reference = [], None
    for _ in range(config.repeats):
        lists, wall = _timed(lambda: np.stack([
            result.top_items(user, n, exclude=graph.u_neighbors(user))
            for user in range(graph.num_u)
        ]))
        walls.append(wall)
        reference = lists if reference is None else reference
    per_user = {**base, "mode": "per_user", "block_rows": None, "threads": 1,
                "exclude": True, **_walls(walls), "candidates": 0, "gemms": 0,
                "workspace_bytes": 0}
    emit("topk", per_user)
    blocks = _sorted_positive("topk_block_rows", config.topk_block_rows)
    widest, threads = blocks[-1], max(config.thread_counts())
    cells = [(b, 1, True) for b in blocks] + [(widest, 1, False)]
    cells += [(widest, threads, True)] if threads > 1 else []
    for block, threads, exclude in cells:
        walls, lists = [], None
        for _ in range(config.repeats):
            # A fresh engine per repeat: the buffer allocation and V.T
            # staging are part of what a cold serving sweep pays.
            engine = TopKEngine.from_result(result, policy=_policy(threads), block_rows=block)
            with obs.collect() as collector:
                out, wall = _timed(lambda: engine.top_items(n, exclude=graph if exclude else None))
            walls.append(wall)
            lists = out if lists is None else lists
        row = {**base, "mode": "batched", "block_rows": block, "threads": threads,
               "exclude": exclude, **_walls(walls),
               "candidates": int(collector.ops.topk_candidates),
               "gemms": int(collector.ops.gemms),
               "workspace_bytes": int(collector.memory.workspace_bytes)}
        emit("topk", row)
        if exclude:
            emit("topk_comparisons", {
                "method": result.method, "dataset": dataset,
                "baseline_mode": "per_user", "candidate_mode": "batched",
                "candidate_block_rows": block, "candidate_threads": threads,
                "speedup": per_user["wall_seconds"] / max(row["wall_seconds"], 1e-12),
                "lists_equal": bool(np.array_equal(lists, reference)),
            })


def run_serve(config, emit: Emit, dataset: str, graph: BipartiteGraph) -> None:
    """The serving axis: HTTP round trips against an in-process server.

    Publishes ``config.methods[0]``'s embeddings (plus the graph, so the
    server masks edges like the offline read-out) to a throwaway store and
    issues ``serve_requests`` single-user requests sequentially, then from
    four client threads.  Every 200-response's list is checked against the
    offline :class:`~repro.tasks.topk.TopKEngine` (``lists_equal``); shed
    responses (429/503) are counted, not retried.
    """
    from ..serve import ArtifactStore, EmbeddingServer, EmbeddingService, ServerConfig

    result = _method(config.methods[0], config, _policy()).fit(graph)
    n = min(config.topk_n, graph.num_v)
    reference = TopKEngine.from_result(result, policy=_policy()).top_items(n, exclude=graph)
    users = [index % graph.num_u for index in range(max(1, config.serve_requests))]
    with tempfile.TemporaryDirectory() as tmp:
        store = ArtifactStore(tmp)
        store.publish("bench", result.u, result.v, graph=graph,
                      method=result.method, dataset=dataset)
        with EmbeddingServer(EmbeddingService(store, "bench"), ServerConfig()) as server:

            def request(user: int) -> Tuple[float, Any]:
                """One POST /v1/topk: (latency, items, or None when shed)."""
                req = urllib.request.Request(
                    server.url + "/v1/topk",
                    data=json.dumps({"user": user, "n": n}).encode("utf-8"),
                    headers={"Content-Type": "application/json"},
                    method="POST",
                )
                started = time.perf_counter()
                try:
                    with urllib.request.urlopen(req, timeout=30) as response:
                        items = json.loads(response.read())["items"][0]
                except urllib.error.HTTPError as error:
                    error.read()
                    if error.code not in (429, 503):
                        raise
                    items = None
                return time.perf_counter() - started, items

            for mode, clients in (("sequential", 1), ("concurrent", 4)):
                outcomes: List[Any] = [None] * len(users)

                def client(offset: int) -> None:
                    for index in range(offset, len(users), clients):
                        outcomes[index] = request(users[index])

                workers = [threading.Thread(target=client, args=(offset,))
                           for offset in range(clients)]
                started = time.perf_counter()
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join()
                wall = time.perf_counter() - started
                answered = [(i, items) for i, (_, items) in enumerate(outcomes)
                            if items is not None]
                emit("serve", {
                    "method": result.method, "dataset": dataset, "mode": mode,
                    "clients": clients, "requests": len(answered), "n": n,
                    "batched": True,
                    **_latency([latency for latency, _ in outcomes]),
                    "wall_seconds": wall,
                    "shed": len(users) - len(answered),
                    "lists_equal": all(items == reference[users[i]].tolist()
                                       for i, items in answered),
                })


def _clustered_standin(num_items: int, num_queries: int, dimension: int, seed: int):
    """A clustered item stand-in: ``(items, queries)`` around 64 unit centers.

    Inner-product neighborhoods are genuinely clustered — the regime IVF
    indexes exist for — so the recall-vs-nprobe curve has a real knee, and
    everything is seeded, so candidate counters are deterministic.
    """
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((64, dimension))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    v = centers[rng.integers(0, 64, size=num_items)]
    v = v + 0.15 * rng.standard_normal(v.shape)
    queries = centers[rng.integers(0, 64, size=num_queries)]
    return v, queries + 0.15 * rng.standard_normal(queries.shape)


def run_ann(config, emit: Emit) -> None:
    """The ANN axis: exact engine vs IVF probes on the clustered stand-in.

    One exact row (per-query :class:`~repro.tasks.topk.TopKEngine` sweeps),
    then one IVF row per ``ann_nprobe`` plus an always-on full-probe row.
    Each IVF row records recall@``ann_n`` against the exact lists and
    whether its lists are element-identical (``exact_match`` — a hard gate
    for the full probe, which reranks every item exactly).  Latency is per
    query (batch size 1, the serving shape).
    """
    from ..ann import IVFIndex

    num_queries = max(1, int(config.ann_queries))
    v, queries = _clustered_standin(config.ann_items, num_queries, config.dimension, config.seed)
    n = max(1, min(int(config.ann_n), len(v)))
    base = {"method": "ivf-flat", "dataset": f"standin_{len(v)}",
            "num_items": len(v), "num_queries": num_queries, "n": n}
    engine = TopKEngine(queries, v, policy=_policy())
    reference = engine.top_items(n)
    emit("ann", {**base, "mode": "exact", "nprobe": None, "cells": 0, "build_seconds": 0.0,
                 **_latency(_per_query(engine, n, num_queries)), "recall_at_n": 1.0,
                 "candidates": len(v) * num_queries, "exact_match": True})
    index, build_seconds = _timed(
        lambda: IVFIndex.build(v, n_cells=config.ann_cells, seed=config.seed)
    )
    cells = index.n_cells
    for nprobe in _sorted_positive("ann_nprobe", {min(int(p), cells) for p in config.ann_nprobe} | {cells}):
        latencies, lists, candidates = [], np.empty((num_queries, n), dtype=np.int64), 0
        for row in range(num_queries):
            (items, stats), latency = _timed(lambda: index.search(
                queries[row : row + 1], n, nprobe=nprobe, return_stats=True
            ))
            latencies.append(latency)
            lists[row] = items[0]
            candidates += int(stats["candidates"])
        emit("ann", {**base, "mode": "ivf", "nprobe": int(nprobe), "cells": cells,
                     "build_seconds": build_seconds, **_latency(latencies),
                     # -1 padding (a starved partial probe) counts against recall.
                     "recall_at_n": _overlap(lists, reference),
                     "candidates": candidates,
                     "exact_match": bool(np.array_equal(lists, reference))})


def run_quant(config, emit: Emit) -> None:
    """The quantized-artifact axis on the clustered stand-in.

    The exact artifact loaded eagerly (the baseline of every
    ``load_speedup``), the same artifact memory-mapped, then one mapped row
    per ``quant_dtypes`` codec served through
    :class:`~repro.tasks.topk.QuantizedTopKEngine`.  Loads use
    ``verify=False`` — the hot reload path.  ``lists_equal`` pins each
    quantized row's lists to a plain engine over the dequantized arrays
    (the margin rerank's exactness claim) and the mapped exact row to the
    eager one.
    """
    from ..serve.artifacts import ArtifactStore
    from ..tasks.topk import QuantizedTopKEngine

    num_queries = max(1, int(config.quant_queries))
    v, u = _clustered_standin(config.quant_items, num_queries, config.dimension, config.seed)
    n = max(1, min(int(config.quant_n), len(v)))
    base = {"method": "quant-artifact", "dataset": f"standin_{len(v)}",
            "num_users": num_queries, "num_items": len(v), "n": n}
    with tempfile.TemporaryDirectory(prefix="repro-bench-quant-") as tmp:
        store = ArtifactStore(tmp)
        eager_load = None
        reference = None
        for mode, mmap in [("exact", False), ("exact", True)] + [
            (codec, True) for codec in config.quant_dtypes
        ]:
            if not (mode == "exact" and mmap):  # exact/mmap maps the eager row's artifact
                ref, publish_seconds = _timed(lambda: store.publish(
                    "standin", u, v, dataset=base["dataset"],
                    quantize=None if mode == "exact" else mode,
                ))
                artifact_bytes = sum(entry.stat().st_size for entry in ref.path.iterdir())
            loaded, load_seconds = _timed(
                lambda: store.load("standin", ref.version, verify=False, mmap=mmap)
            )
            eager_load = load_seconds if eager_load is None else eager_load
            if mode == "exact":
                engine = TopKEngine(loaded.u, loaded.v, policy=_policy())
                exact = reference
            else:
                engine = QuantizedTopKEngine(
                    loaded.u, loaded.u_scales, loaded.v, loaded.v_scales,
                    quant_dtype=mode, policy=_policy(),
                )
                # The claim is against the *dequantized* matrices: the
                # rerank must not move the lists beyond quantization itself.
                exact = TopKEngine(*engine.dequantized(), policy=_policy()).top_items(n)
            lists = engine.top_items(n)
            reference = lists if reference is None else reference
            emit("quant", {
                **base, "mode": mode, "mmap": mmap,
                "publish_seconds": publish_seconds, "load_seconds": load_seconds,
                "load_speedup": eager_load / max(load_seconds, 1e-9),
                "artifact_bytes": artifact_bytes,
                "resident_bytes": engine.resident_bytes(),
                **_latency(_per_query(engine, n, num_queries)),
                "candidates": int(getattr(engine, "reranked_candidates", 0)),
                "lists_equal": exact is None or bool(np.array_equal(lists, exact)),
            })


def run_refresh(config, emit: Emit, dataset: str, graph: BipartiteGraph) -> None:
    """The incremental-refresh axis: cold vs warm refit after an edge delta.

    Fits the graph cold, applies a seeded reweight delta to
    ``refresh_fraction`` of the edges, then refits twice: ``cold`` and
    ``warm`` (warm-started from the base fit's basis).  ``quality_ok``
    gates the warm row's top-``refresh_n`` lists at a mean overlap >= 0.9
    with the cold refit's: warm and cold are different eps-approximations,
    so heavy divergence, not element identity, is the failure.
    """
    from ..core import GEBEPoisson
    from ..graph import DeltaLog, apply_deltas
    from ..linalg import warm_basis_from_embedding

    def fit(target: BipartiteGraph, warm_start=None):
        walls, fitted = [], None
        for _ in range(config.repeats):
            method = GEBEPoisson(dimension=config.dimension, seed=config.seed,
                                 dtype_policy=_policy(), warm_start=warm_start)
            with obs.collect() as collector:
                out, wall = _timed(lambda: method.fit(target))
            walls.append(wall)
            fitted = out if fitted is None else fitted
        return fitted, {**_walls(walls), "matvecs": int(collector.ops.sparse_matvecs),
                        "qr_factorizations": int(collector.ops.qr_factorizations)}

    base_fit, _ = fit(graph)
    # Reweight-only: the incidence structure stays fixed (the common refresh
    # shape) and the spectrum moves gently enough for the warm basis.
    coo = graph.w.tocoo()
    count = max(1, min(coo.nnz, int(round(config.refresh_fraction * coo.nnz))))
    chosen = np.sort(np.random.default_rng(config.seed + 1).choice(coo.nnz, count, replace=False))
    log = DeltaLog.for_graph(graph)
    for pos in chosen:
        log.reweight(int(coo.row[pos]), int(coo.col[pos]), float(coo.data[pos]) * 1.25)
    new_graph = apply_deltas(graph, log)
    base = {"method": base_fit.method, "dataset": dataset, "delta_edges": len(log.deltas),
            "delta_fraction": len(log.deltas) / max(1, graph.num_edges)}
    n = max(1, min(int(config.refresh_n), graph.num_v))
    cold_fit, cold = fit(new_graph)
    emit("refresh", {**base, **cold, "mode": "cold", "refresh_mode": None,
                     "quality_ok": True})
    warm_fit, warm = fit(new_graph, warm_start=warm_basis_from_embedding(
        base_fit.u, base_fit.metadata.get("effective_dimension")
    ))
    cold_lists = TopKEngine.from_result(cold_fit, policy=_policy()).top_items(n)
    warm_lists = TopKEngine.from_result(warm_fit, policy=_policy()).top_items(n)
    emit("refresh", {**base, **warm, "mode": "warm",
                     "refresh_mode": warm_fit.metadata["refresh"]["mode"],
                     "quality_ok": _overlap(warm_lists, cold_lists) >= 0.9})


def _write_edge_standin(path: str, num_items: int, seed: int) -> None:
    """``num_items / 8`` users with eight random weighted items each.

    Duplicates sum on ingest and unobserved items compact away — the axis
    exercises the real streaming-ingest semantics, fully seeded.
    """
    rng = np.random.default_rng(seed)
    num_u = max(4, num_items // 8)
    with open(path, "w", encoding="utf-8") as handle:
        for start in range(0, num_u, 65_536):
            stop = min(num_u, start + 65_536)
            items = rng.integers(0, num_items, size=(stop - start, 8))
            weights = rng.uniform(0.5, 1.5, size=items.shape)
            handle.writelines(
                f"u{start + row}\ti{items[row, j]}\t{float(weights[row, j])!r}\n"
                for row in range(stop - start)
                for j in range(8)
            )


def run_ooc(config, emit: Emit) -> None:
    """The out-of-core axis: resident anchor vs budget-bounded mmap fits.

    Streams the seeded stand-in through
    :func:`~repro.graph.ingest.build_graph_store`, fits ``config.methods[0]``
    once from the resident graph (the anchor) and from the memory-mapped
    store once per ``ooc_budgets_mb`` budget (serial) plus once at the
    widest thread count at the largest budget.  Per mmap row:
    ``bit_identical`` embeddings, ``matvecs_equal`` op schedule, and
    ``rss_within_budget`` — peak RSS growth under the anchor's growth plus
    the budget plus a slack of 64 MiB + 25% of the anchor growth.
    """
    from ..graph.ingest import build_graph_store

    budgets = _sorted_positive("ooc_budgets_mb", [float(b) for b in config.ooc_budgets_mb])

    def fit(graph, policy, budget_mb):
        """Fit ``repeats`` times: the first fit, walls, counters, RSS growth."""
        baseline = obs.current_rss_bytes() or 0
        walls, fitted, copied, peak = [], None, 0, 0
        for _ in range(config.repeats):
            method = _method(config.methods[0], config, policy)
            with obs.collect() as collector:
                out, wall = _timed(lambda: method.fit(graph))
                section = collector.ooc_section(budget_mb=budget_mb)
            walls.append(wall)
            copied = max(copied, int(section["bytes_copied_in"]))
            peak = max(peak, int(section["peak_rss_bytes"]))
            fitted = out if fitted is None else fitted
        return fitted, walls, int(collector.ops.sparse_matvecs), copied, max(0, peak - baseline)

    with tempfile.TemporaryDirectory(prefix="repro-bench-ooc-") as tmp:
        edges = os.path.join(tmp, "standin.tsv")
        _write_edge_standin(edges, int(config.ooc_items), config.seed)
        store, _ = build_graph_store(edges, os.path.join(tmp, "store"), weighted=True)
        base = {"dataset": f"standin_{int(config.ooc_items)}", "num_u": int(store.num_u),
                "num_v": int(store.num_v), "nnz": int(store.nnz)}
        anchor, walls, matvecs, _, growth = fit(store.resident_graph(), _policy(), None)
        emit("ooc", {**base, "method": anchor.method, "mode": "resident", "budget_mb": None,
                     "threads": 1, **_walls(walls), "wall_overhead": 1.0, "matvecs": matvecs,
                     "bytes_copied_in": 0, "peak_rss_bytes": growth, "rss_budget_bytes": None,
                     "rss_within_budget": True, "matvecs_equal": True, "bit_identical": True})
        anchor_wall = min(walls)
        threads = max(config.thread_counts())
        cells = [(b, 1) for b in budgets] + ([(budgets[-1], threads)] if threads > 1 else [])
        for budget_mb, threads in cells:
            policy = _policy(threads).with_ooc_budget(budget_mb)
            fitted, walls, row_matvecs, copied, delta = fit(store.graph(), policy, budget_mb)
            rss_budget = growth + int(budget_mb * 2**20) + 64 * 2**20 + growth // 4
            emit("ooc", {
                **base, "method": fitted.method, "mode": "mmap", "budget_mb": budget_mb,
                "threads": threads, **_walls(walls),
                "wall_overhead": min(walls) / max(anchor_wall, 1e-12),
                "matvecs": row_matvecs, "bytes_copied_in": copied,
                "peak_rss_bytes": delta, "rss_budget_bytes": rss_budget,
                "rss_within_budget": delta <= rss_budget,
                "matvecs_equal": row_matvecs == matvecs,
                "bit_identical": bool(np.array_equal(fitted.u, anchor.u)
                                      and np.array_equal(fitted.v, anchor.v)),
            })


def run_similar(config, emit: Emit) -> None:
    """The similarity axis: blocked matrix-free MHS/MHP vs the dense truth.

    A seeded Erdos-Renyi stand-in (eight edges per user, small enough for
    the dense ``|U| x |U|`` reference); per mode, the engine's one-hot block
    width is swept serially plus one row at the widest thread count at the
    largest block.  Per row: one blocked multi-source sweep, then
    ``similar_queries`` single-source queries timed one by one inside one
    obs window, so ``matvecs_per_query`` is measured.  ``lists_equal``:
    blocked and single-source lists element-identical to ``select_topn``
    over the dense ``normalization="none"`` measures (self masked for MHS).
    """
    from ..core import PoissonPMF
    from ..core.measures import mhp_matrix, mhs_matrix
    from ..core.selection import select_topn
    from ..datasets import erdos_renyi_bipartite
    from ..tasks import SimilarityEngine

    num_u, num_v = int(config.similar_users), int(config.similar_items)
    if num_u < 2 or num_v < 2:
        raise ValueError(f"similar_users/similar_items must be >= 2, got {num_u}/{num_v}")
    tau = int(config.similar_tau)
    graph = erdos_renyi_bipartite(num_u, num_v, min(num_u * num_v, num_u * 8),
                                  weighted=True, seed=config.similar_seed)
    pmf = PoissonPMF(lam=1.5)
    n = max(1, min(int(config.similar_n), num_u - 1, num_v))
    rng = np.random.default_rng(config.similar_seed + 1)
    sources = np.sort(rng.choice(num_u, size=min(max(1, config.similar_queries), num_u),
                                 replace=False))
    s_dense = mhs_matrix(graph, pmf, tau)
    np.fill_diagonal(s_dense, -np.inf)
    reference = {"mhs": select_topn(s_dense[sources], n),
                 "mhp": select_topn(mhp_matrix(graph, pmf, tau)[sources], n)}
    blocks = _sorted_positive("similar_block_sources", [int(b) for b in config.similar_block_sources])
    widest = max(config.thread_counts())
    cells = [(b, 1) for b in blocks] + ([(blocks[-1], widest)] if widest > 1 else [])
    for mode in ("mhs", "mhp"):
        for block, threads in cells:
            engine = SimilarityEngine(graph, pmf, tau, normalization="none",
                                      policy=_policy(threads), block_sources=block)
            if mode == "mhs":
                # The one-time diagonal is serving state, not per-query cost.
                engine.h_diagonal(seed=config.similar_seed)
            blocked, _ = engine.query(sources, n, mode=mode)
            lists_equal = bool(np.array_equal(blocked, reference[mode]))
            latencies = []
            with obs.collect() as collector:
                for index, source in enumerate(sources):
                    (single, _), latency = _timed(lambda: engine.query([int(source)], n, mode=mode))
                    latencies.append(latency)
                    lists_equal &= bool(np.array_equal(single[0], reference[mode][index]))
            emit("similar", {
                "method": "similarity", "dataset": f"standin_{num_u}x{num_v}",
                "mode": mode, "block_sources": block, "threads": threads,
                "num_u": num_u, "num_v": num_v, "tau": tau, "n": n,
                "num_queries": int(sources.size), **_latency(latencies),
                "matvecs_per_query": int(collector.ops.sparse_matvecs) / sources.size,
                "lists_equal": lists_equal,
            })

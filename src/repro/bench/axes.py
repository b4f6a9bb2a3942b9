"""The bench axes: one declarative :class:`Axis` record per rows list.

Each axis of ``repro bench`` is data, not code: the record names its rows
list in the ``BENCH_*.json`` document, declares the row fields (types,
enums and sign constraints, in the :func:`repro.obs.check_fields`
notation), the cell label and op counter ``compare_bench`` diffs, the hard
gates that make ``repro bench`` exit 1, the columns ``render_bench`` and
the progress lines print, and the runner that produces its rows.
Validation, comparison, rendering, the exit-1 gate checks and the CLI's
axis-selection flags are all generic over :data:`AXES`.

This module imports no runner code: an axis names its runner in
:mod:`repro.bench.runners`, which loads only when a bench actually runs, so
the CLI can build its flags from the table without paying for the bench.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..linalg import DtypePolicy

__all__ = ["Axis", "AXES", "BenchConfig"]

Row = Dict[str, Any]
#: A hard gate: its name and ``ok(row, rows)`` over the axis's rows list.
Gate = Tuple[str, Callable[[Row, List[Row]], bool]]


@dataclass(frozen=True)
class BenchConfig:
    """Configuration of one benchmark run (all fields JSON-serializable).

    ``datasets`` / ``methods`` / ``dimension`` / ``seed`` / ``repeats``
    shape the per-dataset axes (every cell keeps the minimum wall time over
    ``repeats`` fits); ``gebe_iterations`` caps the KSI budget of the
    iterative GEBE variants (``None``: each method's default).  The fit grid
    runs the float64 policy, the float32 policy when ``float32`` is set,
    and the float64 policy again at every ``threads`` count above one.

    The boolean fields ``fit_grid``, ``topk``, ``serve_smoke``, ``ann``,
    ``quant``, ``refresh``, ``ooc`` and ``similar`` switch the axes of
    :data:`AXES` on and off; the prefixed fields size them (see each
    runner in :mod:`repro.bench.runners`).  ``ann``/``quant`` run over a
    clustered stand-in of ``*_items`` items, ``ooc`` over an ingested
    stand-in edge list of ``ooc_items`` items, and ``similar`` over a
    seeded ``similar_users x similar_items`` graph small enough for the
    dense reference.
    """

    datasets: Tuple[str, ...] = ("dblp", "mag")
    methods: Tuple[str, ...] = ("GEBE^p", "GEBE (Poisson)")
    dimension: int = 32
    seed: int = 0
    repeats: int = 3
    gebe_iterations: Optional[int] = 15
    float32: bool = True
    threads: Tuple[int, ...] = (1, 2, 4)
    fit_grid: bool = True
    topk: bool = True
    topk_block_rows: Tuple[int, ...] = (64, 256, 1024)
    topk_n: int = 10
    serve_smoke: bool = False
    serve_requests: int = 32
    ann: bool = False
    ann_items: int = 1_200_000
    ann_queries: int = 256
    ann_cells: Optional[int] = None
    ann_nprobe: Tuple[int, ...] = (1, 4, 16, 64)
    ann_n: int = 100
    quant: bool = False
    quant_items: int = 1_200_000
    quant_queries: int = 64
    quant_dtypes: Tuple[str, ...] = ("float16", "int8")
    quant_n: int = 100
    refresh: bool = False
    refresh_fraction: float = 0.01
    refresh_n: int = 10
    ooc: bool = False
    ooc_items: int = 1_200_000
    ooc_budgets_mb: Tuple[float, ...] = (8.0, 64.0)
    similar: bool = False
    similar_users: int = 600
    similar_items: int = 400
    similar_queries: int = 64
    similar_tau: int = 5
    similar_n: int = 10
    similar_block_sources: Tuple[int, ...] = (8, 64)
    similar_seed: int = 7

    @classmethod
    def smoke(cls) -> "BenchConfig":
        """A seconds-scale configuration for CI (``make bench-smoke``)."""
        return cls(
            datasets=("toy",),
            dimension=8,
            repeats=1,
            gebe_iterations=5,
            threads=(1, 2),
            topk_block_rows=(4, 64),
            ann_items=5_000,
            ann_queries=16,
            ann_nprobe=(1, 2, 8),
            ann_n=10,
            quant_items=5_000,
            quant_queries=16,
            quant_n=10,
            ooc_items=2_000,
            ooc_budgets_mb=(0.25, 4.0),
            similar_users=60,
            similar_items=40,
            similar_queries=12,
            similar_tau=4,
            similar_n=5,
            similar_block_sources=(4, 16),
        )

    def policies(self) -> List[DtypePolicy]:
        """The serial dtype-policy grid, the float64 default first."""
        grid = [DtypePolicy.default()]
        if self.float32:
            grid.append(DtypePolicy.float32())
        return [policy.with_threads(1) for policy in grid]

    def thread_counts(self) -> List[int]:
        """The validated threads axis (>= 1 each, deduplicated, sorted)."""
        counts = sorted(set(self.threads))
        if not counts or counts[0] < 1:
            raise ValueError(f"threads must be integers >= 1, got {self.threads}")
        return counts


@dataclass(frozen=True)
class Axis:
    """One rows list of the bench document and everything generic code needs.

    Attributes
    ----------
    name, key:
        The axis name (progress lines, CLI flags, gate messages) and the
        document key of its rows list.
    title:
        The heading ``render_bench`` prints above the axis's table.
    fields:
        Row field spec (``method`` and ``dataset`` are implied for every
        axis).
    rules:
        ``(mode, field, required)``: in rows of that ``mode``, ``field``
        must be non-null (``required``) or null.
    columns:
        ``(header, field, format)`` render columns after method and
        dataset; ``format`` is a format spec, ``"MB"`` or ``"ms"``.
    label, ops:
        The compare cell label and its deterministic op counter; ``label``
        ``None`` keeps the axis out of ``compare_bench`` cells.
    gates:
        Hard gates; a failing row makes ``repro bench`` exit 1 and is an
        ``invariant_violations`` entry of ``compare_bench``.
    run, switch, per_dataset:
        The runner's name in :mod:`repro.bench.runners` (``None``: rows
        come from another axis's runner), the :class:`BenchConfig` bool
        that enables it, and whether it runs once per dataset.
    flag, only:
        The CLI name: ``--<flag>`` turns an off-by-default axis on,
        ``--no-<flag>`` an on-by-default one off, and ``--<flag>-only``
        (when ``only``) runs it without the default-on axes.
    """

    name: str
    key: str
    title: str
    fields: Dict[str, Any]
    columns: Tuple[Tuple[str, str, str], ...]
    rules: Tuple[Tuple[str, str, bool], ...] = ()
    label: Optional[Callable[[Row], str]] = None
    ops: Optional[Callable[[Row], int]] = None
    gates: Tuple[Gate, ...] = ()
    run: Optional[str] = None
    switch: Optional[str] = None
    per_dataset: bool = False
    flag: Optional[str] = None
    only: bool = False


def _flag(field: str) -> Gate:
    """The gate that a boolean row field holds."""
    return field, lambda row, rows: bool(row[field])


def _warm_saves_matvecs(row: Row, rows: List[Row]) -> bool:
    return row["mode"] != "warm" or all(
        row["matvecs"] < cold["matvecs"]
        for cold in rows
        if cold["mode"] == "cold"
        and (cold["method"], cold["dataset"]) == (row["method"], row["dataset"])
    )


_WALLS = {"wall_seconds": "num>=0", "wall_seconds_all": "nums"}
_LATENCY = {"wall_seconds": "num>=0", "p50_ms": "num>=0", "p95_ms": "num>=0"}
_LATENCY_COLUMNS = (("p50 ms", "p50_ms", ".2f"), ("p95 ms", "p95_ms", ".2f"))

AXES: Tuple[Axis, ...] = (
    Axis(
        "fit", "runs", "fit grid (one row per method x policy x threads)",
        fields={
            "policy": "str", "threads": "int>=1", "dimension": "int",
            "seed": "int", "repeats": "int", **_WALLS, "matvecs": "int",
            "gemms": "int", "flops": "num", "peak_rss_bytes": "int",
            "workspace_bytes": "int>=0",
            "graph": {"num_u": "int>=0", "num_v": "int>=0", "num_edges": "int>=0"},
        },
        columns=(("policy", "policy", ""), ("thr", "threads", ""),
                 ("wall s", "wall_seconds", ".3f"), ("matvecs", "matvecs", "")),
        label=lambda row: row["policy"], ops=lambda row: row["matvecs"],
        run="run_fit", switch="fit_grid", per_dataset=True,
    ),
    Axis(
        "comparisons", "comparisons",
        "fit comparisons (float32 vs float64, threaded vs serial)",
        fields={
            "baseline_policy": "str", "candidate_policy": "str",
            "baseline_threads": "int>=1", "candidate_threads": "int>=1",
            "speedup": "num>0", "matvecs_equal": "bool",
        },
        columns=(("baseline", "baseline_policy", ""), ("thr", "baseline_threads", ""),
                 ("candidate", "candidate_policy", ""), ("thr", "candidate_threads", ""),
                 ("speedup", "speedup", ".2f"), ("matvecs equal", "matvecs_equal", "")),
        gates=(_flag("matvecs_equal"),),
    ),
    Axis(
        "topk", "topk_runs", "top-k retrieval (per-user reference vs batched)",
        fields={
            "mode": ("per_user", "batched"), "block_rows": "int?>=1",
            "threads": "int>=1", "exclude": "bool", "n": "int>=0",
            "num_users": "int>=0", "num_items": "int>=0", **_WALLS,
            "candidates": "int>=0", "gemms": "int>=0", "workspace_bytes": "int>=0",
        },
        rules=(("batched", "block_rows", True),),
        columns=(("mode", "mode", ""), ("block", "block_rows", ""), ("thr", "threads", ""),
                 ("mask", "exclude", ""), ("wall s", "wall_seconds", ".3f"),
                 ("candidates", "candidates", "")),
        label=lambda row: f"topk:{row['mode']}"
        + ("" if row["block_rows"] is None else f"/b{row['block_rows']}")
        + ("" if row["exclude"] else "/nomask"),
        ops=lambda row: row["candidates"],
        run="run_topk", switch="topk", per_dataset=True, flag="topk", only=True,
    ),
    Axis(
        "topk_comparisons", "topk_comparisons", "top-k comparisons (batched vs per-user)",
        fields={
            "baseline_mode": "str", "candidate_mode": "str",
            "candidate_block_rows": "int?", "candidate_threads": "int>=1",
            "speedup": "num>0", "lists_equal": "bool",
        },
        columns=(("block", "candidate_block_rows", ""), ("thr", "candidate_threads", ""),
                 ("speedup", "speedup", ".2f"), ("lists equal", "lists_equal", "")),
        gates=(_flag("lists_equal"),),
    ),
    Axis(
        "serve", "serve_runs", "HTTP serving (in-process repro.serve server)",
        fields={
            "mode": ("sequential", "concurrent"), "clients": "int>=1",
            "requests": "int>=0", "n": "int>=0", "batched": "bool", **_LATENCY,
            "shed": "int>=0", "lists_equal": "bool",
        },
        columns=(("mode", "mode", ""), ("clients", "clients", ""), ("reqs", "requests", ""),
                 *_LATENCY_COLUMNS, ("shed", "shed", ""), ("lists equal", "lists_equal", "")),
        gates=(_flag("lists_equal"),),
        run="run_serve", switch="serve_smoke", per_dataset=True, flag="serve-smoke",
    ),
    Axis(
        "ann", "ann_runs", "ANN (IVF probes vs the exact engine)",
        fields={
            "mode": ("exact", "ivf"), "nprobe": "int?>=1", "cells": "int>=0",
            "num_items": "int>=0", "num_queries": "int>=0", "n": "int>=0",
            "build_seconds": "num>=0", **_LATENCY, "recall_at_n": "num[0,1]",
            "candidates": "int>=0", "exact_match": "bool",
        },
        rules=(("ivf", "nprobe", True),),
        columns=(("mode", "mode", ""), ("nprobe", "nprobe", ""), ("cells", "cells", ""),
                 ("build s", "build_seconds", ".2f"), *_LATENCY_COLUMNS,
                 ("recall", "recall_at_n", ".3f"), ("exact", "exact_match", "")),
        label=lambda row: "ann:exact" if row["mode"] == "exact" else f"ann:ivf/p{row['nprobe']}",
        ops=lambda row: row["candidates"],
        # A full probe reranks every item exactly, so its lists must match.
        gates=(("exact_match", lambda row, rows: row["exact_match"]
                or row["mode"] != "ivf" or row["nprobe"] < row["cells"]),),
        run="run_ann", switch="ann", flag="ann", only=True,
    ),
    Axis(
        "quant", "quant_runs", "quantized artifacts (exact/eager row is the load baseline)",
        fields={
            "mode": ("exact", "float16", "int8"), "mmap": "bool", "num_users": "int>=0",
            "num_items": "int>=0", "n": "int>=0", "publish_seconds": "num>=0",
            "load_seconds": "num>=0", "load_speedup": "num>0",
            "artifact_bytes": "int>=0", "resident_bytes": "int>=0", **_LATENCY,
            "candidates": "int>=0", "lists_equal": "bool",
        },
        columns=(("mode", "mode", ""), ("mmap", "mmap", ""), ("load ms", "load_seconds", "ms"),
                 ("x load", "load_speedup", ".1f"), ("res MB", "resident_bytes", "MB"),
                 *_LATENCY_COLUMNS, ("lists equal", "lists_equal", "")),
        label=lambda row: f"quant:{row['mode']}/{'mmap' if row['mmap'] else 'eager'}",
        ops=lambda row: row["candidates"],
        gates=(_flag("lists_equal"),),
        run="run_quant", switch="quant", flag="quant", only=True,
    ),
    Axis(
        "refresh", "refresh_runs", "incremental refresh (cold refit vs warm refit)",
        fields={
            "mode": ("cold", "warm"), "refresh_mode": ("warm", "cold_fallback", None),
            "delta_edges": "int>=0", "delta_fraction": "num[0,1]", **_WALLS,
            "matvecs": "int>=0", "qr_factorizations": "int>=0",
            "quality_ok": "bool",
        },
        rules=(("warm", "refresh_mode", True), ("cold", "refresh_mode", False)),
        columns=(("mode", "mode", ""), ("outcome", "refresh_mode", ""),
                 ("edges", "delta_edges", ""), ("wall s", "wall_seconds", ".3f"),
                 ("matvecs", "matvecs", ""), ("qr", "qr_factorizations", ""),
                 ("quality", "quality_ok", "")),
        label=lambda row: f"refresh:{row['mode']}", ops=lambda row: row["matvecs"],
        gates=(_flag("quality_ok"), ("warm_saves_matvecs", _warm_saves_matvecs)),
        run="run_refresh", switch="refresh", per_dataset=True, flag="refresh", only=True,
    ),
    Axis(
        "ooc", "ooc_runs", "out-of-core fits (mmap store vs the resident anchor)",
        fields={
            "mode": ("resident", "mmap"), "budget_mb": "num?>0", "threads": "int>=1",
            "num_u": "int>=0", "num_v": "int>=0", "nnz": "int>=0", **_WALLS,
            "wall_overhead": "num>0", "matvecs": "int>=0", "bytes_copied_in": "int>=0",
            "peak_rss_bytes": "int>=0", "rss_budget_bytes": "int?>=0",
            "rss_within_budget": "bool", "matvecs_equal": "bool", "bit_identical": "bool",
        },
        rules=(("resident", "budget_mb", False),),
        columns=(("mode", "mode", ""), ("budget", "budget_mb", "g"), ("thr", "threads", ""),
                 ("wall s", "wall_seconds", ".3f"), ("x wall", "wall_overhead", ".2f"),
                 ("rss MB", "peak_rss_bytes", "MB"), ("copy MB", "bytes_copied_in", "MB"),
                 ("in budget", "rss_within_budget", ""), ("mv equal", "matvecs_equal", ""),
                 ("bits equal", "bit_identical", "")),
        label=lambda row: "ooc:resident" if row["mode"] == "resident"
        else "ooc:mmap/b" + ("-" if row["budget_mb"] is None else f"{row['budget_mb']:g}"),
        ops=lambda row: row["matvecs"],
        gates=(_flag("bit_identical"), _flag("matvecs_equal"), _flag("rss_within_budget")),
        run="run_ooc", switch="ooc", flag="ooc", only=True,
    ),
    Axis(
        "similar", "similar_runs", "similarity queries (blocked matrix-free MHS/MHP)",
        fields={
            "mode": ("mhs", "mhp"), "block_sources": "int>=1", "threads": "int>=1",
            "num_u": "int>=0", "num_v": "int>=0", "tau": "int>=0", "n": "int>=0",
            "num_queries": "int>=1", **_LATENCY, "matvecs_per_query": "num>=0",
            "lists_equal": "bool",
        },
        columns=(("mode", "mode", ""), ("block", "block_sources", ""), ("thr", "threads", ""),
                 ("queries", "num_queries", ""), *_LATENCY_COLUMNS,
                 ("mv/query", "matvecs_per_query", ".1f"), ("lists equal", "lists_equal", "")),
        label=lambda row: f"similar:{row['mode']}/b{row['block_sources']}/t{row['threads']}",
        ops=lambda row: int(round(row["matvecs_per_query"] * row["num_queries"])),
        gates=(_flag("lists_equal"),),
        run="run_similar", switch="similar", flag="similar", only=True,
    ),
)

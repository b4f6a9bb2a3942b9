"""Bench-to-bench diffing and the hard gates of one document.

``repro bench --compare OLD.json`` (and ``make bench-compare``) runs a fresh
benchmark grid and diffs it against a previously written ``BENCH_*.json`` —
typically the snapshot committed at the repo root.  Every axis with a
compare label contributes cells keyed by ``(method, dataset, label,
threads)``.  Two failure classes:

* **wall-time regressions** — a cell got slower than the old snapshot by
  more than the noise threshold.  Wall time on shared machines is noisy
  (hence the min-over-repeats estimator and a generous default threshold);
  regressions are advisory unless the environment matches.
* **matvec drift** — a cell performs a *different number of operations* (its
  axis's op counter: matvecs, scored candidates) than the snapshot.  These
  are deterministic counters, so any drift is a real schedule change.

Separately, :func:`violations` checks the hard gates of :data:`AXES`
inside one document; ``compare_bench`` reports the fresh run's failures as
``invariant_violations`` and the CLI exits 1 on them.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

from .axes import AXES, Axis
from .schema import validate_bench

__all__ = [
    "load_bench",
    "violations",
    "compare_bench",
    "render_compare",
    "DEFAULT_NOISE",
    "DEFAULT_MIN_SECONDS",
]

#: Default relative wall-time slack before a slowdown counts as a regression.
DEFAULT_NOISE = 0.25

#: Absolute slack floor: a cell must also get slower by at least this many
#: seconds.  Millisecond-scale cells see >25% relative jitter from a single
#: scheduler blip, so the relative threshold alone is flaky on them.
DEFAULT_MIN_SECONDS = 0.05


def load_bench(path: str) -> Dict[str, Any]:
    """Read and validate a bench document from ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        return validate_bench(json.load(handle))


def violations(payload: Dict[str, Any]) -> List[Tuple[Axis, str, Dict[str, Any]]]:
    """Every ``(axis, gate, row)`` whose hard gate fails in ``payload``."""
    failed = []
    for axis in AXES:
        rows = payload.get(axis.key, [])
        for gate, ok in axis.gates:
            failed.extend((axis, gate, row) for row in rows if not ok(row, rows))
    return failed


def _cells(payload: Dict[str, Any]) -> Dict[Tuple[str, str, str, int], Dict[str, Any]]:
    return {
        (row["method"], row["dataset"], axis.label(row), row.get("threads", 1)):
        {"wall": row["wall_seconds"], "ops": axis.ops(row)}
        for axis in AXES
        if axis.label is not None
        for row in payload.get(axis.key, [])
    }


def compare_bench(
    old: Dict[str, Any],
    new: Dict[str, Any],
    *,
    noise: float = DEFAULT_NOISE,
    min_seconds: float = DEFAULT_MIN_SECONDS,
) -> Dict[str, Any]:
    """Diff two validated bench documents, old = baseline, new = fresh run.

    Returns a dict with:

    * ``rows`` — one entry per cell present in both documents:
      ``{method, dataset, policy, threads, old_wall, new_wall, ratio,
      matvecs_equal, regression}`` (``ratio`` is new/old; > 1 is slower;
      ``policy`` is the axis's cell label, ``matvecs_equal`` compares its
      op counter);
    * ``regressions`` — the subset that is *both* relatively and absolutely
      slower: ``ratio > 1 + noise`` and ``new - old > min_seconds``;
    * ``matvec_drift`` — cells whose op counts changed vs the snapshot;
    * ``invariant_violations`` — the fresh run's rows that fail a hard gate
      (:func:`violations`), each row once;
    * ``missing`` / ``added`` — cell keys only in the old / new document;
    * ``noise`` / ``min_seconds`` — the thresholds used.
    """
    if noise < 0:
        raise ValueError("noise threshold must be non-negative")
    if min_seconds < 0:
        raise ValueError("min_seconds must be non-negative")
    old_cells, new_cells = _cells(old), _cells(new)
    rows: List[Dict[str, Any]] = []
    for key, cell in new_cells.items():
        if key not in old_cells:
            continue
        base = old_cells[key]
        ratio = cell["wall"] / max(base["wall"], 1e-12)
        rows.append(
            {
                "method": key[0],
                "dataset": key[1],
                "policy": key[2],
                "threads": key[3],
                "old_wall": base["wall"],
                "new_wall": cell["wall"],
                "ratio": ratio,
                "matvecs_equal": cell["ops"] == base["ops"],
                "regression": ratio > 1.0 + noise
                and cell["wall"] - base["wall"] > min_seconds,
            }
        )
    failing = {id(row): row for _, _, row in violations(new)}
    return {
        "rows": rows,
        "regressions": [row for row in rows if row["regression"]],
        "matvec_drift": [row for row in rows if not row["matvecs_equal"]],
        "invariant_violations": list(failing.values()),
        "missing": sorted(key for key in old_cells if key not in new_cells),
        "added": sorted(key for key in new_cells if key not in old_cells),
        "noise": noise,
        "min_seconds": min_seconds,
    }


def render_compare(result: Dict[str, Any]) -> str:
    """A human-readable diff summary (for the CLI)."""
    lines = [
        f"bench compare: {len(result['rows'])} matched cells, "
        f"noise threshold {result['noise']:.0%} "
        f"(+{result['min_seconds']:.3g}s absolute floor)"
    ]
    header = (
        f"{'method':<18}{'dataset':<18}{'policy':<24}{'thr':>4}"
        f"{'old':>10}{'new':>10}{'ratio':>8}"
    )
    lines += [header, "-" * len(header)]
    for row in result["rows"]:
        flags = ["REGRESSION"] * row["regression"] + ["MATVEC-DRIFT"] * (
            not row["matvecs_equal"]
        )
        lines.append(
            f"{row['method']:<18}{row['dataset']:<18}{row['policy']:<24}"
            f"{row['threads']:>4}{row['old_wall']:>9.3f}s{row['new_wall']:>9.3f}s"
            f"{row['ratio']:>8.2f}" + "".join("  " + flag for flag in flags)
        )
    lines += [f"  missing from fresh run: {key}" for key in result["missing"]]
    lines += [f"  new cell (not in baseline): {key}" for key in result["added"]]
    verdict = []
    if result["regressions"]:
        verdict.append(f"{len(result['regressions'])} wall-time regressions")
    if result["matvec_drift"]:
        verdict.append(f"{len(result['matvec_drift'])} matvec drifts")
    if result["invariant_violations"]:
        verdict.append(
            f"{len(result['invariant_violations'])} rows violate a hard gate"
        )
    lines.append("verdict: " + ("; ".join(verdict) if verdict else "ok"))
    return "\n".join(lines)

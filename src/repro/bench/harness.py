"""The reproducible benchmark harness behind ``make bench`` / ``repro bench``.

:func:`run_bench` walks :data:`~repro.bench.axes.AXES`: every axis switched
on in the :class:`~repro.bench.axes.BenchConfig` runs its runner (once per
dataset, or once for the stand-in axes), each row lands in its axis's rows
list, and the whole document is schema-validated before it is returned.

Noise control: every fit cell is run ``repeats`` times and the **minimum**
wall time is recorded — the standard estimator for "how fast can this code
go" on a shared machine (mean/max pick up scheduler noise).  All repeats
are retained in ``wall_seconds_all``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import asdict
from typing import Any, Dict, List, Optional

import numpy as np
import scipy

from .axes import AXES, Axis, BenchConfig
from .schema import BENCH_SCHEMA_NAME, BENCH_SCHEMA_VERSION, validate_bench

__all__ = ["BenchConfig", "run_bench", "write_bench", "render_bench"]


def _format(value: Any, fmt: str) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if fmt == "MB":
        return f"{value / 1e6:.1f}"
    if fmt == "ms":
        return f"{value * 1e3:.1f}"
    return format(value, fmt)


def _table_row(axis: Axis, row: Optional[Dict[str, Any]]) -> List[str]:
    """The header cells (``row`` is ``None``) or one row's cells."""
    if row is None:
        return ["method", "dataset"] + [header for header, _, _ in axis.columns]
    return [str(row["method"]), str(row["dataset"])] + [
        _format(row[key], fmt) for _, key, fmt in axis.columns
    ]


def _environment() -> Dict[str, Any]:
    import platform

    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 1,
    }


def run_bench(
    config: Optional[BenchConfig] = None, *, progress: bool = False
) -> Dict[str, Any]:
    """Execute every axis the config switches on; return the validated document.

    Parameters
    ----------
    config:
        The grid to run (``None`` means :class:`BenchConfig` defaults).
    progress:
        Print a one-liner per completed row to stderr.
    """
    from . import runners

    config = config if config is not None else BenchConfig()
    payload: Dict[str, Any] = {
        "schema": BENCH_SCHEMA_NAME,
        "version": BENCH_SCHEMA_VERSION,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "config": {
            key: list(value) if isinstance(value, tuple) else value
            for key, value in asdict(config).items()
        },
        "environment": _environment(),
        **{axis.key: [] for axis in AXES},
    }
    by_name = {axis.name: axis for axis in AXES}

    def emit(name: str, row: Dict[str, Any]) -> None:
        axis = by_name[name]
        payload[axis.key].append(row)
        if progress:
            cells = zip(_table_row(axis, None)[2:], _table_row(axis, row)[2:])
            print(
                f"  {name:<16} {row['method']} {row['dataset']} "
                + " ".join(f"{header}={cell}" for header, cell in cells),
                file=sys.stderr,
            )

    selected = [a for a in AXES if a.run is not None and getattr(config, a.switch)]
    per_dataset = [axis for axis in selected if axis.per_dataset]
    for dataset in config.datasets if per_dataset else ():
        graph = runners.load_graph(dataset, config.seed)
        for axis in per_dataset:
            getattr(runners, axis.run)(config, emit, dataset, graph)
    for axis in selected:
        if not axis.per_dataset:
            getattr(runners, axis.run)(config, emit)
    return validate_bench(payload)


def write_bench(payload: Dict[str, Any], path: str) -> None:
    """Write a validated bench document to ``path`` as stable JSON."""
    validate_bench(payload)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def render_bench(payload: Dict[str, Any]) -> str:
    """A human-readable summary of a bench document: one table per axis."""
    env = payload["environment"]
    lines = [
        f"bench {payload['created']}  (numpy {env['numpy']}, "
        f"scipy {env['scipy']}, {env['cpu_count']} cpu)"
    ]
    for axis in AXES:
        rows = payload.get(axis.key) or []
        if not rows:
            continue
        gates = ", ".join(gate for gate, _ in axis.gates)
        lines += ["", axis.title + (f"; hard gates: {gates}" if gates else "")]
        table = [_table_row(axis, None)] + [_table_row(axis, row) for row in rows]
        widths = [max(len(cells[i]) for cells in table) for i in range(len(table[0]))]
        for index, cells in enumerate(table):
            lines.append(
                "  ".join(
                    cell.ljust(width) if column < 2 else cell.rjust(width)
                    for column, (cell, width) in enumerate(zip(cells, widths))
                )
            )
            if index == 0:
                lines.append("-" * len(lines[-1]))
    return "\n".join(lines)

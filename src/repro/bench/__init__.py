"""Reproducible benchmark harness emitting ``BENCH_*.json`` perf snapshots.

The axes are one declarative table, :data:`AXES` (see
:mod:`repro.bench.axes`); validation, comparison, rendering and the hard
gates are generic over it.
"""

from .axes import AXES, Axis, BenchConfig
from .compare import compare_bench, load_bench, render_compare, violations
from .harness import render_bench, run_bench, write_bench
from .schema import BENCH_SCHEMA_NAME, BENCH_SCHEMA_VERSION, validate_bench

__all__ = [
    "AXES",
    "Axis",
    "BenchConfig",
    "run_bench",
    "write_bench",
    "render_bench",
    "validate_bench",
    "load_bench",
    "compare_bench",
    "render_compare",
    "violations",
    "BENCH_SCHEMA_NAME",
    "BENCH_SCHEMA_VERSION",
]

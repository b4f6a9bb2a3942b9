"""The ``BENCH_*.json`` document: schema constants and validation.

Every benchmark run serializes to one JSON document.  Like
:mod:`repro.obs.report`, the schema is fixed and versioned and is validated
on the write path (the harness) and the read path (``load_bench``)::

    {
      "schema": "repro.bench.results",
      "version": 9,
      "created": str,             # ISO-8601 UTC timestamp
      "config": {...},            # every BenchConfig field
      "environment": {"python": str, "numpy": str, "scipy": str,
                      "platform": str, "cpu_count": int},
      "<axis.key>": [row, ...]    # one rows list per axis of AXES
    }

The rows of each list follow their axis's field spec in
:mod:`repro.bench.axes`, which is also the narrative reference (see
``docs/BENCHMARKS.md``).  At least one rows list must be non-empty.  Only
version 9 is read: an older document is rejected with a message naming its
version.  v9 is the version of the committed ``BENCH_gebe.json``; the
table-driven validation accepts it unchanged (its ``config`` also carries
the retired ``ab_compare`` switch, and extra config keys are allowed).
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any, Dict

from ..obs import check_fields
from .axes import AXES, BenchConfig

__all__ = ["BENCH_SCHEMA_NAME", "BENCH_SCHEMA_VERSION", "validate_bench"]

BENCH_SCHEMA_NAME = "repro.bench.results"
BENCH_SCHEMA_VERSION = 9

_ENVIRONMENT = {
    "python": "str",
    "numpy": "str",
    "scipy": "str",
    "platform": "str",
    "cpu_count": "int",
}


def _config_spec() -> Dict[str, str]:
    """Every :class:`BenchConfig` field, typed after its default."""
    spec = {}
    for item in fields(BenchConfig):
        default = item.default
        if isinstance(default, tuple):
            spec[item.name] = "list"
        elif isinstance(default, bool):
            spec[item.name] = "bool"
        elif isinstance(default, float):
            spec[item.name] = "num"
        else:
            spec[item.name] = "int?"
    return spec


def _fail(message: str) -> None:
    raise ValueError(f"invalid bench document: {message}")


def validate_bench(payload: Any) -> Dict[str, Any]:
    """Validate a decoded bench document; return it unchanged.

    Raises
    ------
    ValueError
        With a pointed message when any schema constraint is violated.
    """
    if not isinstance(payload, dict):
        _fail(f"top level must be an object, got {type(payload).__name__}")
    if payload.get("schema") != BENCH_SCHEMA_NAME:
        _fail(f"schema must be {BENCH_SCHEMA_NAME!r}, got {payload.get('schema')!r}")
    if payload.get("version") != BENCH_SCHEMA_VERSION:
        _fail(f"version must be {BENCH_SCHEMA_VERSION}, got {payload.get('version')!r}")
    if not isinstance(payload.get("created"), str) or not payload["created"]:
        _fail("created must be a non-empty string")
    check_fields(payload.get("config"), _config_spec(), "config", _fail)
    threads = payload["config"]["threads"]
    if not threads or not all(
        isinstance(t, int) and not isinstance(t, bool) and t >= 1 for t in threads
    ):
        _fail("config.threads must be a non-empty list of integers >= 1")
    check_fields(payload.get("environment"), _ENVIRONMENT, "environment", _fail)
    for axis in AXES:
        rows = payload.get(axis.key)
        if not isinstance(rows, list):
            _fail(f"{axis.key} must be a list")
        spec = {"method": "str", "dataset": "str", **axis.fields}
        for index, row in enumerate(rows):
            where = f"{axis.key}[{index}]"
            check_fields(row, spec, where, _fail)
            for mode, key, required in axis.rules:
                if row["mode"] == mode and (row[key] is None) == required:
                    need = "is required" if required else "must be null"
                    _fail(f"{where}.{key} {need} for {mode} rows")
    if not any(payload[axis.key] for axis in AXES):
        _fail(f"{', '.join(axis.key for axis in AXES)} must not all be empty")
    return payload

"""RunReport: the stable JSON artifact a profiled run produces.

Every profiled solver run serializes to one JSON document with a fixed,
versioned schema (``SCHEMA_NAME``/``SCHEMA_VERSION``).  Downstream tooling —
``make profile-smoke``, the efficiency experiment, future perf-regression
bots — parses these documents, so the schema is validated on both the write
and the read path and changes must bump the version.

Schema (see ``docs/OBSERVABILITY.md`` for the narrative version)::

    {
      "schema": "repro.obs.run_report",
      "version": 9,
      "method": str,              # display name, e.g. "GEBE^p"
      "dataset": str | null,
      "dimension": int | null,
      "seed": int | null,
      "wall_seconds": float,
      "threads": int,             # effective kernel thread count (>= 1)
      "stages": [Stage, ...],     # Stage: {name, path, seconds, calls,
                                  #         children: [Stage, ...]}
      "ops": {"sparse_matvecs": int, "gemms": int,
              "qr_factorizations": int, "svd_factorizations": int,
              "topk_candidates": int, "ann_probes": int,
              "ann_candidates": int, "flops": float},
      "memory": {"peak_rss_bytes": int, "max_tracked_array_bytes": int,
                 "workspace_bytes": int, "samples": int},
      "sections": {name: Section},  # only the sections this run produced
      "metadata": {...}           # free-form, JSON-serializable
    }

``sections`` holds the optional parts of a report, keyed by name; a run
carries only the sections it produced.  :data:`SECTIONS` is the field spec
of each (see :func:`check_fields` for the notation):

* ``service`` — serving-tier tallies of a :mod:`repro.serve` run;
* ``refresh`` — the warm/cold outcome and matvec counters of an
  incremental refresh (:mod:`repro.linalg.refresh`);
* ``ooc`` — staging budget, block-copy traffic and peak RSS of a fit
  against a memory-mapped :class:`~repro.graph.store.GraphStore`;
* ``similarity`` — the matrix-free MHS/MHP query workload of
  :class:`repro.tasks.similarity.SimilarityEngine`.

Only the current version is read: a document of any other version is
rejected with a message naming it.  v9 replaced v8's four nullable
top-level ``service`` / ``refresh`` / ``ooc`` / ``similarity`` fields with
the ``sections`` map.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

__all__ = [
    "RunReport",
    "SECTIONS",
    "check_fields",
    "validate_report",
    "SCHEMA_NAME",
    "SCHEMA_VERSION",
]

SCHEMA_NAME = "repro.obs.run_report"
SCHEMA_VERSION = 9

_OPS_KEYS = (
    "sparse_matvecs",
    "gemms",
    "qr_factorizations",
    "svd_factorizations",
    "topk_candidates",
    "ann_probes",
    "ann_candidates",
    "flops",
)
_MEMORY_KEYS = (
    "peak_rss_bytes",
    "max_tracked_array_bytes",
    "workspace_bytes",
    "samples",
)
_STAGE_KEYS = ("name", "path", "seconds", "calls", "children")

#: Field spec of every optional report section (notation: :func:`check_fields`).
SECTIONS: Dict[str, Dict[str, Any]] = {
    "service": {
        "requests": "int>=0",
        "batched_requests": "int>=0",
        "batches": "int>=0",
        "shed": "int>=0",
        "deadline_exceeded": "int>=0",
        "reloads": "int>=0",
        "queue_depth_max": "int>=0",
        "latency_ms": {"p50": "num>=0", "p95": "num>=0"},
    },
    "refresh": {
        "mode": ("warm", "cold_fallback"),
        "reason": "text",
        "residual": "num?",
        "tolerance": "num>=0",
        "warm_rank": "int>=0",
        "warm_matvecs": "int?>=0",
        "cold_matvecs": "int?>=0",
    },
    "ooc": {
        "budget_mb": "num?>0",
        "bytes_copied_in": "int>=0",
        "peak_rss_bytes": "int>=0",
    },
    "similarity": {
        "mode": ("mhs", "mhp"),
        "side": ("u", "v"),
        "tau": "int>=0",
        "sources": "int>=0",
        "block_sources": "int>=0",
        "matvecs": "int>=0",
    },
}

_KINDS = {
    "str": str,
    "text": str,
    "bool": bool,
    "int": int,
    "num": (int, float),
    "list": list,
    "nums": list,
}
_BOUNDS: Dict[str, Any] = {
    ">=0": (lambda v: v >= 0, "must be non-negative"),
    ">0": (lambda v: v > 0, "must be positive"),
    ">=1": (lambda v: v >= 1, "must be >= 1"),
    "[0,1]": (lambda v: 0 <= v <= 1, "must be within [0, 1]"),
}


def check_fields(
    value: Any, spec: Any, where: str, fail: Callable[[str], None]
) -> None:
    """Check ``value`` against a field spec; call ``fail(message)`` on a violation.

    A spec is a dict (an object whose keys must all be present, each checked
    against its own spec), a tuple (the allowed values), or a string
    ``kind[?][bound]``: ``kind`` is ``str``, ``text`` (non-empty string),
    ``bool``, ``int``, ``num``, ``list`` or ``nums`` (a non-empty list of
    non-negative numbers); ``?`` also allows ``null``; ``bound`` is one of
    ``>=0``, ``>0``, ``>=1`` or ``[0,1]``.  A bool never passes as a number.
    """
    if isinstance(spec, dict):
        if not isinstance(value, dict):
            fail(f"{where} must be an object, got {type(value).__name__}")
        for key, rule in spec.items():
            if key not in value:
                fail(f"{where} is missing {key!r}")
            check_fields(value[key], rule, f"{where}.{key}", fail)
        return
    if isinstance(spec, tuple):
        if value not in spec:
            fail(f"{where} must be one of {spec}, got {value!r}")
        return
    kind, nullable, bound = re.fullmatch(r"(\w+)(\??)(.*)", spec).groups()
    if value is None and nullable:
        return
    if not isinstance(value, _KINDS[kind]) or (
        kind in ("int", "num") and isinstance(value, bool)
    ):
        fail(f"{where} has wrong type {type(value).__name__}")
    if kind == "text" and not value:
        fail(f"{where} must be a non-empty string")
    if kind == "nums" and not (
        value
        and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) and v >= 0
            for v in value
        )
    ):
        fail(f"{where} must be non-empty non-negative numbers")
    if bound:
        holds, message = _BOUNDS[bound]
        if not holds(value):
            fail(f"{where} {message}")


def _fail(message: str) -> None:
    raise ValueError(f"invalid run report: {message}")


def _validate_stage(stage: Any, where: str) -> None:
    if not isinstance(stage, dict):
        _fail(f"{where} must be an object, got {type(stage).__name__}")
    for key in _STAGE_KEYS:
        if key not in stage:
            _fail(f"{where} is missing {key!r}")
    if not isinstance(stage["name"], str) or not stage["name"]:
        _fail(f"{where}.name must be a non-empty string")
    if not isinstance(stage["path"], str) or not stage["path"]:
        _fail(f"{where}.path must be a non-empty string")
    if not isinstance(stage["seconds"], (int, float)) or stage["seconds"] < 0:
        _fail(f"{where}.seconds must be a non-negative number")
    if not isinstance(stage["calls"], int) or stage["calls"] < 0:
        _fail(f"{where}.calls must be a non-negative integer")
    if not isinstance(stage["children"], list):
        _fail(f"{where}.children must be a list")
    for index, child in enumerate(stage["children"]):
        _validate_stage(child, f"{where}.children[{index}]")


def validate_report(payload: Any) -> Dict[str, Any]:
    """Validate a decoded report document; return it unchanged.

    Raises
    ------
    ValueError
        With a pointed message when any schema constraint is violated.
    """
    if not isinstance(payload, dict):
        _fail(f"top level must be an object, got {type(payload).__name__}")
    if payload.get("schema") != SCHEMA_NAME:
        _fail(f"schema must be {SCHEMA_NAME!r}, got {payload.get('schema')!r}")
    if payload.get("version") != SCHEMA_VERSION:
        _fail(f"version must be {SCHEMA_VERSION}, got {payload.get('version')!r}")
    if not isinstance(payload.get("method"), str) or not payload["method"]:
        _fail("method must be a non-empty string")
    for key in ("dataset",):
        if payload.get(key) is not None and not isinstance(payload[key], str):
            _fail(f"{key} must be a string or null")
    for key in ("dimension", "seed"):
        if payload.get(key) is not None and not isinstance(payload[key], int):
            _fail(f"{key} must be an integer or null")
    wall = payload.get("wall_seconds")
    if not isinstance(wall, (int, float)) or wall < 0:
        _fail("wall_seconds must be a non-negative number")
    threads = payload.get("threads")
    if not isinstance(threads, int) or isinstance(threads, bool) or threads < 1:
        _fail("threads must be an integer >= 1")
    if not isinstance(payload.get("stages"), list):
        _fail("stages must be a list")
    for index, stage in enumerate(payload["stages"]):
        _validate_stage(stage, f"stages[{index}]")
    ops = payload.get("ops")
    if not isinstance(ops, dict):
        _fail("ops must be an object")
    for key in _OPS_KEYS:
        value = ops.get(key)
        if not isinstance(value, (int, float)) or value < 0:
            _fail(f"ops.{key} must be a non-negative number")
    memory = payload.get("memory")
    if not isinstance(memory, dict):
        _fail("memory must be an object")
    for key in _MEMORY_KEYS:
        value = memory.get(key)
        if not isinstance(value, int) or value < 0:
            _fail(f"memory.{key} must be a non-negative integer")
    sections = payload.get("sections")
    if not isinstance(sections, dict):
        _fail("sections must be an object")
    for name, section in sections.items():
        if name not in SECTIONS:
            _fail(f"sections.{name} is not one of {tuple(SECTIONS)}")
        check_fields(section, SECTIONS[name], f"sections.{name}", _fail)
    if not isinstance(payload.get("metadata"), dict):
        _fail("metadata must be an object")
    return payload


@dataclass
class RunReport:
    """One profiled run, ready to serialize.  See the module docstring."""

    method: str
    wall_seconds: float
    stages: List[Dict[str, Any]] = field(default_factory=list)
    ops: Dict[str, Any] = field(default_factory=dict)
    memory: Dict[str, Any] = field(default_factory=dict)
    dataset: Optional[str] = None
    dimension: Optional[int] = None
    seed: Optional[int] = None
    threads: int = 1
    sections: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    metadata: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """The schema-shaped document (validated before returning)."""
        ops = {key: self.ops.get(key, 0) for key in _OPS_KEYS}
        memory = {int_key: int(self.memory.get(int_key, 0)) for int_key in _MEMORY_KEYS}
        payload = {
            "schema": SCHEMA_NAME,
            "version": SCHEMA_VERSION,
            "method": self.method,
            "dataset": self.dataset,
            "dimension": self.dimension,
            "seed": self.seed,
            "wall_seconds": float(self.wall_seconds),
            "threads": int(self.threads),
            "stages": self.stages,
            "ops": ops,
            "memory": memory,
            "sections": self.sections,
            "metadata": self.metadata,
        }
        return validate_report(payload)

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Serialize to JSON (stable key order)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def write(self, path: str) -> None:
        """Write the JSON document to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())
            handle.write("\n")

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RunReport":
        """Rebuild a report from a decoded document of the current version."""
        validate_report(payload)
        return cls(
            method=payload["method"],
            wall_seconds=float(payload["wall_seconds"]),
            stages=payload["stages"],
            ops=dict(payload["ops"]),
            memory=dict(payload["memory"]),
            dataset=payload.get("dataset"),
            dimension=payload.get("dimension"),
            seed=payload.get("seed"),
            threads=int(payload.get("threads", 1)),
            sections={name: dict(s) for name, s in payload["sections"].items()},
            metadata=dict(payload.get("metadata", {})),
        )

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        """Rebuild a report from its JSON serialization."""
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------
    # Read-out helpers
    # ------------------------------------------------------------------
    def stage_seconds(self) -> Dict[str, float]:
        """Flat ``path -> seconds`` map over the whole stage tree."""
        flat: Dict[str, float] = {}

        def walk(stages: List[Dict[str, Any]]) -> None:
            for stage in stages:
                flat[stage["path"]] = stage["seconds"]
                walk(stage["children"])

        walk(self.stages)
        return flat

    def summary(self) -> str:
        """A terse human-readable one-liner for CLI output."""
        return (
            f"{self.method}: {self.wall_seconds:.3f}s, "
            f"{self.ops.get('sparse_matvecs', 0)} spmv, "
            f"{self.ops.get('gemms', 0)} gemm, "
            f"{self.threads} thread{'s' if self.threads != 1 else ''}, "
            f"peak RSS {self.memory.get('peak_rss_bytes', 0) / 1e6:.1f} MB, "
            f"workspace {self.memory.get('workspace_bytes', 0) / 1e6:.1f} MB"
        )

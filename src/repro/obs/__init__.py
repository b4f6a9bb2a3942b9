"""Solver observability: stage timers, op counters, memory, run reports.

The paper's central claim is *scalability*, so the reproduction needs
first-class measurement: where the time goes (hierarchical
:class:`StageTimer` stages such as ``gebe_p/rsvd/power_iter``), how many
sparse matvecs / dense GEMMs / estimated FLOPs the linalg substrate spent
(:class:`OpCounter`), and how much memory the run touched
(:class:`MemorySampler`).  A profiled run freezes into a :class:`RunReport`
with a stable, validated JSON schema.

Profiling is opt-in and zero-overhead-by-default: instrumented call sites
report to :func:`active`, which returns a no-op :class:`NullCollector`
unless a :class:`ProfileCollector` was activated with :func:`collect`::

    from repro import obs

    with obs.collect() as collector:
        result = GEBEPoisson(dimension=32, seed=0).fit(graph)
    report = collector.report(method=result.method, dataset="toy")
    report.write("report.json")

The CLI exposes the same thing as ``repro embed ... --profile
[--profile-out PATH]``; see ``docs/OBSERVABILITY.md`` for the schema and
how to read a report.
"""

from .collector import NULL, NullCollector, ProfileCollector, active, collect
from .counters import OpCounter
from .memory import MemorySampler, current_rss_bytes
from .report import (
    SCHEMA_NAME,
    SCHEMA_VERSION,
    SECTIONS,
    RunReport,
    check_fields,
    validate_report,
)
from .timer import StageRecord, StageTimer

__all__ = [
    "NULL",
    "NullCollector",
    "ProfileCollector",
    "active",
    "collect",
    "OpCounter",
    "MemorySampler",
    "current_rss_bytes",
    "RunReport",
    "SECTIONS",
    "check_fields",
    "validate_report",
    "SCHEMA_NAME",
    "SCHEMA_VERSION",
    "StageRecord",
    "StageTimer",
]

"""Small measurement helpers shared by the benchmark modules.

Percentiles are nearest-rank (an observed value, never an interpolation).
CPU time and peak memory of a server are read from ``/proc`` while it still
runs: ``resource`` reports a child only after it has been waited for.
"""

from __future__ import annotations

import math
import os
from typing import Sequence

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0..100); raises on no samples."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    rank = min(len(ordered), max(1, math.ceil(q / 100.0 * len(ordered))))
    return float(ordered[rank - 1])


def median(samples: Sequence[float]) -> float:
    """The nearest-rank median (``percentile(samples, 50)``)."""
    return percentile(samples, 50)


def process_cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/stat", "r", encoding="ascii") as handle:
        # The command name (field 2) may contain spaces; split after it.
        fields = handle.read().rsplit(")", 1)[1].split()
    # utime and stime are fields 14 and 15 of the full line.
    return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS


def process_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


def steal_seconds() -> float:
    """CPU time stolen by the hypervisor so far (``cpu`` line of ``/proc/stat``)."""
    with open("/proc/stat", "r", encoding="ascii") as handle:
        return int(handle.readline().split()[8]) / CLOCK_TICKS

"""What the machine was doing while the benchmark ran.

A number counts only if it is noise-controlled on the machine that
produced it, so every run records the machine (CPUs, affinity, library
versions, the thread settings passed to children) and, before and after the
workload, the load average, the CPU steal so far and a fixed calibration
loop.  The calibration exposes a machine that slowed down between runs:
the same ingest has taken 10 s and 15 s minutes apart on one box.
"""

from __future__ import annotations

import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Any, Dict, Optional

import numpy as np
import scipy

from measure import steal_seconds

def _openblas_version() -> Optional[str]:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return f"{blas.get('name')} {blas.get('version')}"


def _git_head(root: Path) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def machine(root: Path, child_threads: Dict[str, str]) -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _openblas_version(),
        "git_head": _git_head(root),
        "child_thread_settings": dict(child_threads),
    }


def calibration() -> Dict[str, float]:
    """Seconds for a fixed pure-Python loop and a fixed numpy GEMM."""
    started = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i
    python_s = time.perf_counter() - started
    a = np.random.default_rng(0).standard_normal((384, 384))
    started = time.perf_counter()
    for _ in range(40):
        a = a @ a
        a /= np.abs(a).max()
    return {"python_loop_s": python_s, "numpy_gemm_s": time.perf_counter() - started}


def sample() -> Dict[str, Any]:
    return {"loadavg": list(os.getloadavg()), "steal_s": steal_seconds(), **calibration()}


def during(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "before": before,
        "after": after,
        "steal_s": after["steal_s"] - before["steal_s"],
    }

"""Each entry point loads only the code its commands run.

``repro serve``, ``repro refresh`` and the fit pipeline never call the
link-prediction classifier (``scipy.optimize``, which brings scipy's
special, fft and spatial packages along), the fifteen competitor methods
or the evaluation tasks and their metrics, so a fresh interpreter that
imports them must not load those modules: they cost every process
start-up time and resident memory.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules no serving, refresh or fit process runs.
UNUSED = (
    "scipy.optimize",
    "repro.baselines",
    "repro.experiments",
    "repro.walks",
    "repro.metrics",
    "repro.tasks.link_prediction",
    "repro.tasks.logistic",
    "repro.tasks.node_classification",
    "repro.tasks.recommendation",
    "repro.tasks.splits",
)


def _run(code: str) -> str:
    """Run ``code`` in a fresh interpreter on ``src``; its last stdout line."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


@pytest.mark.parametrize(
    "code",
    [
        "import repro.cli; repro.cli.build_parser()",
        "import repro.serve.server",
        # What perf/pipeline.py's fit imports: ingest, fit and publish.
        "import repro.graph.ingest, repro.core.gebe_p, repro.serve.artifacts",
    ],
)
def test_entry_point_loads_no_unused_module(code):
    loaded = json.loads(
        _run(f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))")
    )
    assert [name for name in UNUSED if name in loaded] == []


def test_public_names_still_resolve():
    missing = _run(
        "import repro, repro.tasks\n"
        "print([name for module in (repro, repro.tasks)"
        " for name in module.__all__ if not hasattr(module, name)])"
    )
    assert missing == "[]"


"""Run the benchmark.

One workload, as the benchmark contract invokes it::

    python3 perf/run.py --workload fit-tall --seed 0 --seconds 20 --trace 0

prints every metric as ``workload metric value unit``, writes
``perf/.out/<workload>-seed<seed>-trace<0|1>.json`` and ends with one JSON
line ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  It
exits 1 when a correctness gate fails and 2 when the program is missing.

Every workload, each in a fresh child process (``--workload all``, the
default); with ``--trace 1`` each workload runs untraced and traced and the
tracing overhead is printed per end-to-end metric::

    python3 perf/run.py --seed 0
    python3 perf/run.py --seed 0 --trace 1
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
OUT = PERF / ".out"
DEFAULT_SECONDS = 20


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def result_path(workload: str, seed: int, trace: int) -> Path:
    return OUT / f"{workload}-seed{seed}-trace{trace}.json"


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    import environment
    import layers
    import workloads

    ctx = workloads.Context(cache=PERF / ".cache", work=OUT / f"{workload}-work", trace=trace)
    tempfile.tempdir = str(ctx.work / "tmp")
    before = environment.sample()
    result = workloads.run(workload, seed, seconds, ctx)
    after = environment.sample()

    units = {name: unit for name, unit, _, _ in workloads.END_TO_END}
    record: Dict[str, Any] = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "end_to_end": result.end_to_end,
        "checks": result.checks,
        "inputs": {"sizes": workloads.SIZES[workload], "digests": result.digests},
        "notes": result.notes,
        "environment": {"machine": environment.machine(ROOT, workloads.CHILD_THREADS),
                        **environment.during(before, after)},
    }
    metrics = result.end_to_end
    if trace:
        metrics = layers.per_layer(result.observed)
        units = {name: unit for name, unit, _, _ in layers.PER_LAYER}
        record["per_layer"] = metrics
        record["attributions"] = layers.attributions(
            workload, metrics, result.end_to_end, result.model_versions
        )
    correct = all(c["ok"] for c in result.checks)
    record.update(correct=correct, attempted=result.attempted, failed=result.failed)
    result_path(workload, seed, int(trace)).write_text(
        json.dumps(record, indent=2), encoding="utf-8"
    )

    for name, value in metrics.items():
        print(f"{workload} {name} {value!r} {units[name]}")
    tail = f"latency_p{workloads.TAIL_PERCENTILE}_ms"
    print(f"{workload} {tail} {result.notes[tail]!r} ms "
          f"(not gated; {result.notes['samples_beyond_tail']} samples beyond it)")
    for item in record.get("attributions", []):
        print(f"{workload} attribution {'holds' if item['holds'] else 'DOES NOT HOLD'}: "
              f"{item['claim']} (measured {item['value']:.4g})")
    for item in result.checks:
        if not item["ok"]:
            print(f"{workload} CHECK FAILED: {item['name']}: {item['detail']}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    import workloads

    status = 0
    for workload in workloads.WORKLOADS:
        for traced in ((0, 1) if trace else (0,)):
            command = [sys.executable, str(PERF / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(seconds), "--trace", str(traced)]
            done = subprocess.run(command, cwd=ROOT)
            status = status or done.returncode
        if trace and status == 0:
            plain, traced_e2e = (
                json.loads(result_path(workload, seed, t).read_text(encoding="utf-8"))["end_to_end"]
                for t in (0, 1)
            )
            for name, unit, _, _ in workloads.END_TO_END:
                overhead = traced_e2e[name] - plain[name]
                print(f"{workload} trace_overhead.{name} {overhead!r} {unit} "
                      f"({overhead / plain[name]:+.1%} of untraced {plain[name]:.4g})")
    return status


def main(argv: List[str]) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the program is missing ({ROOT / 'src' / 'repro'} not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

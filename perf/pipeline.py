"""The fit pipeline the fit-* workloads run in a child process.

Ingest the TSV edge list into a graph store several times (the set-up
measurement), run one untimed ``open store -> fit -> publish`` as a
warm-up, then repeat it until the measurement time is spent.  Only public entry points are called, through
their modules at call time, so the traced run sees every call.  Results go
to the JSON file named in the config; the parent computes metrics and
checks from it.
"""

from __future__ import annotations

import hashlib
import json
import resource
import time
from pathlib import Path
from typing import Any, Dict


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run(config: Dict[str, Any]) -> Dict[str, Any]:
    from repro.core import gebe_p
    from repro.graph import ingest, store
    from repro.linalg import DtypePolicy
    from repro.serve import artifacts

    workdir = Path(config["workdir"])
    ingests = []
    for i in range(config["ingests"]):
        started = time.perf_counter()
        _, stats = ingest.build_graph_store(
            config["tsv"], workdir / f"store-{i}", weighted=True, force=True, workdir=workdir
        )
        ingests.append({"seconds": time.perf_counter() - started, "edges_read": stats.edges_read})
    store_path = workdir / f"store-{config['ingests'] - 1}"

    policy = DtypePolicy()
    if config["ooc_budget_mb"] is not None:
        policy = policy.with_ooc_budget(config["ooc_budget_mb"])
    artifact_store = artifacts.ArtifactStore(workdir / "artifacts")

    def operation():
        """open store -> fit -> publish; returns the fit result and the published ref."""
        graph_store = store.GraphStore.open(store_path)
        if config["ooc_budget_mb"] is None:
            graph = graph_store.resident_graph()
        else:
            graph = graph_store.graph()
        result = gebe_p.GEBEPoisson(
            dimension=config["dimension"], seed=config["seed"], dtype_policy=policy
        ).fit(graph)
        ref = artifact_store.publish(
            "fit",
            result.u,
            result.v,
            graph=graph if config["publish_graph"] else None,
            method=result.method,
        )
        return result, ref

    operation()  # warm-up: first-call costs (imports, allocator growth) are not timed
    repeats = []
    singular_values = None
    deadline = time.perf_counter() + config["seconds"]
    while len(repeats) < config["min_repeats"] or time.perf_counter() < deadline:
        cpu_started = _cpu_seconds()
        started = time.perf_counter()
        result, ref = operation()
        finished = time.perf_counter()
        repeats.append(
            {
                "start": started,
                "end": finished,
                "cpu_s": _cpu_seconds() - cpu_started,
                "version": ref.version,
                "u_digest": hashlib.blake2b(result.u.tobytes(), digest_size=16).hexdigest(),
            }
        )
        if singular_values is None:
            singular_values = [float(s) for s in result.metadata["singular_values"]]

    # Measured before verification, which reads every published byte.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    unverified = []
    for repeat in repeats:
        try:
            artifact_store.verify(artifact_store.resolve("fit", repeat["version"]))
        except artifacts.ArtifactError as exc:
            unverified.append(f"v{repeat['version']}: {exc}")
    return {
        "ingests": ingests,
        "repeats": repeats,
        "singular_values": singular_values,
        "peak_rss_mb": peak_rss_mb,
        "unverified": unverified,
    }


def main(args) -> int:
    config = json.loads(Path(args[0]).read_text(encoding="utf-8"))
    result = run(config)
    Path(config["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


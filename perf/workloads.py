"""The four workloads: set-up, measurement, end-to-end metrics and correctness gates.

``fit-tall`` and ``fit-dense`` run the fit pipeline (``pipeline.py``) in a
child process.  ``serve-topk`` and ``serve-mixed-refresh`` run the real
``repro serve`` (and ``repro refresh``) processes and drive them over HTTP
with the open-loop generator of ``loadgen.py``.  Every child starts through
``launch.py``, traced or not.

Sizes are trimmed from the issue's scratch sizes so that one run of a
workload ends in about half a minute on a 2-core machine, keeping each
workload's shape (degree against the 40-column subspace block, aspect,
skew, request mix); see README.md.
"""

from __future__ import annotations

import json
import os
import re
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

import inputs
import layers
import loadgen
from measure import median, percentile, process_cpu_seconds, process_hwm_mb
from trace import load_dump

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent

#: (name, unit, better, bound) of every end-to-end metric, in BENCHMARK.json order.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("cpu_ms_per_op", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
)

#: Tail latency: printed and recorded, but not an end-to-end metric.  On a
#: shared host its run-to-run spread (30% on fit-dense, where a run has
#: about 100 fits) exceeds the largest bound a metric may have.
TAIL_PERCENTILE = 95

SIZES: Dict[str, Dict[str, Any]] = {
    "fit-tall": dict(num_u=30000, num_v=7500, edges=260000, zipf=0.8, dimension=32,
                     ingests=3, min_repeats=3, ooc_budget_mb=None, publish_graph=True),
    "fit-dense": dict(num_u=2500, num_v=1000, edges=310000, zipf=0.0, dimension=32,
                      ingests=3, min_repeats=3, ooc_budget_mb=64, publish_graph=False),
    "serve-topk": dict(num_u=100000, num_v=200000, dimension=32, mask_edges=1000000,
                       rate=25.0, user_zipf=1.1, deadline_ms=1000.0, spawns=5, samples=60),
    # Requests may wait behind a reload's diagonal probe for longer than the
    # server's default 1 s deadline; they carry a long one so that the stall
    # shows as latency instead of as failed requests.
    "serve-mixed-refresh": dict(num_u=1500, num_v=500, edges=10000, zipf=0.8, dimension=32,
                                rate=20.0, deadline_ms=30000.0, spawns=5, cycles=3,
                                reweight=0.01, samples=30),
}

WORKLOADS = tuple(SIZES)

#: Call sites each workload's traced processes must reach (trace.CALL_SITES ids).
_FIT_SITES = {
    "repro.graph.ingest:build_graph_store", "repro.core.gebe_p:GEBEPoisson.fit",
    "repro.core.gebe_p:normalize_weights", "repro.core.gebe_p:randomized_svd",
    "repro.linalg.randomized_svd:thin_qr", "repro.linalg.kernels:SparseKernel.matmul",
    "repro.linalg.kernels:SparseKernel.t_matmul", "repro.serve.artifacts:ArtifactStore.publish",
}
_SERVE_SITES = {
    "repro.serve.artifacts:ArtifactStore.load", "repro.serve.service:EmbeddingService.top_items",
    "repro.tasks.topk:TopKEngine.iter_top_items", "repro.tasks.topk:select_topn",
    "repro.serve.server:EmbeddingServer.handle_topk",
}
EXPECTED_SITES: Dict[str, Dict[str, set]] = {
    "fit-tall": {"fit": _FIT_SITES | {"repro.graph.store:GraphStore.resident_graph"}},
    "fit-dense": {"fit": _FIT_SITES},
    "serve-topk": {"serve": _SERVE_SITES},
    "serve-mixed-refresh": {
        "serve": _SERVE_SITES | {
            "repro.serve.service:EmbeddingService.similar",
            "repro.serve.service:EmbeddingService.reload",
            "repro.tasks.similarity:SimilarityEngine.h_diagonal",
            "repro.tasks.similarity:SimilarityEngine.query",
            "repro.tasks.similarity:select_topn", "repro.tasks.similarity:normalize_weights",
            "repro.linalg.kernels:GramKernel.pmf_apply",
            "repro.serve.server:EmbeddingServer.handle_similar",
        },
        "refresh": {
            "repro.serve.artifacts:ArtifactStore.load", "repro.graph:apply_deltas",
            "repro.core.gebe_p:GEBEPoisson.fit", "repro.core.gebe_p:refresh_svd",
            "repro.linalg.refresh:randomized_svd", "repro.linalg.randomized_svd:thin_qr",
            "repro.core.gebe_p:normalize_weights", "repro.linalg.kernels:SparseKernel.matmul",
            "repro.serve.artifacts:ArtifactStore.publish",
        },
    },
}

CHILD_TIMEOUT_S = 150.0

#: Thread settings of every child.  On a 2-core machine shared with the
#: load generator, the program's default (one thread per CPU, plus
#: OpenBLAS's own pool) made a degree-190 fit-dense fit 1.5x slower and
#: doubled its run-to-run spread (11% against 5% interquartile range), so
#: the benchmark measures the single-threaded program.
CHILD_THREADS = {"REPRO_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


@dataclass
class Context:
    """Where a run keeps its inputs, scratch files and child logs."""

    cache: Path
    work: Path
    trace: bool

    def env(self) -> Dict[str, str]:
        env = dict(os.environ, PYTHONUNBUFFERED="1", TMPDIR=str(self.work / "tmp"), **CHILD_THREADS)
        env.pop("PYTHONPATH", None)  # launch.py puts this checkout's src first
        return env

    def launch(self, role: str, trace_name: str, args: Sequence[str],
               stdout=subprocess.DEVNULL) -> subprocess.Popen:
        trace_out = str(self.work / f"trace-{trace_name}.json") if self.trace else "-"
        with open(self.work / f"{trace_name}.log", "ab") as log:
            return subprocess.Popen(
                [sys.executable, str(PERF / "launch.py"), role, trace_out, *args],
                stdout=stdout, stderr=log, env=self.env(), cwd=ROOT,
            )

    def log_tail(self, trace_name: str) -> str:
        path = self.work / f"{trace_name}.log"
        return path.read_text(errors="replace")[-2000:] if path.exists() else ""

    def dump(self, trace_name: str) -> Dict[str, Any]:
        return load_dump(self.work / f"trace-{trace_name}.json")


@dataclass
class WorkloadResult:
    end_to_end: Dict[str, float]
    attempted: int
    failed: int
    checks: List[Dict[str, Any]]
    digests: Dict[str, Any]
    observed: Optional[layers.Observed] = None
    roles: Dict[str, List[Dict[str, Any]]] = field(default_factory=dict)
    model_versions: int = 0
    notes: Dict[str, Any] = field(default_factory=dict)


def check(name: str, ok: bool, detail: Any) -> Dict[str, Any]:
    return {"name": name, "ok": bool(ok), "detail": detail}


def wait(proc: subprocess.Popen, timeout: float, ctx: Context, trace_name: str) -> None:
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{trace_name} did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise RuntimeError(f"{trace_name} exited {proc.returncode}:\n{ctx.log_tail(trace_name)}")


def _tail_note(latencies_s: Sequence[float]) -> Dict[str, Any]:
    """The ungated tail latency, with the number of samples beyond it."""
    value = percentile(latencies_s, TAIL_PERCENTILE)
    return {f"latency_p{TAIL_PERCENTILE}_ms": value * 1e3,
            "samples_beyond_tail": sum(1 for x in latencies_s if x > value)}


# ---------------------------------------------------------------------------
# fit-tall / fit-dense
# ---------------------------------------------------------------------------
def run_fit(workload: str, seed: int, seconds: float, size: Dict[str, Any],
            ctx: Context) -> WorkloadResult:
    cache_dir, digests = inputs.fit_inputs(ctx.cache, workload, seed, size)
    reference = json.loads((cache_dir / "reference.json").read_text(encoding="utf-8"))
    config = {
        "tsv": str(cache_dir / "edges.tsv"), "workdir": str(ctx.work),
        "result": str(ctx.work / "fit-result.json"), "seed": seed, "seconds": seconds,
        **{key: size[key] for key in
           ("dimension", "ingests", "min_repeats", "ooc_budget_mb", "publish_graph")},
    }
    config_path = ctx.work / "fit-config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    proc = ctx.launch("fit", "fit", [str(config_path)])
    wait(proc, CHILD_TIMEOUT_S, ctx, "fit")
    result = json.loads((ctx.work / "fit-result.json").read_text(encoding="utf-8"))

    repeats = result["repeats"]
    latencies = [r["end"] - r["start"] for r in repeats]
    end_to_end = {
        "setup_s": median([i["seconds"] for i in result["ingests"]]),
        "latency_p50_ms": median(latencies) * 1e3,
        "cpu_ms_per_op": median([r["cpu_s"] for r in repeats]) * 1e3,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    fitted = np.asarray(result["singular_values"])
    expected = np.asarray(reference["singular_values"])
    worst = float(np.max(np.abs(fitted - expected) / expected))
    digests_of_u = sorted({r["u_digest"] for r in repeats})
    checks = [
        check("singular values within 0.05 of scipy svds", worst <= 0.05,
              {"worst_relative_error": worst}),
        check("published versions pass ArtifactStore.verify", not result["unverified"],
              result["unverified"]),
        check("u bit-identical across repeats", len(digests_of_u) == 1, digests_of_u),
    ]
    out = WorkloadResult(end_to_end, len(repeats), 0, checks, digests,
                         notes={"reference_nnz": reference["nnz"], "fits": len(repeats),
                                **_tail_note(latencies)})
    if ctx.trace:
        dump = ctx.dump("fit")
        out.roles = {"fit": [dump]}
        window = (repeats[0]["start"], repeats[-1]["end"])
        out.observed = layers.Observed([dump], window, len(repeats))
    return out


# ---------------------------------------------------------------------------
# Serving
# ---------------------------------------------------------------------------
class Server:
    """One ``repro serve`` process on an ephemeral port."""

    def __init__(self, ctx: Context, store: Path, name: str, trace_name: str):
        self.trace_name = trace_name
        args = ["--store", str(store), "--name", name, "--port", "0"]
        self.proc = ctx.launch("serve", trace_name, args, stdout=subprocess.PIPE)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline().decode("utf-8", "replace")
        finally:
            watchdog.cancel()
        match = re.search(r"http://[^:\s]+:(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not start:\n{line}{ctx.log_tail(trace_name)}")
        self.port = int(match.group(1))

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> None:
        """SIGINT (the CLI's clean shutdown, which also writes the trace), then wait."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def start_ready(ctx: Context, store: Path, name: str, warmups, trace_name: str):
    """Spawn a server and wait until every request class has answered 200 once.

    Returns the server, the seconds that took, and the (body, answer) pairs.
    """
    started = time.perf_counter()
    server = Server(ctx, store, name, trace_name)
    try:
        conn = loadgen.connect(server.port)
        answers = []
        for path, body in warmups:
            status, payload = loadgen.post_json(conn, path, body)
            if status != 200:
                raise RuntimeError(f"warm-up {path} {body} answered {status}: {payload}")
            answers.append((body, payload))
        conn.close()
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - started, answers


def set_up(ctx: Context, store: Path, name: str, warmups, spawns: int):
    """``spawns`` timed start-ups; all but the last server are stopped again."""
    setups = []
    for i in range(spawns):
        server, seconds, answers = start_ready(ctx, store, name, warmups, f"serve-{i}")
        setups.append(seconds)
        if i < spawns - 1:
            server.stop()
    return server, median(setups), answers


def _children_cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


@dataclass
class LoadPhase:
    outcomes: List[loadgen.Outcome]
    window: Tuple[float, float]
    server_cpu_s: float
    children_cpu_s: float  # the refresh processes the writer ran
    peak_rss_mb: float
    service_metrics: Dict[str, Any]


def measure_load(server: Server, schedule: Sequence[loadgen.Request], writer=None) -> LoadPhase:
    """Run the schedule (and the writer, if any) and read the server's own counters."""
    server_cpu = process_cpu_seconds(server.pid)
    children_cpu = _children_cpu_seconds()
    start = time.perf_counter() + 0.1
    errors: List[BaseException] = []
    thread = None
    if writer is not None:
        def guarded() -> None:
            try:
                writer(start)
            except BaseException as exc:  # re-raised on the main thread below
                errors.append(exc)
        thread = threading.Thread(target=guarded, name="writer")
        thread.start()
    outcomes = loadgen.run_open_loop(server.port, schedule, start)
    if thread is not None:
        thread.join()
    end = time.perf_counter()
    if errors:
        raise errors[0]
    server_cpu = process_cpu_seconds(server.pid) - server_cpu
    children_cpu = _children_cpu_seconds() - children_cpu
    peak = process_hwm_mb(server.pid)
    conn = loadgen.connect(server.port)
    snapshot = loadgen.get_json(conn, "/metrics")
    conn.close()
    return LoadPhase(outcomes, (start, end), server_cpu, children_cpu, peak, snapshot)


def _answered_latencies(phase: LoadPhase) -> List[float]:
    return [o.latency for o in phase.outcomes if o.status == 200]


def _serve_end_to_end(setup_s: float, phase: LoadPhase) -> Dict[str, float]:
    latencies = _answered_latencies(phase)
    return {
        "setup_s": setup_s,
        "latency_p50_ms": median(latencies) * 1e3,
        "cpu_ms_per_op": phase.server_cpu_s / len(latencies) * 1e3,
        "peak_rss_mb": phase.peak_rss_mb,
    }


def _topk_reference(u: np.ndarray, v: np.ndarray, mask, user: int, n: int) -> List[int]:
    """Top-n items by (score desc, index asc) with the user's training edges masked."""
    scores = v @ u[user]
    scores[mask.indices[mask.indptr[user]:mask.indptr[user + 1]]] = -np.inf
    order = np.lexsort((np.arange(scores.size), -scores))
    return order[:n].tolist()


def _sample(outcomes: Sequence[loadgen.Outcome], klass: str, count: int,
            seed: int) -> List[loadgen.Outcome]:
    pool = [o for o in outcomes if o.status == 200 and o.request.klass == klass]
    if len(pool) <= count:
        return pool
    picks = inputs.rng(seed, inputs.SAMPLE, len(pool)).choice(len(pool), size=count, replace=False)
    return [pool[i] for i in sorted(picks.tolist())]


def _responses(sampled: Sequence[loadgen.Outcome], answers,
               reloads: Sequence[Tuple[float, float]] = ()):
    """(request body, response payload, overlapped a reload) of sampled and warm-up answers."""
    def overlaps(o: loadgen.Outcome) -> bool:
        return any(o.sent <= end and o.done >= start for start, end in reloads)

    return [(json.loads(o.request.body), json.loads(o.payload), overlaps(o)) for o in sampled] + [
        (body, payload, False) for body, payload in answers
    ]


def run_serve_topk(seed: int, seconds: float, size: Dict[str, Any], ctx: Context) -> WorkloadResult:
    cache_dir, digests = inputs.topk_inputs(ctx.cache, seed, size)
    schedule = inputs.topk_schedule(seed, size, seconds)
    warmups = [("/v1/topk", {"user": 0, "deadline_ms": size["deadline_ms"]})]
    server, setup_s, answers = set_up(ctx, cache_dir / "store", "topk", warmups, size["spawns"])
    try:
        phase = measure_load(server, schedule)
    finally:
        server.stop()

    u, v, mask = inputs.topk_arrays(seed, size)
    wrong = []
    sampled = _sample(phase.outcomes, "topk", size["samples"], seed)
    for body, payload, _ in _responses(sampled, answers):
        items = payload["items"][0]
        if items != _topk_reference(u, v, mask, body["user"], len(items)):
            wrong.append(body["user"])
    checks = [check("sampled /v1/topk lists equal the numpy reference", not wrong,
                    {"mismatched_users": wrong})]
    failed = sum(1 for o in phase.outcomes if o.status != 200)
    out = WorkloadResult(_serve_end_to_end(setup_s, phase), len(phase.outcomes), failed, checks,
                         digests, notes={"requests": len(schedule),
                                         "server_cpu_s": phase.server_cpu_s,
                                         **_tail_note(_answered_latencies(phase))})
    if ctx.trace:
        dump = ctx.dump(server.trace_name)
        out.roles = {"serve": [dump]}
        out.observed = layers.Observed([dump], phase.window, len(phase.outcomes) - failed,
                                       phase.outcomes, phase.service_metrics)
    return out


def _mixed_warmups(size: Dict[str, Any]) -> List[Tuple[str, Dict[str, Any]]]:
    deadline = {"deadline_ms": size["deadline_ms"]}
    return [
        ("/v1/topk", {"user": 0, **deadline}),
        ("/v1/topk", {"users": list(range(16)), **deadline}),
        ("/v1/similar", {"source": 0, "side": "u", "mode": "mhp", **deadline}),
        ("/v1/similar", {"source": 0, "side": "v", "mode": "mhs", **deadline}),
    ]


def _check_mixed(store: Path, answered) -> Tuple[List[Dict[str, Any]], list]:
    """Top-k against numpy and similarity against the offline engine, per served version.

    A batched answer names the version being served when it is sent, not
    the one that scored it, so an answer that overlapped a reload may carry
    the lists of the version before the one it names.  Such answers pass
    and are returned separately; every other answer must equal the
    reference of the version it names.
    """
    from repro.core.pmf import PoissonPMF
    from repro.serve import ArtifactStore
    from repro.tasks.similarity import SimilarityEngine, transposed_graph

    artifacts = ArtifactStore(store)
    models: Dict[int, Any] = {}
    engines: Dict[Tuple[int, str], Any] = {}

    def expected(version: int, body: Dict[str, Any], payload: Dict[str, Any]) -> List[List[int]]:
        if version not in models:
            models[version] = artifacts.load("mixed", version)
        model = models[version]
        n = len(payload["items"][0])
        if "sources" in payload:
            if (version, body["side"]) not in engines:
                graph = model.graph if body["side"] == "u" else transposed_graph(model.graph)
                # The service's measure: Poisson(1), tau = 5, "sym" weights.
                engines[version, body["side"]] = SimilarityEngine(
                    graph, PoissonPMF(lam=1.0), 5, normalization="sym"
                )
            engine = engines[version, body["side"]]
            items, _ = engine.query(payload["sources"], n, mode=body["mode"])
            return items.tolist()
        u, v = np.asarray(model.u), np.asarray(model.v)
        return [_topk_reference(u, v, model.graph.w, user, n) for user in payload["users"]]

    wrong: Dict[str, list] = {"topk": [], "similar": []}
    previous = []
    for body, payload, overlapped in answered:
        version = int(payload["model"].rsplit("@v", 1)[1])
        kind = "similar" if "sources" in payload else "topk"
        if payload["items"] == expected(version, body, payload):
            continue
        if overlapped and version > 1 and payload["items"] == expected(version - 1, body, payload):
            previous.append((payload["model"], body))
            continue
        wrong[kind].append((payload["model"], body, payload["items"]))
    checks = [
        check("sampled /v1/topk lists equal the numpy reference of the version served",
              not wrong["topk"], {"mismatched": wrong["topk"]}),
        check("sampled /v1/similar lists equal the offline SimilarityEngine of the version served",
              not wrong["similar"], {"mismatched": wrong["similar"]}),
    ]
    return checks, previous


def run_serve_mixed(seed: int, seconds: float, size: Dict[str, Any],
                    ctx: Context) -> WorkloadResult:
    from repro.serve import ArtifactStore

    cache_dir, digests = inputs.mixed_inputs(ctx.cache, seed, size)
    store = ctx.work / "store"
    shutil.copytree(cache_dir / "store", store)  # refreshes publish into it
    schedule = inputs.mixed_schedule(seed, size, seconds)
    server, setup_s, answers = set_up(ctx, store, "mixed", _mixed_warmups(size), size["spawns"])
    cycles: List[Dict[str, float]] = []

    def writer(start: float) -> None:
        """Every seconds/(cycles+1): delta log on disk -> repro refresh -> /admin/reload."""
        conn = loadgen.connect(server.port)
        try:
            for i in range(size["cycles"]):
                due = start + (i + 1) * seconds / (size["cycles"] + 1)
                time.sleep(max(0.0, due - time.perf_counter()))
                latest = ArtifactStore(store).load("mixed", verify=False)
                log_path = ctx.work / f"delta-{i}.jsonl"
                inputs.reweight_log(latest.graph, seed, i, size["reweight"]).save(log_path)
                started = time.perf_counter()
                args = [str(log_path), "--store", str(store), "--name", "mixed",
                        "--seed", str(seed)]
                proc = ctx.launch("refresh", f"refresh-{i}", args)
                wait(proc, CHILD_TIMEOUT_S, ctx, f"refresh-{i}")
                reload_start = time.perf_counter()
                status, payload = loadgen.post_json(conn, "/admin/reload", {})
                if status != 200:
                    raise RuntimeError(f"/admin/reload answered {status}: {payload}")
                cycles.append(
                    {"start": started, "reload_start": reload_start, "end": time.perf_counter()}
                )
        finally:
            conn.close()

    try:
        phase = measure_load(server, schedule, writer)
    finally:
        server.stop()

    sampled = [
        outcome for klass, _ in inputs.MIXED_CLASSES
        for outcome in _sample(phase.outcomes, klass, size["samples"], seed)
    ]
    reloads = [(c["reload_start"], c["end"]) for c in cycles]
    checks, previous = _check_mixed(store, _responses(sampled, answers, reloads))
    failed = sum(1 for o in phase.outcomes if o.status != 200)
    out = WorkloadResult(_serve_end_to_end(setup_s, phase), len(phase.outcomes), failed, checks,
                         digests, model_versions=1 + len(cycles),
                         notes={"requests": len(schedule), "server_cpu_s": phase.server_cpu_s,
                                **_tail_note(_answered_latencies(phase)),
                                "refresh_cpu_s": phase.children_cpu_s,
                                "refresh_cycle_s": [c["end"] - c["start"] for c in cycles],
                                "answered_by_previous_version": previous})
    if ctx.trace:
        refreshes = [ctx.dump(f"refresh-{i}") for i in range(len(cycles))]
        serve = ctx.dump(server.trace_name)
        out.roles = {"serve": [serve], "refresh": refreshes}
        out.observed = layers.Observed([serve, *refreshes], phase.window,
                                       len(phase.outcomes) - failed, phase.outcomes,
                                       phase.service_metrics, cycles)
    return out


RUNNERS = {
    "fit-tall": lambda seed, seconds, size, ctx: run_fit("fit-tall", seed, seconds, size, ctx),
    "fit-dense": lambda seed, seconds, size, ctx: run_fit("fit-dense", seed, seconds, size, ctx),
    "serve-topk": run_serve_topk,
    "serve-mixed-refresh": run_serve_mixed,
}


def trace_coverage(workload: str, roles: Dict[str, List[Dict[str, Any]]]) -> Dict[str, Any]:
    """The expected call sites that no traced process of the workload reached."""
    missing = {}
    for role, expected in EXPECTED_SITES[workload].items():
        fired = set().union(*(set(dump["fired"]) for dump in roles.get(role, [])))
        if expected - fired:
            missing[role] = sorted(expected - fired)
    return missing


def run(workload: str, seed: int, seconds: float, ctx: Context,
        size: Optional[Dict[str, Any]] = None) -> WorkloadResult:
    """Run one workload; ``size`` overrides :data:`SIZES` (the tests pass tiny ones)."""
    shutil.rmtree(ctx.work, ignore_errors=True)
    (ctx.work / "tmp").mkdir(parents=True)
    result = RUNNERS[workload](seed, seconds, size or SIZES[workload], ctx)
    if ctx.trace:
        missing = trace_coverage(workload, result.roles)
        if missing:
            raise RuntimeError(f"traced run reached no call of {missing}")
    return result

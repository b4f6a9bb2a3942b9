"""Per-layer metrics, computed from span dumps, load-generator outcomes and /metrics.

A layer is a module of the program.  Each metric is one of three kinds:

* **per op** — total over the measurement window divided by the
  workload's operations (fits on fit-*, answered requests on serve-*);
* **per event** — the median over the calls of a lifecycle step (an
  ingest, a load, a reload, a refresh, a diagonal probe), wherever it ran;
* **p50 / p95 per call** in milliseconds for the request path.

A metric whose layer a workload never exercises reads 0 on that workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from loadgen import Outcome
from measure import percentile
from trace import ATTRS, BENCH_ID, END, NAME, PARENT, START, THREAD, self_times


@dataclass
class Span:
    name: str
    start: float
    end: float
    thread: Tuple[int, int]  # (dump, thread id): threads of different processes differ
    bench_id: Any
    attrs: Dict[str, Any]
    self_s: float
    key: Tuple[int, int]  # (dump, index)
    parent: Optional[Tuple[int, int]]

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Observed:
    """Everything one traced run measured, as the metric functions read it."""

    dumps: List[Dict[str, Any]]
    window: Tuple[float, float]
    ops: int
    outcomes: List[Outcome] = field(default_factory=list)
    service_metrics: Dict[str, Any] = field(default_factory=dict)
    cycles: List[Dict[str, float]] = field(default_factory=list)
    spans: List[Span] = field(init=False)

    def __post_init__(self) -> None:
        self.spans = []
        for d, dump in enumerate(self.dumps):
            records = dump["spans"]
            selfs = self_times(records)
            for i, record in enumerate(records):
                if record[END] is None:
                    continue
                parent = record[PARENT]
                self.spans.append(Span(
                    record[NAME], record[START], record[END], (d, record[THREAD]), record[BENCH_ID],
                    record[ATTRS], selfs[i], (d, i), None if parent is None else (d, parent),
                ))

    def named(self, name: str, *, in_window: bool = False) -> List[Span]:
        lo, hi = self.window
        return [
            s for s in self.spans
            if s.name == name and (not in_window or (s.start >= lo and s.end <= hi))
        ]

    def per_op(self, name: str, value: Callable[[Span], float]) -> float:
        return sum(value(s) for s in self.named(name, in_window=True)) / max(1, self.ops)


def _median(values: Sequence[float]) -> float:
    return percentile(values, 50) if values else 0.0


def _ms(values: Sequence[float], q: float) -> float:
    return percentile(values, q) * 1e3 if values else 0.0


def _median_event(obs: Observed, name: str) -> float:
    return _median([s.seconds for s in obs.named(name)])


def _call_p50_ms(obs: Observed, name: str) -> float:
    return _ms([s.seconds for s in obs.named(name, in_window=True)], 50)


def _diagonal_probes(obs: Observed) -> List[Span]:
    """h_diagonal calls that computed the diagonal (cached calls run no PMF apply)."""
    probing = {s.parent for s in obs.spans if s.name == "linalg.kernels.pmf_apply"}
    return [s for s in obs.named("tasks.similarity.h_diagonal") if s.key in probing]


def _handlers(obs: Observed) -> Dict[Any, Span]:
    handlers = obs.named("serve.server.handler", in_window=True)
    return {s.bench_id: s for s in handlers if s.bench_id is not None}


def _batcher_waits(obs: Observed) -> List[float]:
    """Handler time minus the batch's scoring time, for batched single-user top-k."""
    singles = {o.request.bench_id for o in obs.outcomes if o.request.klass == "topk"}
    direct = {s.parent for s in obs.named("serve.service.top_items")}
    scoring = obs.named("serve.service.top_items")
    waits = []
    for bench_id, handler in _handlers(obs).items():
        if bench_id not in singles or handler.key in direct:
            continue
        inside = [
            s for s in scoring
            if s.start >= handler.start and s.end <= handler.end and s.thread != handler.thread
        ]
        if inside:
            batch = max(inside, key=lambda s: s.end)
            waits.append(handler.seconds - batch.seconds)
    return waits


def _transport(obs: Observed) -> List[float]:
    """Client round trip minus server handler time, joined by bench_id."""
    handlers = _handlers(obs)
    return [
        (o.done - o.sent) - handlers[o.request.bench_id].seconds
        for o in obs.outcomes
        if o.status == 200 and o.request.bench_id in handlers
    ]


def _counter(obs: Observed, name: str) -> float:
    return float(obs.service_metrics.get("counters", {}).get(name, 0))


def _batch_size(obs: Observed) -> float:
    batches = _counter(obs, "batches")
    return _counter(obs, "batched_requests") / batches if batches else 0.0


def _warm_fraction(obs: Observed) -> float:
    calls = obs.named("linalg.refresh.refresh_svd")
    return sum(1 for s in calls if s.attrs.get("warm")) / len(calls) if calls else 0.0


def _edges_per_s(obs: Observed) -> float:
    ingests = obs.named("graph.ingest.build_graph_store")
    return _median([s.attrs["edges_read"] / s.seconds for s in ingests])


def _candidates_per_request(obs: Observed) -> float:
    topk_requests = sum(1 for o in obs.outcomes if o.status == 200 and o.request.path == "/v1/topk")
    scored = obs.named("tasks.topk.iter_top_items", in_window=True)
    total = sum(s.attrs["candidates"] for s in scored)
    return total / topk_requests if topk_requests else 0.0


def _loadgen(obs: Observed, status: Optional[bool]) -> float:
    if status is None:
        return float(len(obs.outcomes))
    return float(sum(1 for o in obs.outcomes if (o.status == 200) == status))


#: (name, unit, better, value) for every per-layer metric, in BENCHMARK.json order.
PER_LAYER: Tuple[Tuple[str, str, str, Callable[[Observed], float]], ...] = (
    ("graph.ingest.build_graph_store_s", "s", "lower",
     lambda o: _median_event(o, "graph.ingest.build_graph_store")),
    ("graph.ingest.edges_per_s", "1/s", "higher", _edges_per_s),
    ("graph.store.resident_graph_s", "s", "lower",
     lambda o: _median_event(o, "graph.store.resident_graph")),
    ("graph.store.ooc_bytes_copied", "bytes", "lower",
     lambda o: o.per_op("core.gebe_p.fit", lambda s: s.attrs["ooc_bytes_copied"])),
    ("core.preprocess.normalize_weights_s", "s", "lower",
     lambda o: _median_event(o, "core.preprocess.normalize_weights")),
    ("core.gebe_p.fit_s", "s", "lower", lambda o: _median_event(o, "core.gebe_p.fit")),
    ("core.gebe_p.project_s", "s", "lower",
     lambda o: _median([s.attrs["project_s"] for s in o.named("core.gebe_p.fit")])),
    ("linalg.randomized_svd.self_s", "s", "lower",
     lambda o: _median([s.self_s for s in o.named("linalg.randomized_svd")])),
    ("linalg.qr.thin_qr_s", "s", "lower",
     lambda o: o.per_op("linalg.qr.thin_qr", lambda s: s.seconds)),
    ("linalg.qr.calls", "count", "lower", lambda o: o.per_op("linalg.qr.thin_qr", lambda s: 1)),
    ("linalg.qr.flops", "flop", "lower",
     lambda o: o.per_op("linalg.qr.thin_qr", lambda s: s.attrs["flops"])),
    ("linalg.kernels.sparse_matmul_s", "s", "lower",
     lambda o: o.per_op("linalg.kernels.sparse_matmul", lambda s: s.seconds)),
    ("linalg.kernels.matvecs", "count", "lower",
     lambda o: o.per_op("linalg.kernels.sparse_matmul", lambda s: s.attrs["matvecs"])),
    ("linalg.kernels.bytes_moved", "bytes", "lower",
     lambda o: o.per_op("linalg.kernels.sparse_matmul", lambda s: s.attrs["bytes_moved"])),
    ("linalg.kernels.pmf_apply_s", "s", "lower",
     lambda o: o.per_op("linalg.kernels.pmf_apply", lambda s: s.seconds)),
    ("linalg.kernels.pmf_apply_calls", "count", "lower",
     lambda o: o.per_op("linalg.kernels.pmf_apply", lambda s: 1)),
    ("linalg.refresh.refresh_svd_s", "s", "lower",
     lambda o: _median_event(o, "linalg.refresh.refresh_svd")),
    ("linalg.refresh.warm_fraction", "ratio", "higher", _warm_fraction),
    ("graph.delta.apply_deltas_s", "s", "lower",
     lambda o: _median_event(o, "graph.delta.apply_deltas")),
    ("serve.artifacts.publish_s", "s", "lower",
     lambda o: _median_event(o, "serve.artifacts.publish")),
    ("serve.artifacts.publish_bytes", "bytes", "lower",
     lambda o: _median([s.attrs["bytes"] for s in o.named("serve.artifacts.publish")])),
    ("serve.artifacts.load_s", "s", "lower", lambda o: _median_event(o, "serve.artifacts.load")),
    ("serve.service.top_items_ms", "ms", "lower",
     lambda o: _call_p50_ms(o, "serve.service.top_items")),
    ("serve.service.similar_ms", "ms", "lower", lambda o: _call_p50_ms(o, "serve.service.similar")),
    ("serve.service.reload_s", "s", "lower", lambda o: _median_event(o, "serve.service.reload")),
    ("tasks.topk.iter_top_items_ms", "ms", "lower",
     lambda o: _call_p50_ms(o, "tasks.topk.iter_top_items")),
    ("tasks.topk.candidates_per_request", "count", "lower", _candidates_per_request),
    ("core.selection.select_topn_ms", "ms", "lower",
     lambda o: _call_p50_ms(o, "core.selection.select_topn")),
    ("tasks.similarity.h_diagonal_s", "s", "lower",
     lambda o: _median([s.seconds for s in _diagonal_probes(o)])),
    ("tasks.similarity.h_diagonal_calls", "count", "lower",
     lambda o: float(len(_diagonal_probes(o)))),
    ("tasks.similarity.query_ms", "ms", "lower",
     lambda o: _call_p50_ms(o, "tasks.similarity.query")),
    ("serve.batcher.batch_size_mean", "count", "higher", _batch_size),
    ("serve.batcher.wait_ms", "ms", "lower", lambda o: _ms(_batcher_waits(o), 50)),
    ("serve.server.handler_p50_ms", "ms", "lower",
     lambda o: _ms([s.seconds for s in _handlers(o).values()], 50)),
    ("serve.server.handler_p95_ms", "ms", "lower",
     lambda o: _ms([s.seconds for s in _handlers(o).values()], 95)),
    ("serve.server.transport_ms", "ms", "lower", lambda o: _ms(_transport(o), 50)),
    ("serve.server.shed", "count", "lower", lambda o: _counter(o, "shed")),
    ("serve.server.deadline_exceeded", "count", "lower",
     lambda o: _counter(o, "deadline_exceeded")),
    ("serve.server.errors", "count", "lower", lambda o: _counter(o, "errors")),
    ("loadgen.lateness_p95_ms", "ms", "lower", lambda o: _ms([x.lateness for x in o.outcomes], 95)),
    ("loadgen.sent", "count", "higher", lambda o: _loadgen(o, None)),
    ("loadgen.succeeded", "count", "higher", lambda o: _loadgen(o, True)),
    ("loadgen.failed", "count", "lower", lambda o: _loadgen(o, False)),
    ("loadgen.refresh_cycle_s", "s", "lower",
     lambda o: _median([c["end"] - c["start"] for c in o.cycles])),
)


def per_layer(obs: Observed) -> Dict[str, float]:
    return {name: float(value(obs)) for name, _, _, value in PER_LAYER}


def attributions(workload: str, layers: Dict[str, float], end_to_end: Dict[str, float],
                 model_versions: int) -> List[Dict[str, Any]]:
    """Where the time goes, as the baseline trace showed it; reported, not gated.

    These describe the program as it is; an optimisation is expected to
    break some of them.
    """
    fit_s = layers["core.gebe_p.fit_s"]
    claims: List[Tuple[str, float, bool]] = []

    def share(part: str, whole: str, value: float, at_least: bool, limit: float) -> None:
        sign = ">=" if at_least else "<="
        holds = value >= limit if at_least else value <= limit
        claims.append((f"{part} share of {whole} {sign} {limit:.2f}", value, holds))

    if workload == "fit-tall":
        qr = layers["linalg.qr.thin_qr_s"] / fit_s
        share("linalg.qr.thin_qr_s", "core.gebe_p.fit_s", qr, True, 0.70)
    if workload == "fit-dense":
        qr = layers["linalg.qr.thin_qr_s"] / fit_s
        share("linalg.qr.thin_qr_s", "core.gebe_p.fit_s", qr, False, 0.40)
        matmul = layers["linalg.kernels.sparse_matmul_s"] / fit_s
        share("linalg.kernels.sparse_matmul_s", "core.gebe_p.fit_s", matmul, True, 0.50)
    if workload == "serve-topk":
        handler = layers["serve.server.handler_p50_ms"] / end_to_end["latency_p50_ms"]
        share("serve.server.handler_p50_ms", "latency_p50_ms", handler, True, 0.50)
    if workload == "serve-mixed-refresh":
        calls = layers["tasks.similarity.h_diagonal_calls"]
        claims.append((
            f"tasks.similarity.h_diagonal_calls == 2 sides x {model_versions} model versions",
            calls, calls == 2 * model_versions,
        ))
    copied = layers["graph.store.ooc_bytes_copied"]
    if workload == "fit-dense":
        claims.append(("graph.store.ooc_bytes_copied > 0", copied, copied > 0))
    else:
        claims.append(("graph.store.ooc_bytes_copied == 0", copied, copied == 0))
    return [{"claim": claim, "value": value, "holds": holds} for claim, value, holds in claims]

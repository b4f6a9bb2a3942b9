"""Outside-in span tracing of the program, installed from the benchmark's files.

Nothing under ``src/`` knows about this module.  :meth:`Tracer.install`
replaces the program's call sites with timing wrappers: a function is
replaced in the module that *calls* it (``from x import y`` binds ``y``
into the caller's namespace at import time, so patching ``x.y`` alone would
miss it), and a method is replaced on its class.  Note that
``repro.linalg.randomized_svd`` as an attribute resolves to the function
of that name, so modules are always looked up in ``sys.modules``.

A span records ``name, start, end, parent, thread, bench_id, attrs``.
Spans live in memory and are written out once, by :meth:`Tracer.dump`, when
the traced process ends.  ``bench_id`` is read from the request body by the
HTTP handler wrappers and inherited by every span opened under them on the
same thread, which lets the benchmark join server spans to the requests it
sent.  All times are ``time.perf_counter()`` seconds, which on Linux is the
system-wide monotonic clock, so spans from several processes share one
time axis with the load generator.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

# Span record layout (a list, mutated in place while the span is open).
NAME, START, END, PARENT, THREAD, BENCH_ID, ATTRS = range(7)

AttrFn = Optional[Callable[..., Dict[str, Any]]]


def _kernel_attrs(kernel, block, *args, **kwargs) -> Dict[str, Any]:
    """Matvec count and computed bytes moved by one sparse apply.

    Bytes are computed, not measured: the CSR arrays read once plus the
    dense input and output blocks, ``nnz * (8 + index bytes) + indptr +
    cols * (|U| + |V|) * 8``.
    """
    w = kernel.w
    cols = 1 if getattr(block, "ndim", 2) == 1 else int(block.shape[1])
    rows, columns = w.shape
    index_bytes = w.indices.dtype.itemsize
    moved = (
        w.nnz * (8 + index_bytes)
        + (rows + 1) * w.indptr.dtype.itemsize
        + cols * (rows + columns) * 8
    )
    return {"matvecs": cols, "bytes_moved": int(moved)}


def _qr_attrs(block, *args, **kwargs) -> Dict[str, Any]:
    """QR flops, computed as ``4 m n^2`` (Householder factor plus forming Q)."""
    m, n = block.shape
    return {"flops": 4 * int(m) * int(n) * int(n)}


def _topk_attrs(engine, n, *args, users=None, **kwargs) -> Dict[str, Any]:
    count = engine.num_users if users is None else len(users)
    return {"candidates": int(count) * int(engine.num_items)}


def _publish_result(ref, *args, **kwargs) -> Dict[str, Any]:
    written = sum(p.stat().st_size for p in Path(ref.path).iterdir() if p.is_file())
    return {"bytes": int(written)}


def _ingest_result(result, *args, **kwargs) -> Dict[str, Any]:
    return {"edges_read": int(result[1].edges_read)}


def _refresh_result(result, *args, **kwargs) -> Dict[str, Any]:
    return {"warm": result[1].mode == "warm"}


#: Every traced call site: (module, attribute, span name, kind, attrs-from-
#: arguments, attrs-from-result).  ``kind`` is ``call``, ``generator``,
#: ``handler`` (an HTTP endpoint whose body carries ``bench_id``) or ``fit``
#: (a fit, run under an obs collector so the stage tree and the
#: out-of-core staging counter can be read off it).
CALL_SITES: Tuple[Tuple[str, str, str, str, AttrFn, AttrFn], ...] = (
    ("repro.graph.ingest", "build_graph_store", "graph.ingest.build_graph_store", "call",
     None, _ingest_result),
    ("repro.graph.store", "GraphStore.resident_graph", "graph.store.resident_graph", "call",
     None, None),
    ("repro.core.gebe_p", "GEBEPoisson.fit", "core.gebe_p.fit", "fit", None, None),
    ("repro.core.gebe_p", "normalize_weights", "core.preprocess.normalize_weights", "call",
     None, None),
    ("repro.tasks.similarity", "normalize_weights", "core.preprocess.normalize_weights", "call",
     None, None),
    ("repro.core.gebe_p", "randomized_svd", "linalg.randomized_svd", "call", None, None),
    ("repro.linalg.refresh", "randomized_svd", "linalg.randomized_svd", "call", None, None),
    ("repro.core.gebe_p", "refresh_svd", "linalg.refresh.refresh_svd", "call",
     None, _refresh_result),
    ("repro.linalg.randomized_svd", "thin_qr", "linalg.qr.thin_qr", "call", _qr_attrs, None),
    ("repro.linalg.kernels", "SparseKernel.matmul", "linalg.kernels.sparse_matmul", "call",
     _kernel_attrs, None),
    ("repro.linalg.kernels", "SparseKernel.t_matmul", "linalg.kernels.sparse_matmul", "call",
     _kernel_attrs, None),
    ("repro.linalg.kernels", "GramKernel.pmf_apply", "linalg.kernels.pmf_apply", "call",
     None, None),
    # `repro refresh` imports apply_deltas from the package inside the
    # command function, i.e. at call time.
    ("repro.graph", "apply_deltas", "graph.delta.apply_deltas", "call", None, None),
    ("repro.serve.artifacts", "ArtifactStore.publish", "serve.artifacts.publish", "call",
     None, _publish_result),
    ("repro.serve.artifacts", "ArtifactStore.load", "serve.artifacts.load", "call", None, None),
    ("repro.serve.service", "EmbeddingService.top_items", "serve.service.top_items", "call",
     None, None),
    ("repro.serve.service", "EmbeddingService.similar", "serve.service.similar", "call",
     None, None),
    ("repro.serve.service", "EmbeddingService.reload", "serve.service.reload", "call", None, None),
    ("repro.tasks.topk", "TopKEngine.iter_top_items", "tasks.topk.iter_top_items", "generator",
     _topk_attrs, None),
    ("repro.tasks.topk", "select_topn", "core.selection.select_topn", "call", None, None),
    ("repro.tasks.similarity", "select_topn", "core.selection.select_topn", "call", None, None),
    ("repro.tasks.similarity", "SimilarityEngine.h_diagonal", "tasks.similarity.h_diagonal", "call",
     None, None),
    ("repro.tasks.similarity", "SimilarityEngine.query", "tasks.similarity.query", "call",
     None, None),
    ("repro.serve.server", "EmbeddingServer.handle_topk", "serve.server.handler", "handler",
     None, None),
    ("repro.serve.server", "EmbeddingServer.handle_similar", "serve.server.handler", "handler",
     None, None),
)


def site_id(module: str, attribute: str) -> str:
    return f"{module}:{attribute}"


ALL_SITES = frozenset(site_id(m, a) for m, a, *_ in CALL_SITES)


class Tracer:
    """Collects spans from every thread of one process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.fired: set = set()
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- recording ---------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, attrs: Optional[Dict[str, Any]] = None) -> Tuple[list, int]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        bench_id = self.spans[parent][BENCH_ID] if parent is not None else None
        record = [
            name, time.perf_counter(), None, parent, threading.get_ident(), bench_id, attrs or {}
        ]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        return record, index

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()
        elif index in stack:  # a generator closed out of order
            stack.remove(index)

    # -- wrappers ----------------------------------------------------------
    def _wrap(self, fn, site: str, name: str, kind: str, attrs: AttrFn, result_attrs: AttrFn):
        tracer = self

        if kind == "generator":

            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                tracer.fired.add(site)
                record, index = tracer.open(name, attrs(*args, **kwargs) if attrs else None)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    tracer.close(index)

            return generator_wrapper

        if kind == "handler":

            @functools.wraps(fn)
            def handler_wrapper(server, read_json):
                tracer.fired.add(site)
                record, index = tracer.open(name)

                def read_and_tag():
                    body = read_json()
                    record[BENCH_ID] = body.get("bench_id")
                    return body

                try:
                    return fn(server, read_and_tag)
                finally:
                    tracer.close(index)

            return handler_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.fired.add(site)
            record, index = tracer.open(name, attrs(*args, **kwargs) if attrs else None)
            try:
                if kind == "fit":
                    result = _fit_under_collector(fn, record, args, kwargs)
                else:
                    result = fn(*args, **kwargs)
                if result_attrs is not None:
                    record[ATTRS].update(result_attrs(result, *args, **kwargs))
                return result
            finally:
                tracer.close(index)

        return wrapper

    def install(self) -> None:
        """Replace every call site of :data:`CALL_SITES` with its wrapper."""
        for module_name, attribute, name, kind, attrs, result_attrs in CALL_SITES:
            module = importlib.import_module(module_name)
            owner = module
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            site = site_id(module_name, attribute)
            setattr(owner, leaf, self._wrap(original, site, name, kind, attrs, result_attrs))

    # -- output ------------------------------------------------------------
    def dump(self, path: str) -> None:
        with self._lock:
            spans = [list(record) for record in self.spans]
        payload = {"fired": sorted(self.fired), "spans": spans}
        Path(path).write_text(json.dumps(payload), encoding="utf-8")


def _fit_under_collector(fn, record: list, args, kwargs):
    """Run one fit under an obs collector and copy its layer numbers onto the span."""
    from repro import obs

    with obs.collect() as collector:
        result = fn(*args, **kwargs)
    project = collector.timer.flatten().get("gebe_p/project")
    record[ATTRS].update(
        project_s=project.seconds if project is not None else 0.0,
        ooc_bytes_copied=int(collector.ooc_bytes_copied),
    )
    return result


def load_dump(path: Path) -> Dict[str, Any]:
    """Read a span dump written by :meth:`Tracer.dump`."""
    return json.loads(Path(path).read_text(encoding="utf-8"))


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the time its same-thread children cover.

    Children of one span on its own thread never overlap each other (a
    thread runs one call at a time), so their durations simply add up.
    """
    child_time = [0.0] * len(spans)
    for record in spans:
        parent = record[PARENT]
        if parent is None or record[END] is None:
            continue
        if spans[parent][THREAD] == record[THREAD]:
            child_time[parent] += record[END] - record[START]
    return [
        (record[END] - record[START]) - child_time[i] if record[END] is not None else 0.0
        for i, record in enumerate(spans)
    ]

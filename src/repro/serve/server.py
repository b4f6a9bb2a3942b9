"""A stdlib HTTP front end for the embedding service.

No framework, no dependency: a ``ThreadingHTTPServer`` whose handler talks
JSON to :class:`~repro.serve.service.EmbeddingService`.  Endpoints::

    POST /v1/topk       {"user": 3}                      -> one user (micro-batched)
                        {"users": [0, 1, 2], "n": 10,
                         "with_scores": true,
                         "exclude": true,
                         "deadline_ms": 50}              -> many users (inline)
    POST /v1/similar    {"source": 3}                    -> one source (micro-batched)
                        {"sources": [0, 1, 2], "n": 10,
                         "side": "u", "mode": "mhs",
                         "with_scores": true,
                         "deadline_ms": 50}              -> many sources (inline)
    GET  /healthz       liveness + the served artifact tag
    GET  /metrics       ServiceMetrics snapshot + queue/batcher gauges
    POST /admin/reload  {"version": 2}  (omit for latest) -> hot swap

Routes live in the declarative :data:`ROUTES` table — one
:class:`Route` row per (HTTP verb, path, handler method), so a new verb
registers by adding a row, not by editing the handler class.

Both read endpoints share one request path (:meth:`EmbeddingServer._answer`):
body fields, admission, deadline, answering and the reply.  A request
belongs to a *query class* — ``("topk", exclude)`` or ``("similar", side,
mode)`` — and one scoring function answers every class.  A single index
goes to the :class:`~repro.serve.batcher.MicroBatcher` of its class, built
on first use, so concurrent clients coalesce into blocked GEMMs or blocked
matrix-free applies.  Several indices already are a batch and score inline
on the handler thread; queued behind the batcher they would block the
single-index requests.  Either way the lists returned are element-identical
to the offline ``TopKEngine`` and
:class:`~repro.tasks.similarity.SimilarityEngine` paths — pinned end-to-end
by ``tests/test_serve_server.py``.  Graph-less artifacts answer
``/v1/similar`` with ``409`` and the republish hint.

Load-shedding is explicit and layered:

* **Admission** — at most ``max_queue`` requests are in flight; request
  ``max_queue + 1`` is answered ``429`` *immediately*, before any work.
* **Deadline** — every admitted request carries a deadline
  (``deadline_ms`` in the body, default from config; a finite positive
  number, else ``400``); a request that exceeds it — e.g. it sat behind a
  long batch — is answered ``503`` rather than returning data nobody is
  waiting for anymore.
"""

from __future__ import annotations

import functools
import json
import math
import threading
import time
from concurrent.futures import CancelledError
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from .artifacts import ArtifactError
from .batcher import BatcherClosed, MicroBatcher, QueueFull
from .service import EmbeddingService

__all__ = ["Route", "ROUTES", "ServerConfig", "EmbeddingServer"]

#: Request bodies larger than this are rejected outright (a top-k request
#: is a few hundred bytes; anything bigger is abuse or confusion).
MAX_BODY_BYTES = 1 << 20

#: The longest request deadline, in milliseconds: the longest timeout a
#: ``threading`` wait accepts (a batched request waits on its future).
MAX_DEADLINE_MS = threading.TIMEOUT_MAX * 1e3

#: What a request asks: ``("topk", exclude)`` or ``("similar", side, mode)``.
QueryClass = Tuple[Any, ...]

#: Service response keys that carry rows or the request; every other key
#: (``model``, and ``mode``/``nprobe`` or ``side``/``mode``) goes into the
#: reply as is.
_ROW_KEYS = frozenset({"users", "sources", "items", "scores", "n"})


@dataclass(frozen=True)
class Route:
    """One HTTP route: verb + path -> an :class:`EmbeddingServer` method."""

    verb: str
    path: str
    handler: str


#: The server's routing table.  do_GET/do_POST dispatch through this —
#: adding an endpoint means adding a row here plus its handler method on
#: :class:`EmbeddingServer`; the handler class body never changes.
ROUTES = (
    Route("GET", "/healthz", "handle_healthz"),
    Route("GET", "/metrics", "handle_metrics"),
    Route("POST", "/v1/topk", "handle_topk"),
    Route("POST", "/v1/similar", "handle_similar"),
    Route("POST", "/admin/reload", "handle_reload"),
)

_ROUTING: Dict[str, Dict[str, str]] = {}
for _route in ROUTES:
    _ROUTING.setdefault(_route.verb, {})[_route.path] = _route.handler


@dataclass(frozen=True)
class ServerConfig:
    """Knobs of one server instance (all load-shedding lives here).

    Attributes
    ----------
    host, port:
        Bind address; port ``0`` picks an ephemeral port (tests, smoke).
    max_queue:
        Admitted-requests bound; excess answered ``429`` immediately.
    deadline_ms:
        Default per-request deadline; ``503`` when exceeded.  Overridable
        per request via ``deadline_ms`` in the body.
    max_batch:
        Most single-index requests one micro-batch coalesces (see
        :class:`~repro.serve.batcher.MicroBatcher`).
    default_n:
        List length when a request does not say.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_queue: int = 64
    deadline_ms: float = 1000.0
    max_batch: int = 64
    default_n: int = 10

    def __post_init__(self) -> None:
        if self.max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {self.max_queue}")
        if self.deadline_ms <= 0:
            raise ValueError(
                f"deadline_ms must be positive, got {self.deadline_ms}"
            )
        # Batchers are built on first use; a bad size must fail here, not
        # as a 500 on the first request.
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.default_n < 0:
            raise ValueError(f"default_n must be >= 0, got {self.default_n}")


def _json_scores(rows) -> List[List[Optional[float]]]:
    """Score rows as JSON numbers, ``null`` where a score is not finite.

    ``-inf`` marks an excluded item (a training edge, or the source itself
    on ``/v1/similar``) that was listed because fewer than ``n`` others
    remain; JSON (RFC 8259) has no infinity, so it goes out as ``null``.
    """
    return [
        [float(s) if math.isfinite(s) else None for s in row] for row in rows
    ]


def _batcher_name(query_class: QueryClass) -> str:
    """A query class's ``/metrics`` key: ``topk``, ``topk/unmasked``, ``similar/u/mhs``."""
    if query_class[0] == "topk":
        return "topk" if query_class[1] else "topk/unmasked"
    return "/".join(query_class)


def _is_int(value: Any) -> bool:
    """A JSON integer: ``true``/``false`` parse as Python ints but are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _flag(body: Dict[str, Any], key: str, default: bool) -> bool:
    """A JSON boolean field; ``"false"`` or ``0`` is a 400, not a truthy value."""
    value = body.get(key, default)
    if not isinstance(value, bool):
        raise _HttpError(400, f"'{key}' must be true or false")
    return value


class _HttpError(Exception):
    """An error with an HTTP status; caught at the handler boundary."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class _Handler(BaseHTTPRequestHandler):
    """Routes requests into the owning :class:`EmbeddingServer`."""

    protocol_version = "HTTP/1.1"
    # TCP_NODELAY: a reply is two writes (headers, then body); with Nagle on,
    # a client that delays its ACKs stalls the body about 40 ms per answer.
    disable_nagle_algorithm = True
    server: "_ServeHTTPServer"

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        """Per-request stderr logging off: /metrics is the observability path."""

    def _reply(self, status: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            # The body is never read; drop the connection after replying so
            # the unread bytes are not misparsed as a pipelined request.
            self.close_connection = True
            raise _HttpError(413, f"body larger than {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise _HttpError(400, f"malformed JSON body: {exc}") from exc
        if not isinstance(payload, dict):
            raise _HttpError(400, "body must be a JSON object")
        return payload

    def _dispatch(self, routes: Dict[str, str]) -> None:
        owner = self.server.owner
        handler_name = routes.get(self.path)
        try:
            if handler_name is None:
                raise _HttpError(404, f"unknown path {self.path!r}")
            status, payload = getattr(owner, handler_name)(self._read_json)
            self._reply(status, payload)
        except _HttpError as exc:
            self._reply(exc.status, {"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 — the server must not die
            owner.service.metrics.count("errors")
            self._reply(500, {"error": f"{type(exc).__name__}: {exc}"})

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        self._dispatch(_ROUTING.get("GET", {}))

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        self._dispatch(_ROUTING.get("POST", {}))


class _ServeHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    owner: "EmbeddingServer"


class EmbeddingServer:
    """The long-lived process: service + batchers + HTTP front end.

    Usable as a context manager in-process (tests, ``repro serve --smoke``)
    or driven by :meth:`serve_forever` from the CLI.
    """

    def __init__(
        self, service: EmbeddingService, config: Optional[ServerConfig] = None
    ):
        self.service = service
        self.config = config if config is not None else ServerConfig()
        self._admission = threading.Semaphore(self.config.max_queue)
        # One micro-batcher per query class, built on the class's first
        # single-index request; closed for good once stop() begins.
        self._batchers: Dict[QueryClass, MicroBatcher] = {}
        self._batchers_lock = threading.Lock()
        self._stopping = False
        self._httpd = _ServeHTTPServer(
            (self.config.host, self.config.port), _Handler
        )
        self._httpd.owner = self
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — the real port even when 0 was asked."""
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "EmbeddingServer":
        """Serve on a background thread (returns immediately)."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-serve-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted (CLI mode)."""
        self._httpd.serve_forever()

    def stop(self) -> None:
        """Shut down the listener, drain the batchers, release sockets."""
        self._httpd.shutdown()
        self._httpd.server_close()
        with self._batchers_lock:
            self._stopping = True
            batchers = list(self._batchers.values())
        for batcher in batchers:
            batcher.close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "EmbeddingServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Scoring: one function for every query class
    # ------------------------------------------------------------------
    def _score(
        self,
        query_class: QueryClass,
        indices: np.ndarray,
        n: int,
        with_scores: bool = True,
    ) -> Tuple[np.ndarray, Optional[np.ndarray], Dict[str, Any]]:
        """``(items, scores, fields)`` for ``indices``; ``fields`` names the
        model that scored them (and the ANN or similarity fields)."""
        if query_class[0] == "topk":
            response = self.service.top_items(
                indices, n, with_scores=with_scores, exclude_train=query_class[1]
            )
        else:
            _, side, mode = query_class
            response = self.service.similar(
                indices, n, side=side, mode=mode, with_scores=with_scores
            )
        fields = {k: v for k, v in response.items() if k not in _ROW_KEYS}
        return response["items"], response.get("scores"), fields

    def _score_batch(
        self, query_class: QueryClass, indices: np.ndarray, n: int
    ) -> Tuple[np.ndarray, Optional[np.ndarray], Dict[str, Any]]:
        """The batcher's call (on its worker thread): counts each batch once."""
        scored = self._score(query_class, indices, n)
        self.service.metrics.count("batches")
        self.service.metrics.count("batched_requests", indices.size)
        return scored

    def _batcher(self, query_class: QueryClass) -> MicroBatcher:
        """The micro-batcher of ``query_class``, built on first use.

        Raises :class:`BatcherClosed` once :meth:`stop` has begun, so a
        request racing shutdown starts no new worker thread.
        """
        with self._batchers_lock:
            if self._stopping:
                raise BatcherClosed("server is stopping")
            batcher = self._batchers.get(query_class)
            if batcher is None:
                batcher = self._batchers[query_class] = MicroBatcher(
                    functools.partial(self._score_batch, query_class),
                    max_batch=self.config.max_batch,
                    max_queue=self.config.max_queue,
                )
            return batcher

    # ------------------------------------------------------------------
    # Endpoints (return (status, payload); raise _HttpError to shed)
    # ------------------------------------------------------------------
    def handle_healthz(self, read_json) -> Tuple[int, Dict[str, Any]]:
        return 200, {"status": "ok", "model": self.service.artifact.tag}

    def handle_metrics(self, read_json) -> Tuple[int, Dict[str, Any]]:
        snapshot = self.service.metrics.snapshot()
        snapshot["model"] = self.service.artifact.tag
        snapshot["quantize"] = self.service.quantize
        snapshot["bytes_resident"] = self.service.bytes_resident()
        snapshot["queue"]["max"] = self.config.max_queue
        with self._batchers_lock:
            batchers = dict(self._batchers)
        snapshot["batchers"] = {
            _batcher_name(query_class): {
                **batcher.stats.snapshot(),
                "depth": batcher.depth,
            }
            for query_class, batcher in batchers.items()
        }
        return 200, snapshot

    def handle_reload(self, read_json) -> Tuple[int, Dict[str, Any]]:
        body = read_json()
        version = body.get("version")
        if version is not None and not _is_int(version):
            raise _HttpError(400, "'version' must be an integer")
        try:
            previous, current = self.service.reload(version)
        except ValueError as exc:  # ArtifactError included
            raise _HttpError(409, f"reload failed: {exc}") from exc
        return 200, {"previous": previous, "current": current}

    def handle_topk(self, read_json) -> Tuple[int, Dict[str, Any]]:
        return self._answer(read_json, "user", "users", self._topk_class)

    def handle_similar(self, read_json) -> Tuple[int, Dict[str, Any]]:
        return self._answer(read_json, "source", "sources", self._similar_class)

    def _topk_class(self, body: Dict[str, Any]) -> Tuple[QueryClass, int]:
        return ("topk", _flag(body, "exclude", True)), self.service.num_users

    def _similar_class(self, body: Dict[str, Any]) -> Tuple[QueryClass, int]:
        side = body.get("side", "u")
        if side not in ("u", "v"):
            raise _HttpError(400, "'side' must be 'u' or 'v'")
        mode = body.get("mode", "mhs")
        if mode not in ("mhs", "mhp"):
            raise _HttpError(400, "'mode' must be 'mhs' or 'mhp'")
        bound = self.service.num_users if side == "u" else self.service.num_items
        return ("similar", side, mode), bound

    # ------------------------------------------------------------------
    # The read path shared by /v1/topk and /v1/similar
    # ------------------------------------------------------------------
    def _answer(
        self,
        read_json,
        single_key: str,
        multi_key: str,
        classify: Callable[[Dict[str, Any]], Tuple[QueryClass, int]],
    ) -> Tuple[int, Dict[str, Any]]:
        """Parse, admit, answer and reply; ``classify`` maps the body to its
        query class and the index bound."""
        arrived = time.perf_counter()
        body = read_json()
        query_class, bound = classify(body)
        indices, single = _parse_indices(body, single_key, multi_key, bound)
        n = body.get("n", self.config.default_n)
        if not _is_int(n) or n < 0:
            raise _HttpError(400, "'n' must be a non-negative integer")
        with_scores = _flag(body, "with_scores", False)
        deadline = self._deadline(body, arrived)

        # Admission: over capacity -> 429 before any scoring work.
        if not self._admission.acquire(blocking=False):
            self.service.metrics.count("shed")
            raise _HttpError(
                429,
                f"admission queue full ({self.config.max_queue} in flight)",
            )
        self.service.metrics.queue_entered()
        try:
            self._check_deadline(deadline)
            if single:
                items, scores, fields = self._coalesce(
                    query_class, int(indices[0]), n, with_scores, deadline
                )
                items, scores = [items], [scores]
            else:
                items, scores, fields = self._score(
                    query_class, indices, n, with_scores
                )
            self._check_deadline(deadline)
            payload = {
                **fields,
                multi_key: indices.tolist(),
                "items": [row.tolist() for row in items],
                "n": len(items[0]),
                "batched": single,
            }
            if with_scores:
                payload["scores"] = _json_scores(scores)
            self.service.metrics.observe("request", time.perf_counter() - arrived)
            return 200, payload
        except ArtifactError as exc:
            # The served artifact cannot answer this class at all (no graph
            # for similarity): a deployment mismatch, not a malformed
            # request — and carrying the republish hint to the client.
            raise _HttpError(409, str(exc)) from exc
        finally:
            self.service.metrics.queue_left()
            self._admission.release()

    def _coalesce(
        self,
        query_class: QueryClass,
        index: int,
        n: int,
        with_scores: bool,
        deadline: float,
    ) -> Tuple[np.ndarray, Optional[np.ndarray], Dict[str, Any]]:
        """One index through its class's batcher, waited on until ``deadline``."""
        try:
            future = self._batcher(query_class).submit(
                index, n, with_scores=with_scores
            )
        except QueueFull:
            self.service.metrics.count("shed")
            raise _HttpError(429, "batch queue full") from None
        except BatcherClosed:
            # A request that raced stop(): shutting down is an
            # availability event, not a server bug.
            raise _HttpError(503, "server shutting down") from None
        timeout = max(deadline - time.perf_counter(), 0.0)
        try:
            return future.result(timeout=timeout)
        except FutureTimeoutError:
            future.cancel()
            self.service.metrics.count("deadline_exceeded")
            raise _HttpError(503, "deadline exceeded") from None
        except CancelledError:
            self.service.metrics.count("deadline_exceeded")
            raise _HttpError(503, "request cancelled") from None

    def _deadline(self, body: Dict[str, Any], arrived: float) -> float:
        """The request's absolute deadline on the ``perf_counter`` clock.

        ``deadline_ms`` must be a finite positive number: JSON ``NaN`` and
        ``Infinity`` parse as floats and ``true`` as an int, and none of
        them is a usable budget.  The chained comparison is false for NaN.
        """
        deadline_ms = body.get("deadline_ms", self.config.deadline_ms)
        if (
            isinstance(deadline_ms, bool)
            or not isinstance(deadline_ms, (int, float))
            or not 0 < deadline_ms <= MAX_DEADLINE_MS
        ):
            raise _HttpError(
                400,
                "'deadline_ms' must be a finite positive number "
                f"(at most {MAX_DEADLINE_MS:.0f})",
            )
        return arrived + float(deadline_ms) / 1e3

    def _check_deadline(self, deadline: float) -> None:
        if time.perf_counter() > deadline:
            self.service.metrics.count("deadline_exceeded")
            raise _HttpError(503, "deadline exceeded")


def _parse_indices(
    body: Dict[str, Any], single_key: str, multi_key: str, bound: int
) -> Tuple[np.ndarray, bool]:
    """Exactly one of ``single_key`` / ``multi_key``, bounds-checked.

    The bounds are checked on the Python ints, before the int64 cast: an
    index past int64 would raise ``OverflowError`` inside numpy.
    """
    if (single_key in body) == (multi_key in body):
        raise _HttpError(
            400, f"give exactly one of '{single_key}' or '{multi_key}'"
        )
    if single_key in body:
        values, single = [body[single_key]], True
        if not _is_int(values[0]):
            raise _HttpError(400, f"'{single_key}' must be an integer")
    else:
        values, single = body[multi_key], False
        if not isinstance(values, list) or not values or not all(
            _is_int(v) for v in values
        ):
            raise _HttpError(
                400, f"'{multi_key}' must be a non-empty integer list"
            )
    if min(values) < 0 or max(values) >= bound:
        raise _HttpError(400, f"{single_key} indices must be in [0, {bound})")
    return np.asarray(values, dtype=np.int64), single

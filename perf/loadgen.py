"""Open-loop HTTP load generator.

One process, two worker threads (fewer when ``nproc`` is smaller), one
keep-alive connection per thread.  Requests follow a precomputed schedule of due
times; a worker takes the next request, sleeps until it is due, sends it,
and waits for the answer.  Latency is measured from the due time, so a
stall that makes later requests wait for a free connection counts against
them; lateness (send time minus due time) says how far behind the
generator ran.

Bodies are sent as ``bytes`` on sockets with ``TCP_NODELAY``: ``http.client``
then writes headers and body in one segment.  A ``str`` body would go out
as two writes and the second one would wait for a delayed ACK, adding about
40 ms that belong to the client, not to the server.

The server has the mirror-image problem: it writes each answer as headers,
then body, without ``TCP_NODELAY``, so the body waits for the client's ACK
of the headers.  Whether the client delays that ACK depends on request
timing, which made one seed read a 48 ms median and another 11 ms.  The
client therefore re-arms ``TCP_QUICKACK`` before reading each answer and
measures the server without that stall.
"""

from __future__ import annotations

import http.client
import json
import os
import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

HEADERS = {"Content-Type": "application/json"}


@dataclass(frozen=True)
class Request:
    """One scheduled request; ``due`` is seconds after the schedule start."""

    due: float
    klass: str
    path: str
    body: bytes
    bench_id: int


@dataclass
class Outcome:
    """What happened to one request (``perf_counter`` seconds; status 0 = no answer)."""

    request: Request
    due: float
    sent: float
    done: float
    status: int
    payload: bytes

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def lateness(self) -> float:
        return self.sent - self.due


def connect(port: int, timeout: float = 30.0) -> http.client.HTTPConnection:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    conn.connect()
    conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return conn


def exchange(conn: http.client.HTTPConnection, method: str, path: str, body: bytes = b""
             ) -> Tuple[int, bytes]:
    """One request/response on ``conn``; raises on transport errors."""
    conn.request(method, path, body=body if method == "POST" else None, headers=HEADERS)
    conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
    response = conn.getresponse()
    return response.status, response.read()


def post_json(conn: http.client.HTTPConnection, path: str, payload: Dict[str, Any]
              ) -> Tuple[int, Dict[str, Any]]:
    status, data = exchange(conn, "POST", path, json.dumps(payload).encode("utf-8"))
    return status, json.loads(data)


def get_json(conn: http.client.HTTPConnection, path: str) -> Dict[str, Any]:
    status, data = exchange(conn, "GET", path)
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}")
    return json.loads(data)


def run_open_loop(port: int, schedule: Sequence[Request], start: float) -> List[Outcome]:
    """Send ``schedule`` against ``port`` with due times relative to ``start``."""
    outcomes: List[Optional[Outcome]] = [None] * len(schedule)
    cursor = [0]
    lock = threading.Lock()

    def worker() -> None:
        conn: Optional[http.client.HTTPConnection]
        try:
            conn = connect(port)  # before the first due time, not inside it
        except OSError:
            conn = None
        try:
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= len(schedule):
                    return
                request = schedule[index]
                due = start + request.due
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                try:
                    if conn is None:
                        conn = connect(port)
                    status, payload = exchange(conn, "POST", request.path, request.body)
                except (OSError, http.client.HTTPException):
                    status, payload = 0, b""
                    if conn is not None:
                        conn.close()
                    conn = None
                outcomes[index] = Outcome(request, due, sent, time.perf_counter(), status, payload)
        finally:
            if conn is not None:
                conn.close()

    threads = min(2, len(os.sched_getaffinity(0)))
    workers = [threading.Thread(target=worker, name=f"loadgen-{i}") for i in range(threads)]
    for thread in workers:
        thread.start()
    for thread in workers:
        thread.join()
    return [outcome for outcome in outcomes if outcome is not None]

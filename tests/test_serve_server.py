"""End-to-end tests for the HTTP serving front end (repro.serve.server).

The acceptance path from the serving design: publish an artifact, stand the
server up in-process, hammer ``POST /v1/topk`` from concurrent client
threads, and require every response **element-identical** to the offline
:class:`~repro.tasks.topk.TopKEngine` read-out.  Load-shedding (429 on a
full admission queue, 503 on a blown deadline) and hot reload under live
traffic are exercised against a real socket, not mocks.

Runs under ``REPRO_NUM_THREADS=4`` as well (Makefile THREADED_TESTS): the
whole tier must hold regardless of how the scoring executor is sized.
"""

import json
import socket
import sys
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.base import EmbeddingResult
from repro.graph import BipartiteGraph
from repro.serve import (
    ArtifactStore,
    EmbeddingServer,
    EmbeddingService,
    ServerConfig,
)
from repro.serve.server import MAX_BODY_BYTES
from repro.tasks import TopKEngine


@pytest.fixture(scope="module")
def result():
    rng = np.random.default_rng(21)
    return EmbeddingResult(
        u=rng.standard_normal((50, 8)),
        v=rng.standard_normal((30, 8)),
        method="random",
    )


@pytest.fixture(scope="module")
def graph():
    rng = np.random.default_rng(22)
    edges = [
        (int(u), int(v), 1.0)
        for u in range(50)
        for v in rng.choice(30, size=4, replace=False)
    ]
    return BipartiteGraph.from_edges(edges)


@pytest.fixture
def store(tmp_path, result, graph):
    store = ArtifactStore(tmp_path / "store")
    store.publish("toy", result.u, result.v, graph=graph, method="random")
    return store


@pytest.fixture
def service(store):
    return EmbeddingService(store, "toy")


@pytest.fixture
def server(service):
    with EmbeddingServer(service, ServerConfig()) as srv:
        yield srv


def _strict_loads(body):
    """Parse as RFC 8259 JSON: ``NaN`` / ``Infinity`` / ``-Infinity`` raise."""

    def reject(name):
        raise ValueError(f"{name} is not JSON (RFC 8259)")

    return json.loads(body, parse_constant=reject)


def _json_scores(scores):
    """The reply form of a score block: ``None`` where a score is not finite."""
    return [[float(s) if np.isfinite(s) else None for s in row] for row in scores]


def _call(server, path, payload=None, *, method=None, raw=None):
    """One HTTP round trip; returns (status, decoded strict-JSON body)."""
    data = raw
    if data is None and payload is not None:
        data = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        server.url + path,
        data=data,
        method=method or ("POST" if data is not None else "GET"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, _strict_loads(response.read())
    except urllib.error.HTTPError as error:
        body = error.read()
        return error.code, _strict_loads(body) if body else {}


def _slow_service(service, delay):
    """Shadow ``top_items`` with a delayed version (admission/deadline tests)."""
    original = service.top_items

    def slow(users, n, **kwargs):
        time.sleep(delay)
        return original(users, n, **kwargs)

    service.top_items = slow


class TestRoundTrip:
    def test_concurrent_clients_match_offline_engine(
        self, server, result, graph
    ):
        """The acceptance criterion: publish -> serve -> 4 concurrent client
        threads -> every list element-identical to the offline engine."""
        engine = TopKEngine.from_result(result)
        expected = engine.top_items(8, exclude=graph)
        failures = []

        def client(seed: int) -> None:
            rng = np.random.default_rng(seed)
            for _ in range(10):
                user = int(rng.integers(50))
                status, body = _call(
                    server, "/v1/topk", {"user": user, "n": 8}
                )
                if status != 200:
                    failures.append((user, status, body))
                elif body["items"][0] != expected[user].tolist():
                    failures.append((user, "mismatch", body["items"][0]))

        threads = [
            threading.Thread(target=client, args=(seed,)) for seed in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert failures == []

        status, metrics = _call(server, "/metrics")
        assert status == 200
        assert metrics["counters"]["topk_candidates"] > 0
        assert metrics["counters"]["shed"] == 0

    def test_single_user_rides_the_batcher(self, server, result, graph):
        status, body = _call(server, "/v1/topk", {"user": 3, "n": 5})
        assert status == 200
        assert body["batched"] is True
        assert body["model"] == "toy@v1"
        engine = TopKEngine.from_result(result)
        assert body["items"] == [engine.top_items(5, users=[3], exclude=graph)[0].tolist()]

    def test_multi_user_goes_direct(self, server, result, graph):
        users = [0, 7, 49]
        status, body = _call(server, "/v1/topk", {"users": users, "n": 6})
        assert status == 200
        assert body["batched"] is False
        engine = TopKEngine.from_result(result)
        expected = engine.top_items(6, users=np.array(users), exclude=graph)
        assert body["items"] == [row.tolist() for row in expected]

    def test_zero_n_single_user_keeps_the_batcher_serving(self, server):
        status, body = _call(server, "/v1/topk", {"user": 3, "n": 0})
        assert status == 200
        assert body["batched"] is True
        assert body["items"] == [[]]
        status, body = _call(server, "/v1/topk", {"user": 3, "n": 5})
        assert status == 200
        assert len(body["items"][0]) == 5

    def test_zero_n_multi_user_answers_a_row_per_user(self, server):
        status, body = _call(
            server,
            "/v1/topk",
            {"users": [3, 4], "n": 0, "with_scores": True},
        )
        assert status == 200
        assert body["items"] == [[], []]
        assert body["scores"] == [[], []]

    @pytest.mark.parametrize(
        "payload",
        [{"user": 3}, {"users": [3, 4]}],
        ids=["batched", "direct"],
    )
    def test_masked_scores_are_json_null(self, server, result, graph, payload):
        """Past the unmasked items a list reaches the -inf training edges;
        their scores go out as null, and the reply parses as strict JSON."""
        users = payload.get("users", [payload.get("user")])
        status, body = _call(
            server, "/v1/topk", {**payload, "n": 30, "with_scores": True}
        )
        assert status == 200
        engine = TopKEngine.from_result(result)
        (_, items, scores), = engine.iter_top_items(
            30, users=np.array(users), exclude=graph, with_scores=True
        )
        assert body["items"] == items.tolist()
        assert body["scores"] == _json_scores(scores)
        for user, row in zip(users, body["scores"]):
            masked = graph.u_neighbors(user).size
            assert masked > 0 and row[-masked:] == [None] * masked
            assert None not in row[:-masked]

    def test_with_scores_and_no_exclude(self, server, result):
        status, body = _call(
            server,
            "/v1/topk",
            {"user": 2, "n": 4, "with_scores": True, "exclude": False},
        )
        assert status == 200
        assert body["batched"] is True
        raw = result.u[2] @ result.v.T
        np.testing.assert_allclose(
            body["scores"][0], np.sort(raw)[::-1][:4], rtol=1e-12
        )

    def test_unmasked_single_user_rides_its_own_batcher(self, server, result):
        engine = TopKEngine.from_result(result)
        for user in (2, 17):
            status, body = _call(
                server, "/v1/topk", {"user": user, "n": 7, "exclude": False}
            )
            assert status == 200
            assert body["batched"] is True
            assert body["items"] == [engine.top_items(7, users=[user])[0].tolist()]
        _, metrics = _call(server, "/metrics")
        assert metrics["batchers"]["topk/unmasked"]["requests"] == 2
        assert "topk" not in metrics["batchers"]

    def test_ann_single_user_reply_names_mode_and_nprobe(self, store, result):
        from repro.ann import INDEX_FILE, IVFIndex

        ref = store.resolve("toy")
        index = IVFIndex.build(
            result.v, n_cells=4, seed=0,
            v_checksum=ArtifactStore.v_checksum(ref), source=ref.tag,
        )
        index.save(ref.path / INDEX_FILE)
        service = EmbeddingService(store, "toy", ann=True, nprobe=2)
        with EmbeddingServer(service, ServerConfig()) as server:
            _, single = _call(server, "/v1/topk", {"user": 5, "n": 4})
            _, multi = _call(server, "/v1/topk", {"users": [5, 6], "n": 4})
        assert single["batched"] is True and multi["batched"] is False
        assert single["mode"] == multi["mode"] == "ann"
        assert single["nprobe"] == multi["nprobe"] == 2
        assert single["items"] == multi["items"][:1]

    def test_healthz_reports_model(self, server):
        status, body = _call(server, "/healthz")
        assert status == 200
        assert body == {"status": "ok", "model": "toy@v1"}

    def test_metrics_have_one_batcher_per_query_class_used(self, server):
        _call(server, "/v1/topk", {"user": 0})
        _call(server, "/v1/topk", {"user": 1})
        _call(server, "/v1/topk", {"user": 0, "exclude": False})
        _call(server, "/v1/topk", {"users": [0, 1], "exclude": False})
        _call(server, "/v1/similar", {"source": 0})
        _call(server, "/v1/similar", {"source": 0, "side": "v", "mode": "mhp"})
        _call(server, "/v1/similar", {"sources": [0, 1], "mode": "mhp"})
        status, body = _call(server, "/metrics")
        assert status == 200
        assert {
            name: stats["requests"] for name, stats in body["batchers"].items()
        } == {"topk": 2, "topk/unmasked": 1, "similar/u/mhs": 1, "similar/v/mhp": 1}
        assert body["counters"]["batched_requests"] == 5

    def test_racing_first_requests_build_one_batcher_per_class(self, server):
        """16 threads race to the first request of four query classes: the
        registry builds one batcher per class, and each counts its four.
        The threads call the handlers directly, so the race is the
        registry's, not the listen backlog's."""
        bodies = [
            ("handle_topk", {"user": 1}),
            ("handle_topk", {"user": 1, "exclude": False}),
            ("handle_similar", {"source": 1}),
            ("handle_similar", {"source": 1, "side": "v", "mode": "mhp"}),
        ]
        barrier = threading.Barrier(16)
        statuses = []

        def client(handler, body):
            barrier.wait(10)
            statuses.append(getattr(server, handler)(lambda: body)[0])

        threads = [
            threading.Thread(target=client, args=bodies[i % 4]) for i in range(16)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert statuses == [200] * 16
        _, metrics = _call(server, "/metrics")
        assert {
            name: stats["requests"] for name, stats in metrics["batchers"].items()
        } == {"topk": 4, "topk/unmasked": 4, "similar/u/mhs": 4, "similar/v/mhp": 4}

    def test_metrics_shape(self, server):
        _call(server, "/v1/topk", {"user": 0})
        status, body = _call(server, "/metrics")
        assert status == 200
        assert body["model"] == "toy@v1"
        assert body["queue"]["max"] == 64
        assert body["batchers"]["topk"]["requests"] >= 1
        assert (
            0.0
            <= body["batchers"]["topk"]["queue_wait_ms_mean"]
            <= body["batchers"]["topk"]["queue_wait_ms_max"]
        )
        assert set(body["counters"]) >= {
            "requests", "batched_requests", "batches", "shed",
            "deadline_exceeded", "reloads", "gemms", "topk_candidates",
        }


class TestTransport:
    def test_connections_set_tcp_nodelay(self, server, monkeypatch):
        """Replies are two writes (headers, then body); Nagle must be off so
        a delayed-ACK client never stalls the body."""
        from repro.serve import server as server_module

        seen = []
        original = server_module._Handler.handle

        def handle(handler):
            seen.append(
                handler.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            )
            original(handler)

        monkeypatch.setattr(server_module._Handler, "handle", handle)
        assert _call(server, "/healthz")[0] == 200
        assert seen and all(flag != 0 for flag in seen)


class TestValidation:
    @pytest.mark.parametrize(
        "payload, fragment",
        [
            ({}, "exactly one of"),
            ({"user": 1, "users": [2]}, "exactly one of"),
            ({"user": "alice"}, "'user' must be an integer"),
            ({"user": True}, "'user' must be an integer"),
            ({"users": []}, "non-empty integer list"),
            ({"users": "0,1"}, "non-empty integer list"),
            ({"users": [0, "x"]}, "non-empty integer list"),
            ({"user": -1}, "indices must be in"),
            ({"user": 50}, "indices must be in"),
            ({"user": 0, "n": -3}, "non-negative integer"),
            ({"user": 0, "n": 2.5}, "non-negative integer"),
            ({"user": 0, "deadline_ms": 0}, "positive number"),
            ({"user": 2**70}, "indices must be in"),
            ({"users": [0, 2**63]}, "indices must be in"),
            ({"user": 0, "with_scores": "yes"}, "'with_scores' must be true or false"),
            ({"users": [0], "with_scores": 1}, "'with_scores' must be true or false"),
            ({"user": 0, "exclude": "false"}, "'exclude' must be true or false"),
        ],
    )
    def test_bad_bodies_rejected(self, server, payload, fragment):
        status, body = _call(server, "/v1/topk", payload)
        assert status == 400
        assert fragment in body["error"]

    @pytest.mark.parametrize(
        "path, key", [("/v1/topk", "user"), ("/v1/similar", "source")]
    )
    @pytest.mark.parametrize(
        "deadline_ms",
        [float("nan"), float("inf"), float("-inf"), True, False, 0, -5,
         1e300, 10**400, "50", None],
        ids=["nan", "inf", "-inf", "true", "false", "zero", "negative",
             "huge", "huge-int", "string", "null"],
    )
    def test_bad_deadlines_rejected(self, server, path, key, deadline_ms):
        """JSON NaN/Infinity parse as floats and true as an int: each is a
        400, never a 500 or a 503 that counts as a blown deadline."""
        before = _call(server, "/metrics")[1]["counters"]
        status, body = _call(server, path, {key: 0, "deadline_ms": deadline_ms})
        assert status == 400
        assert "'deadline_ms' must be a finite positive number" in body["error"]
        after = _call(server, "/metrics")[1]["counters"]
        assert after["errors"] == before["errors"]
        assert after["deadline_exceeded"] == before["deadline_exceeded"]

    @pytest.mark.parametrize(
        "field, value",
        [("max_batch", 0), ("max_queue", 0), ("deadline_ms", 0), ("default_n", -1)],
    )
    def test_config_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError, match=field):
            ServerConfig(**{field: value})

    def test_malformed_json_rejected(self, server):
        status, body = _call(server, "/v1/topk", raw=b"{not json")
        assert status == 400
        assert "malformed JSON" in body["error"]

    def test_non_object_body_rejected(self, server):
        status, body = _call(server, "/v1/topk", raw=b"[1, 2]")
        assert status == 400
        assert "JSON object" in body["error"]

    def test_oversized_body_rejected(self, server):
        # Declare an oversized body without sending it: the server must
        # reject on Content-Length alone, before reading a single byte.
        import http.client

        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.putrequest("POST", "/v1/topk")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 413
            assert response.read()  # body delivered despite the early close
        finally:
            conn.close()

    def test_unknown_paths_404(self, server):
        assert _call(server, "/v2/topk", {"user": 0})[0] == 404
        assert _call(server, "/nope")[0] == 404

    def test_errors_never_kill_the_server(self, server):
        for _ in range(3):
            _call(server, "/v1/topk", raw=b"broken")
        status, _ = _call(server, "/v1/topk", {"user": 1})
        assert status == 200


class TestLoadShedding:
    def test_admission_full_returns_429(self, service):
        """max_queue=1 + a slow service + a burst -> 429s, no crash."""
        _slow_service(service, 0.2)
        config = ServerConfig(max_queue=1, deadline_ms=10_000.0)
        with EmbeddingServer(service, config) as server:
            statuses = []
            barrier = threading.Barrier(8)

            def client() -> None:
                barrier.wait(10)
                statuses.append(_call(server, "/v1/topk", {"user": 0})[0])

            threads = [threading.Thread(target=client) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert statuses.count(200) >= 1
            assert statuses.count(429) >= 1
            assert set(statuses) <= {200, 429}
            # The shed burst did not wedge anything: next request succeeds
            # and the shed counter saw every 429.
            status, metrics = _call(server, "/metrics")
            assert status == 200
            assert metrics["counters"]["shed"] == statuses.count(429)
            assert _call(server, "/v1/topk", {"user": 1})[0] == 200

    def test_blown_deadline_returns_503_direct(self, service):
        _slow_service(service, 0.15)
        with EmbeddingServer(service, ServerConfig()) as server:
            status, body = _call(
                server, "/v1/topk", {"users": [0], "deadline_ms": 40}
            )
            assert status == 503
            assert "deadline" in body["error"]
            _, metrics = _call(server, "/metrics")
            assert metrics["counters"]["deadline_exceeded"] == 1

    def test_blown_deadline_returns_503_batched(self, service):
        _slow_service(service, 0.25)
        with EmbeddingServer(service, ServerConfig()) as server:
            status, body = _call(
                server, "/v1/topk", {"user": 0, "deadline_ms": 40}
            )
            assert status == 503
            assert "deadline" in body["error"]


class TestReload:
    def test_reload_swaps_versions(self, server, store, result):
        store.publish("toy", result.u * 2.0, result.v, method="random")
        status, body = _call(server, "/admin/reload", {})
        assert status == 200
        assert body == {"previous": "toy@v1", "current": "toy@v2"}
        assert _call(server, "/healthz")[1]["model"] == "toy@v2"
        _, metrics = _call(server, "/metrics")
        assert metrics["counters"]["reloads"] == 1

    def test_reload_unknown_version_409(self, server):
        status, body = _call(server, "/admin/reload", {"version": 99})
        assert status == 409
        assert "reload failed" in body["error"]
        assert _call(server, "/healthz")[1]["model"] == "toy@v1"

    def test_reload_bad_version_type_400(self, server):
        status, _ = _call(server, "/admin/reload", {"version": "latest"})
        assert status == 400

    def test_reload_bool_version_400(self, server):
        """JSON true parses as the int 1; it must not serve v1 as "toy@vTrue"."""
        status, body = _call(server, "/admin/reload", {"version": True})
        assert status == 400
        assert "'version' must be an integer" in body["error"]
        assert _call(server, "/healthz")[1]["model"] == "toy@v1"

    def test_reload_under_traffic_fails_no_request(
        self, server, store, result, graph
    ):
        """Hot swap with requests in flight: zero non-200 responses.

        v2 doubles U, which rescales every score without reordering any
        list, so responses from either version are element-identical — the
        swap must be invisible to clients.
        """
        engine = TopKEngine.from_result(result)
        expected = engine.top_items(6, exclude=graph)
        failures = []
        stop = threading.Event()

        def client(seed: int) -> None:
            rng = np.random.default_rng(seed)
            while not stop.is_set():
                user = int(rng.integers(50))
                status, body = _call(
                    server, "/v1/topk", {"user": user, "n": 6}
                )
                if status != 200:
                    failures.append((user, status, body))
                elif body["items"][0] != expected[user].tolist():
                    failures.append((user, "mismatch"))

        threads = [
            threading.Thread(target=client, args=(seed,)) for seed in range(4)
        ]
        for thread in threads:
            thread.start()
        store.publish(
            "toy", result.u * 2.0, result.v, graph=graph, method="random"
        )
        status, _ = _call(server, "/admin/reload", {})
        time.sleep(0.2)  # keep traffic flowing on the new model
        stop.set()
        for thread in threads:
            thread.join()
        assert status == 200
        assert failures == []
        assert _call(server, "/healthz")[1]["model"] == "toy@v2"


    @pytest.mark.parametrize(
        "path, method, body",
        [
            ("/v1/topk", "top_items", {"user": 3, "n": 5}),
            ("/v1/similar", "similar", {"source": 3, "n": 5}),
        ],
    )
    def test_batched_answer_names_the_model_that_scored_it(
        self, server, service, store, result, graph, path, method, body
    ):
        """A reload between scoring and reply: the answer still names the
        version whose lists it carries, not the one served when it is sent."""
        store.publish("toy", -result.u, result.v, graph=graph, method="random")
        original = getattr(service, method)
        scored, release, seen = threading.Event(), threading.Event(), []

        def gated(*args, **kwargs):
            response = original(*args, **kwargs)
            seen.append(response)
            scored.set()
            release.wait(10)
            return response

        setattr(service, method, gated)
        answer = []
        client = threading.Thread(target=lambda: answer.append(_call(server, path, body)))
        client.start()
        assert scored.wait(10)
        assert service.reload() == ("toy@v1", "toy@v2")
        release.set()
        client.join(10)
        status, reply = answer[0]
        assert status == 200 and reply["batched"]
        assert reply["model"] == seen[0]["model"] == "toy@v1"
        assert reply["items"] == [seen[0]["items"][0].tolist()]


class TestShutdownRace:
    def test_request_racing_stop_gets_clean_503(self, service):
        """A single-user request that reaches the batcher after stop()
        closed it is an availability event: clean 503 ("server shutting
        down"), never a RuntimeError-turned-500."""
        with EmbeddingServer(service, ServerConfig()) as server:
            # stop() shuts the listener first, then the batchers — a request
            # already past admission can hit the closed batcher.  Reproduce
            # that interleaving deterministically.
            server._batcher(("topk", True)).close()
            status, body = _call(server, "/v1/topk", {"user": 0, "n": 5})
        assert status == 503
        assert body["error"] == "server shutting down"
        assert service.metrics["requests"] == 0  # nothing was scored

    def test_new_query_class_after_stop_gets_503_and_no_thread(self, service):
        """A class whose batcher was never built: once stop() has begun the
        registry builds none, so the request is a clean 503 and no batcher
        thread outlives the server."""
        from repro.serve import server as server_module

        def batcher_threads():
            return {
                thread for thread in threading.enumerate()
                if thread.name == "repro-serve-batcher"
            }

        before = batcher_threads()
        server = EmbeddingServer(service, ServerConfig()).start()
        server.stop()
        with pytest.raises(server_module._HttpError) as raised:
            server.handle_similar(lambda: {"source": 0, "n": 5})
        assert raised.value.status == 503
        assert str(raised.value) == "server shutting down"
        assert batcher_threads() <= before
        assert service.metrics["requests"] == 0


class TestQuantizedServing:
    @pytest.mark.parametrize("codec", ["float16", "int8"])
    def test_metrics_report_quant_mode_and_residency(
        self, tmp_path, result, graph, codec
    ):
        store = ArtifactStore(tmp_path / "qstore")
        store.publish(
            "toy", result.u, result.v, graph=graph, method="random",
            quantize=codec,
        )
        service = EmbeddingService(store, "toy")
        with EmbeddingServer(service, ServerConfig()) as server:
            status, body = _call(server, "/metrics")
        assert status == 200
        assert body["quantize"] == codec
        assert body["bytes_resident"] == service.bytes_resident() > 0

    def test_metrics_report_exact_mode(self, server, service):
        status, body = _call(server, "/metrics")
        assert status == 200
        assert body["quantize"] is None
        assert body["bytes_resident"] == service.bytes_resident() > 0

    @pytest.mark.parametrize("codec", ["float16", "int8"])
    def test_quantized_responses_match_offline_quant_engine(
        self, tmp_path, result, graph, codec
    ):
        from repro.core.quantize import quantize_columns

        u_codes, u_scales = quantize_columns(result.u, codec)
        v_codes, v_scales = quantize_columns(result.v, codec)
        offline = TopKEngine(u_codes, v_codes, scales=(u_scales, v_scales))
        expected = offline.top_items(6, exclude=graph)
        store = ArtifactStore(tmp_path / "qstore")
        store.publish(
            "toy", result.u, result.v, graph=graph, method="random",
            quantize=codec,
        )
        service = EmbeddingService(store, "toy")
        with EmbeddingServer(service, ServerConfig()) as server:
            status, body = _call(
                server, "/v1/topk", {"users": [0, 7, 49], "n": 6}
            )
        assert status == 200
        assert body["items"] == [
            expected[user].tolist() for user in (0, 7, 49)
        ]


class TestRouteTable:
    def test_routes_declare_every_endpoint(self):
        from repro.serve.server import ROUTES, Route

        table = {(route.verb, route.path) for route in ROUTES}
        assert table == {
            ("GET", "/healthz"),
            ("GET", "/metrics"),
            ("POST", "/v1/topk"),
            ("POST", "/v1/similar"),
            ("POST", "/admin/reload"),
        }
        for route in ROUTES:
            assert isinstance(route, Route)
            assert route.handler.startswith("handle_")

    def test_handlers_exist_on_the_server(self, server):
        from repro.serve.server import ROUTES

        for route in ROUTES:
            assert callable(getattr(server, route.handler))

    def test_unknown_path_is_404(self, server):
        status, body = _call(server, "/v1/nope", {"user": 1})
        assert status == 404


class TestSimilarEndpoint:
    @pytest.fixture(scope="class")
    def offline(self, graph):
        """Offline engines mirroring the service's similarity defaults."""
        from repro.core.pmf import PoissonPMF
        from repro.tasks import SimilarityEngine, transposed_graph

        u_engine = SimilarityEngine(
            graph, PoissonPMF(lam=1.0), 5, normalization="sym"
        )
        v_engine = SimilarityEngine(
            transposed_graph(graph), PoissonPMF(lam=1.0), 5,
            normalization="sym",
        )
        return {"u": u_engine, "v": v_engine}

    def test_single_source_rides_the_batcher(self, server, offline):
        expected, _ = offline["u"].query([3], 5, mode="mhs")
        status, body = _call(server, "/v1/similar", {"source": 3, "n": 5})
        assert status == 200
        assert body["batched"] is True
        assert body["model"] == "toy@v1"
        assert body["mode"] == "mhs" and body["side"] == "u"
        assert body["items"] == expected.tolist()

    def test_multi_source_goes_direct_with_scores(self, server, offline):
        sources = [0, 7, 49]
        expected, scores = offline["u"].query(
            sources, 6, mode="mhs", with_scores=True
        )
        status, body = _call(
            server,
            "/v1/similar",
            {"sources": sources, "n": 6, "with_scores": True},
        )
        assert status == 200
        assert body["batched"] is False
        assert body["items"] == expected.tolist()
        np.testing.assert_allclose(body["scores"], scores, rtol=0, atol=0)

    @pytest.mark.parametrize(
        "payload",
        [{"source": 3}, {"sources": [3, 4]}],
        ids=["batched", "direct"],
    )
    def test_excluded_self_score_is_json_null(self, server, offline, payload):
        """A full-length mhs list ends at the source itself (-inf); its
        score goes out as null, and the reply parses as strict JSON."""
        sources = payload.get("sources", [payload.get("source")])
        expected, scores = offline["u"].query(
            sources, 50, mode="mhs", with_scores=True
        )
        status, body = _call(
            server, "/v1/similar", {**payload, "n": 50, "with_scores": True}
        )
        assert status == 200
        assert body["items"] == expected.tolist()
        assert body["scores"] == _json_scores(scores)
        assert [row[-1] for row in body["items"]] == sources
        assert [row[-1] for row in body["scores"]] == [None] * len(sources)

    def test_mhp_mode(self, server, offline):
        expected, _ = offline["u"].query([2, 11], 4, mode="mhp")
        status, body = _call(
            server, "/v1/similar", {"sources": [2, 11], "n": 4, "mode": "mhp"}
        )
        assert status == 200
        assert body["mode"] == "mhp"
        assert body["items"] == expected.tolist()

    def test_v_side(self, server, offline):
        expected, _ = offline["v"].query([0, 29], 5, mode="mhs")
        status, body = _call(
            server, "/v1/similar", {"sources": [0, 29], "n": 5, "side": "v"}
        )
        assert status == 200
        assert body["side"] == "v"
        assert body["items"] == expected.tolist()

    def test_concurrent_batched_matches_offline(self, server, offline):
        expected, _ = offline["u"].query(list(range(50)), 5, mode="mhs")
        failures = []

        def client(seed: int) -> None:
            rng = np.random.default_rng(seed)
            for _ in range(8):
                source = int(rng.integers(50))
                status, body = _call(
                    server, "/v1/similar", {"source": source, "n": 5}
                )
                if status != 200:
                    failures.append((source, status, body))
                elif body["items"][0] != expected[source].tolist():
                    failures.append((source, "mismatch", body["items"][0]))

        threads = [
            threading.Thread(target=client, args=(seed,)) for seed in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert failures == []

    def test_metrics_count_similarity_work(self, server):
        _call(server, "/v1/similar", {"sources": [0, 1], "n": 3})
        _call(server, "/v1/similar", {"source": 5, "n": 3})
        status, body = _call(server, "/metrics")
        assert status == 200
        assert body["counters"]["similar_queries"] >= 3
        assert body["counters"]["similar_matvecs"] > 0
        assert body["batchers"]["similar/u/mhs"]["requests"] >= 1

    @pytest.mark.parametrize(
        "payload, fragment",
        [
            ({}, "exactly one of"),
            ({"source": 1, "sources": [2]}, "exactly one of"),
            ({"source": "alice"}, "'source' must be an integer"),
            ({"source": True}, "'source' must be an integer"),
            ({"sources": []}, "non-empty integer list"),
            ({"source": 50}, "indices must be in"),
            ({"source": 30, "side": "v"}, "indices must be in"),
            ({"source": 0, "side": "w"}, "side"),
            ({"source": 0, "mode": "cosine"}, "mode"),
            ({"source": 0, "n": -1}, "'n'"),
            ({"source": 2**70}, "indices must be in"),
            ({"sources": [0, 2**63]}, "indices must be in"),
            ({"source": 0, "with_scores": "false"}, "'with_scores' must be true or false"),
        ],
    )
    def test_rejects_bad_requests(self, server, payload, fragment):
        status, body = _call(server, "/v1/similar", payload)
        assert status == 400
        assert fragment in body["error"]

    def test_graphless_artifact_answers_409(self, tmp_path, result):
        store = ArtifactStore(tmp_path / "nograph")
        store.publish("toy", result.u, result.v, method="random")
        service = EmbeddingService(store, "toy")
        with EmbeddingServer(service, ServerConfig()) as srv:
            status, body = _call(srv, "/v1/similar", {"source": 0, "n": 3})
            topk_status, _ = _call(srv, "/v1/topk", {"user": 0, "n": 3})
        assert status == 409
        assert "republish" in body["error"]
        assert topk_status == 200  # top-k keeps serving without the graph

"""Integration tests for the network front-end.

Every test here talks to a real :class:`EngineServer` over a localhost
socket through the stdlib-based :class:`ServerClient` — an independent
HTTP implementation — so the wire format, not just the handler logic, is
what gets verified: authentication, per-tenant budgets held across
requests, SSE event ordering, structured 4xx refusals, and the graceful
shutdown drain.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time

import numpy as np
import pytest

from repro import LinearConstraint, QueryEngine
from repro.core import kernels
from repro.engine import TenantBudget
from repro.engine.metrics import jsonable
from repro.engine.obs.prometheus import render_prometheus
from repro.engine.server import ApiKey, EngineServer, ServerClient
from repro.engine.server.protocol import (HTTPError, parse_query_request,
                                          parse_stream_query)
from repro.workloads import uniform_points

BLOCK_SIZE = 32


def brute_count(points, coeffs, offset):
    lhs = points[:, -1]
    rhs = offset + points[:, :-1] @ np.asarray(coeffs)
    return int(np.sum(lhs <= rhs))


@pytest.fixture(scope="module")
def served_engine():
    """One engine + running server shared by the read-only tests."""
    points = uniform_points(2048, seed=31)
    engine = QueryEngine(block_size=BLOCK_SIZE, cache_blocks=4, seed=31)
    engine.register_dataset("plain", points, kinds=["dynamic"])
    engine.register_sharded_dataset("sharded", points, num_shards=4,
                                    sharding="range", kinds=["dynamic"])
    keys = [
        ApiKey(key="key-fast", tenant="fast"),
        ApiKey(key="key-capped", tenant="capped",
               budget=TenantBudget(ios_per_s=3.0, burst=3.0,
                                   policy="degrade")),
        ApiKey(key="key-reject", tenant="shed",
               budget=TenantBudget(ios_per_s=1.0, burst=1.0,
                                   policy="reject")),
        ApiKey(key="key-slow", tenant="slow", requests_per_s=0.001,
               request_burst=2.0),
    ]
    with engine.serve_http(keys) as server:
        yield engine, server, points
    engine.close()


def client_for(server: EngineServer, key: str = "key-fast") -> ServerClient:
    host, port = server.address
    return ServerClient(host, port, api_key=key)


# ----------------------------------------------------------------------
# authentication
# ----------------------------------------------------------------------
def test_missing_and_unknown_keys_are_rejected(served_engine):
    __, server, __ = served_engine
    host, port = server.address
    anonymous = ServerClient(host, port)
    status, body = anonymous.query("plain", [0.1], 0.2)
    assert status == 401
    assert body["error"]["code"] == "missing_api_key"
    status, body = anonymous.stats()
    assert status == 401
    impostor = ServerClient(host, port, api_key="not-a-key")
    status, body = impostor.query("plain", [0.1], 0.2)
    assert status == 401
    assert body["error"]["code"] == "unknown_api_key"


def test_healthz_needs_no_key(served_engine):
    __, server, __ = served_engine
    host, port = server.address
    status, body = ServerClient(host, port).healthz()
    assert status == 200
    assert body["status"] == "ok"
    assert set(body["datasets"]) == {"plain", "sharded"}


def test_api_key_via_query_parameter(served_engine):
    __, server, __ = served_engine
    host, port = server.address
    status, __ = ServerClient(host, port).request(
        "GET", "/stats?api_key=key-fast")
    assert status == 200


# ----------------------------------------------------------------------
# queries over the wire
# ----------------------------------------------------------------------
def test_query_answers_match_brute_force(served_engine):
    __, server, points = served_engine
    client = client_for(server)
    for dataset in ("plain", "sharded"):
        for offset in (-0.5, 0.0, 0.4):
            status, body = client.query(dataset, [0.3], offset)
            assert status == 200
            assert body["outcome"] == "served"
            assert body["answer"]["count"] == brute_count(points, [0.3],
                                                          offset)
            assert body["answer"]["degraded"] is False


def test_rejected_and_expired_map_to_http_statuses(served_engine):
    __, server, __ = served_engine
    shed = client_for(server, "key-reject")
    # Two distinct non-cached queries against a 1-token bucket: the
    # first overdrafts the full bucket, the second is shed.
    statuses = {shed.query("plain", [0.21], 0.17 + i * 0.01)[0]
                for i in range(2)}
    assert 429 in statuses
    expired_status, body = client_for(server).query("plain", [0.33], 0.4,
                                                    deadline_s=-1.0)
    assert expired_status == 504
    assert body["outcome"] == "expired"


# ----------------------------------------------------------------------
# concurrent tenants with distinct budgets
# ----------------------------------------------------------------------
def test_concurrent_tenants_with_distinct_budgets(served_engine):
    """Four clients, four keys: the capped tenant degrades with a count
    interval while the unbudgeted tenants stay exactly served."""
    __, server, points = served_engine
    per_client = 10
    results = {}

    def run(name, key):
        client = client_for(server, key)
        outcomes = []
        # Distinct offsets per tenant so nobody rides another tenant's
        # result-cache entries at zero estimated I/O.
        nudge = {"a": 0.0, "b": 0.003, "c": 0.007, "d": 0.011}[name]
        for i in range(per_client):
            status, body = client.query("plain", [0.27],
                                        -0.6 + 0.1 * i + nudge)
            outcomes.append((status, body))
        results[name] = outcomes

    threads = [threading.Thread(target=run, args=(name, key))
               for name, key in (("a", "key-fast"), ("b", "key-fast"),
                                 ("c", "key-capped"), ("d", "key-reject"))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    for name in ("a", "b"):
        assert all(status == 200 and body["outcome"] == "served"
                   for status, body in results[name]), name
    capped = [body for __, body in results["c"]]
    degraded = [body for body in capped if body["outcome"] == "degraded"]
    assert degraded, "the capped tenant never hit its budget"
    for body in degraded:
        answer = body["answer"]
        low, high = answer["count_interval"]
        assert 0.0 < answer["sample_rate"] <= 1.0
        assert low <= answer["estimated_count"] <= high
    shed = [body["outcome"] for __, body in results["d"]]
    assert "rejected" in shed


def test_request_rate_limit_is_per_key_not_per_connection(served_engine):
    __, server, __ = served_engine
    host, port = server.address
    # Burst of 2 at a ~zero refill rate: the third request 429s even
    # though every call opens a fresh connection.
    statuses = [ServerClient(host, port, api_key="key-slow")
                .query("plain", [0.11], 0.3 + i * 0.01)[0]
                for i in range(3)]
    assert statuses[:2] == [200, 200]
    assert statuses[2] == 429


# ----------------------------------------------------------------------
# SSE streaming
# ----------------------------------------------------------------------
def test_stream_delivers_estimate_before_result(served_engine):
    __, server, points = served_engine
    client = client_for(server)
    status, events = client.query_stream("sharded", [0.19], 0.23)
    assert status == 200
    names = [event.name for event in events]
    assert names == ["estimate", "result"]
    estimate, result = events
    assert estimate.at <= result.at
    low, high = estimate.data["count_interval"]
    exact = brute_count(points, [0.19], 0.23)
    assert estimate.data["count_estimate"] >= 0
    assert low <= estimate.data["count_estimate"] <= high
    assert 0.0 < estimate.data["sample_rate"] <= 1.0
    assert result.data["outcome"] == "served"
    assert result.data["answer"]["count"] == exact


def test_stream_on_expired_deadline_still_estimates(served_engine):
    __, server, __ = served_engine
    client = client_for(server)
    status, events = client.query_stream("plain", [0.42], 0.1,
                                         deadline_s=-1.0)
    assert status == 200
    names = [event.name for event in events]
    assert names == ["estimate", "expired"]
    assert "count_interval" in events[0].data
    assert events[1].data["outcome"] == "expired"


def test_stream_validation_fails_before_the_stream_opens(served_engine):
    __, server, __ = served_engine
    client = client_for(server)
    status, events = client.query_stream("no-such-dataset", [0.1], 0.0)
    assert status == 404
    assert events[0].data["error"]["code"] == "unknown_dataset"


# ----------------------------------------------------------------------
# an answer's points on the wire
# ----------------------------------------------------------------------
def raw_exchange(server, request: bytes) -> bytes:
    """Send bytes over a raw socket; everything the server writes back
    before it closes the connection."""
    with socket.create_connection(server.address, timeout=10.0) as sock:
        sock.sendall(request)
        received = b""
        while True:
            data = sock.recv(65536)
            if not data:
                return received
            received += data


@pytest.fixture(scope="module")
def traced_bulk_server():
    """4096 points behind one index (one answer order), tracing on, and
    a tenant whose budget degrades."""
    points = uniform_points(4096, seed=53)
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=53, tracing=True)
    engine.register_dataset("bulk", points, kinds=["full_scan"])
    keys = [ApiKey(key="k", tenant="t"),
            ApiKey(key="k-capped", tenant="capped",
                   budget=TenantBudget(ios_per_s=1.0, burst=1.0,
                                       policy="degrade"))]
    with engine.serve_http(keys) as server:
        yield engine, server
    engine.close()


#: Offsets whose answers sit under the text kernel's crossover, over it,
#: and across two of its chunks (x_2 <= offset, points uniform in [-1, 1]^2).
WIRE_OFFSETS = (-0.97, -0.6, 0.9)


def bulk_matrix(engine, offset):
    """The engine's own answer to ``x_2 <= offset`` (a result-cache hit
    after the same query went over the wire: the very same matrix)."""
    return engine.query("bulk", LinearConstraint(coeffs=(0.0,),
                                                 offset=offset)).points


def test_wire_offsets_straddle_the_text_kernel_paths(traced_bulk_server):
    engine, __ = traced_bulk_server
    sizes = [bulk_matrix(engine, offset).size for offset in WIRE_OFFSETS]
    assert 0 < sizes[0] < kernels._JSON_CROSSOVER <= sizes[1] \
        < kernels._JSON_CHUNK < sizes[2]


@pytest.mark.parametrize("offset", WIRE_OFFSETS)
def test_posted_points_are_the_engines_matrix_bit_for_bit(
        traced_bulk_server, offset):
    engine, server = traced_bulk_server
    payload = json.dumps({"dataset": "bulk", "constraint":
                          {"coeffs": [0.0], "offset": offset}}).encode()
    response = raw_exchange(
        server, b"POST /query HTTP/1.1\r\nHost: t\r\nX-Api-Key: k\r\n"
        b"Connection: close\r\nContent-Length: %d\r\n\r\n%s"
        % (len(payload), payload))
    head, __, body = response.partition(b"\r\n\r\n")
    headers = dict(line.split(": ", 1)
                   for line in head.decode("latin-1").split("\r\n")[1:])
    assert head.startswith(b"HTTP/1.1 200")
    assert int(headers["Content-Length"]) == len(body)
    parsed = json.loads(body)
    assert parsed["trace_id"] == headers["X-Trace-Id"]
    assert parsed["outcome"] == "served"
    matrix = bulk_matrix(engine, offset)
    answer = parsed["answer"]
    assert answer["count"] == len(matrix) == len(answer["points"])
    assert np.array(answer["points"]).tobytes() == matrix.tobytes()
    # The request's trace prices the encoding it just did.
    root = engine.tracer.get(parsed["trace_id"])["root"]
    assert root["attributes"]["body_bytes"] == len(body)
    assert root["attributes"]["encode_us"] > 0


@pytest.mark.parametrize("offset", WIRE_OFFSETS)
def test_streamed_result_points_are_the_engines_matrix(traced_bulk_server,
                                                       offset):
    engine, server = traced_bulk_server
    status, events = client_for(server, "k").query_stream("bulk", [0.0],
                                                          offset)
    assert status == 200
    assert [event.name for event in events] == ["estimate", "result"]
    result = events[1].data
    assert result["trace_id"] == events[0].data["trace_id"] != ""
    assert np.array(result["answer"]["points"]).tobytes() \
        == bulk_matrix(engine, offset).tobytes()


def test_degraded_answers_keep_their_fields_on_the_wire(traced_bulk_server):
    __, server = traced_bulk_server
    capped = client_for(server, "k-capped")
    bodies = [capped.query("bulk", [0.0], 0.4 + 0.01 * step)[1]
              for step in range(4)]
    degraded = [body for body in bodies if body["outcome"] == "degraded"]
    assert degraded, "the capped tenant never hit its budget"
    for body in degraded:
        answer = body["answer"]
        assert body["trace_id"]
        assert answer["degraded"] is True
        assert 0.0 < answer["sample_rate"] <= 1.0
        low, high = answer["count_interval"]
        assert low <= answer["estimated_count"] <= high
        assert answer["interval_source"]
        assert len(answer["points"]) == answer["count"]


def test_http_metrics_price_the_serialise_row(traced_bulk_server):
    engine, server = traced_bulk_server
    client = client_for(server, "k")
    assert client.query("bulk", [0.0], 0.9)[0] == 200
    entry = client.stats()[1]["http"]["/query"]
    assert entry["response_bytes"]["p50"] > 0
    assert 0 < entry["encode_s"]["p99"] <= entry["latency_s"]["p99"]
    text = render_prometheus(engine.stats.registry)     # GET /metrics
    for family in ("engine_http_encode_seconds", "engine_http_response_bytes"):
        assert '%s_count{endpoint="/query"}' % family in text


# ----------------------------------------------------------------------
# connection persistence by HTTP version
# ----------------------------------------------------------------------
@pytest.mark.parametrize("version, header, persists", [
    ("HTTP/1.1", None, True),
    ("HTTP/1.1", "close", False),
    ("HTTP/1.1", "keep-alive", True),
    ("HTTP/1.0", None, False),
    ("HTTP/1.0", "keep-alive", True),
    ("HTTP/1.0", "close", False),
])
def test_connection_persistence_follows_version_and_header(
        served_engine, version, header, persists):
    """An HTTP/1.0 request closes unless it asks to persist; HTTP/1.1
    is the reverse.  A connection the server keeps gets a second
    request answered; one it closes reads EOF after the first."""
    __, server, __ = served_engine
    request = ("GET /healthz %s\r\nHost: t\r\n" % version
               + ("Connection: %s\r\n" % header if header else "")
               + "\r\n").encode()
    with socket.create_connection(server.address, timeout=5.0) as sock:
        sock.sendall(request)
        wanted = b"Connection: keep-alive" if persists \
            else b"Connection: close"
        assert wanted in read_one_response(sock)
        if persists:
            sock.sendall(request)
            assert read_one_response(sock).startswith(b"HTTP/1.1 200")
        else:
            assert sock.recv(4096) == b""


def read_one_response(sock) -> bytes:
    """One Content-Length-framed response off the socket; its head."""
    data = b""
    while b"\r\n\r\n" not in data:
        data += sock.recv(4096)
    head, __, rest = data.partition(b"\r\n\r\n")
    length = next(int(line.split(b":", 1)[1])
                  for line in head.split(b"\r\n")
                  if line.lower().startswith(b"content-length:"))
    while len(rest) < length:
        rest += sock.recv(4096)
    return head


# ----------------------------------------------------------------------
# malformed requests
# ----------------------------------------------------------------------
def raw_post(server, path, body: bytes):
    """POST bytes the typed client could not have produced; the answer
    must leave the connection usable (a 400, not a dropped socket)."""
    import http.client
    host, port = server.address
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        headers = {"Authorization": "Bearer key-fast",
                   "Content-Type": "application/json"}
        conn.request("POST", path, body=body, headers=headers)
        response = conn.getresponse()
        parsed = json.loads(response.read().decode("utf-8"))
        assert response.getheader("Connection") == "keep-alive"
        conn.request("GET", "/healthz", headers=headers)
        assert conn.getresponse().read()
        return response.status, parsed
    finally:
        conn.close()


def test_malformed_bodies_get_structured_4xx(served_engine):
    __, server, __ = served_engine
    client = client_for(server)
    cases = [
        ({"dataset": "plain"}, 400, "missing_constraint"),
        ({"constraint": {"coeffs": [0.1], "offset": 0.0}}, 400,
         "missing_dataset"),
        ({"dataset": "plain",
          "constraint": {"coeffs": [], "offset": 0.0}}, 400,
         "bad_constraint"),
        ({"dataset": "plain",
          "constraint": {"coeffs": [0.1], "offset": "x"}}, 400,
         "bad_constraint"),
        ({"dataset": "plain", "priority": "high",
          "constraint": {"coeffs": [0.1], "offset": 0.0}}, 400,
         "bad_priority"),
        ({"dataset": "missing",
          "constraint": {"coeffs": [0.1], "offset": 0.0}}, 404,
         "unknown_dataset"),
        ({"dataset": "plain",
          "constraint": {"coeffs": [0.1, 0.2], "offset": 0.0}}, 400,
         "dimension_mismatch"),
        # json.dumps/loads both pass NaN and Infinity through.
        ({"dataset": "plain", "point": [float("nan"), 0.5]}, 400,
         "bad_point"),
        ({"dataset": "sharded", "point": [0.5, float("-inf")]}, 400,
         "bad_point"),
        ({"dataset": "plain",
          "constraint": {"coeffs": [float("nan")], "offset": 0.5}}, 400,
         "bad_constraint"),
        ({"dataset": "plain",
          "constraint": {"coeffs": [0.1], "offset": float("inf")}}, 400,
         "bad_constraint"),
        ({"dataset": "plain", "deadline_s": float("nan"),
          "constraint": {"coeffs": [0.1], "offset": 0.5}}, 400,
         "bad_deadline"),
        ({"dataset": "plain", "deadline_s": float("-inf"),
          "point": [0.5, 0.5]}, 400, "bad_deadline"),
        # An integer literal beyond float range parses to an int that
        # float() and math.isfinite() refuse with OverflowError.
        ({"dataset": "plain",
          "constraint": {"coeffs": [10 ** 400], "offset": 0.5}}, 400,
         "bad_constraint"),
        ({"dataset": "plain",
          "constraint": {"coeffs": [0.1], "offset": -10 ** 400}}, 400,
         "bad_constraint"),
        ({"dataset": "sharded", "point": [0.5, 10 ** 400]}, 400,
         "bad_point"),
        ({"dataset": "plain", "deadline_s": 10 ** 400,
          "constraint": {"coeffs": [0.1], "offset": 0.5}}, 400,
         "bad_deadline"),
        # The stream endpoint's query string: float() parses all three.
        ("/query/stream?dataset=plain&coeffs=nan&offset=0.5", 400,
         "bad_constraint"),
        ("/query/stream?dataset=plain&coeffs=0.1&offset=inf", 400,
         "bad_constraint"),
        ("/query/stream?dataset=plain&coeffs=0.1&offset=0.5"
         "&deadline_s=nan", 400, "bad_deadline"),
        # Raw bodies json.loads refuses with something other than a plain
        # ValueError: nesting past the parser's stack (RecursionError),
        # bytes that are not UTF-8 (UnicodeDecodeError).
        (b"[" * 100000, 400, "bad_json"),
        (b'{"dataset": "plain", "constraint": ' + b"[" * 100000, 400,
         "bad_json"),
        (b'{"dataset": "\xff\xfe"}', 400, "bad_json"),
        (b"[]", 400, "bad_json"),
    ]
    for payload, expected_status, expected_code in cases:
        if isinstance(payload, str):
            status, body = client.request("GET", payload)
        elif isinstance(payload, bytes):
            status, body = raw_post(server, "/query", payload)
        else:
            path = "/insert" if "point" in payload else "/query"
            status, body = client.request("POST", path, payload)
        assert status == expected_status, payload
        assert body["error"]["code"] == expected_code, payload


def test_invalid_json_and_unknown_routes(served_engine):
    __, server, __ = served_engine
    import http.client
    host, port = server.address
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request("POST", "/query", body=b"{not json",
                     headers={"Authorization": "Bearer key-fast",
                              "Content-Type": "application/json"})
        response = conn.getresponse()
        body = json.loads(response.read().decode("utf-8"))
        assert response.status == 400
        assert body["error"]["code"] == "bad_json"
    finally:
        conn.close()
    client = client_for(server)
    status, body = client.request("GET", "/no-such-route")
    assert status == 404
    assert body["error"]["code"] == "unknown_route"
    status, body = client.request("GET", "/query")   # wrong method
    assert status == 405
    status, body = client.request("POST", "/query")  # no body
    assert status == 400
    assert body["error"]["code"] == "empty_body"


def test_wire_parsers_reject_bad_shapes():
    with pytest.raises(HTTPError) as caught:
        parse_query_request({"dataset": "d", "constraint": "nope"}, "t")
    assert caught.value.status == 400
    with pytest.raises(HTTPError):
        parse_stream_query({"dataset": "d", "coeffs": "a,b",
                            "offset": "0.1"}, "t")
    serving = parse_stream_query({"dataset": "d", "coeffs": "0.5,-0.25",
                                  "offset": "0.125", "priority": "2",
                                  "deadline_s": "1.5"}, "t")
    assert serving.constraint.coeffs == (0.5, -0.25)
    assert serving.constraint.offset == 0.125
    assert serving.priority == 2 and serving.deadline_s == 1.5


# ----------------------------------------------------------------------
# mutations over the wire
# ----------------------------------------------------------------------
def test_insert_and_delete_round_trip():
    points = uniform_points(256, seed=13)
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=13)
    engine.register_dataset("d", points, kinds=["dynamic"])
    with engine.serve_http([ApiKey(key="k", tenant="t")]) as server:
        client = client_for(server, "k")
        probe = [0.123, 0.456]
        before = client.query("d", [0.0], 1e9)[1]["answer"]["count"]
        status, body = client.insert("d", probe)
        assert status == 200
        assert body["mutation"]["applied"] is True
        after = client.query("d", [0.0], 1e9)[1]["answer"]["count"]
        assert after == before + 1
        status, body = client.delete("d", probe)
        assert status == 200
        assert body["mutation"]["applied"] is True
        status, body = client.delete("d", probe)   # now absent: no-op
        assert status == 200
        assert body["mutation"]["applied"] is False
        status, body = client.insert("d", [0.1, 0.2, 0.3])   # wrong dim
        assert status == 400
        assert body["error"]["code"] == "dimension_mismatch"
    engine.close()


def test_insert_into_empty_shard_over_http_materializes_it():
    # All build points share leading attribute 0.5, so range sharding
    # leaves every shard but one empty — the historical 500 trap.
    points = np.column_stack([np.full(64, 0.5),
                              np.linspace(-1, 1, 64)])
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=3)
    engine.register_sharded_dataset("s", points, num_shards=4,
                                    sharding="range", kinds=["dynamic"])
    with engine.serve_http([ApiKey(key="k", tenant="t")]) as server:
        client = client_for(server, "k")
        status, body = client.insert("s", [-0.9, 0.0])
        assert status == 200
        assert body["outcome"] == "served"
        assert body["mutation"]["applied"] is True
        status, body = client.query("s", [0.0], 1e9)
        assert body["answer"]["count"] == 65
    engine.close()


def test_writes_on_a_static_suite_are_served():
    """Every suite takes writes (the replica's write overlay): an insert
    into a ``halfplane2d``-only dataset is served and answered."""
    points = uniform_points(128, seed=17)
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=17)
    engine.register_dataset("planar", points, kinds=["halfplane2d"])
    with engine.serve_http([ApiKey(key="k", tenant="t")]) as server:
        client = client_for(server, "k")
        status, body = client.insert("planar", [0.1, -5.0])
        assert status == 200
        assert body["mutation"]["applied"] is True
        status, body = client.query("planar", [0.0], -4.0)
        assert body["answer"]["count"] == 1
    engine.close()


# ----------------------------------------------------------------------
# /stats and the JSON-serializability satellite
# ----------------------------------------------------------------------
def test_stats_endpoint_reports_http_traffic(served_engine):
    __, server, __ = served_engine
    client = client_for(server)
    client.query("plain", [0.3], 0.25)
    client.healthz()
    status, summary = client.stats()
    assert status == 200
    json.dumps(summary, allow_nan=False)   # strict JSON all the way down
    http = summary["http"]
    assert http["/query"]["requests"] >= 1
    assert http["/healthz"]["status"]["200"] >= 1
    latency = http["/query"]["latency_s"]
    assert 0.0 <= latency["p50"] <= latency["p95"] <= latency["p99"]


def test_engine_summary_round_trips_through_strict_json(served_engine):
    """The satellite regression: everything the engine has ever put in
    its summary — numpy scalars, tuples, infinities — must survive
    ``json.dumps`` with ``allow_nan=False``."""
    engine, __, __ = served_engine
    summary = engine.summary()
    assert summary == json.loads(json.dumps(summary, allow_nan=False))


def test_jsonable_normalizes_awkward_values():
    awkward = {
        "np_int": np.int64(7),
        "np_float": np.float32(0.5),
        "array": np.arange(3),
        "tuple": (1, 2),
        "nan": float("nan"),
        "inf": float("inf"),
        "nested": {"key": np.float64(1.25)},
        3: "int-key",
    }
    cleaned = jsonable(awkward)
    assert cleaned == {"np_int": 7, "np_float": 0.5, "array": [0, 1, 2],
                       "tuple": [1, 2], "nan": None, "inf": None,
                       "nested": {"key": 1.25}, "3": "int-key"}
    json.dumps(cleaned, allow_nan=False)


# ----------------------------------------------------------------------
# graceful shutdown
# ----------------------------------------------------------------------
def test_graceful_shutdown_drains_in_flight_requests(monkeypatch):
    points = uniform_points(1024, seed=23)
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=23)
    engine.register_dataset("d", points, kinds=["dynamic"])
    server = engine.serve_http([ApiKey(key="k", tenant="t")])
    host, port = server.address
    outcomes = []
    # The gate: stop() waits until every request has been admitted and
    # handed to a worker, so none can arrive after the listener closes.
    dispatched = threading.Semaphore(0)
    dispatch = engine.executor.core.dispatch

    def counted_dispatch(*args, **kwargs):
        dispatched.release()
        return dispatch(*args, **kwargs)

    monkeypatch.setattr(engine.executor.core, "dispatch", counted_dispatch)

    def slow_client(offset):
        client = ServerClient(host, port, api_key="k")
        outcomes.append(client.query("d", [0.3], offset))

    threads = [threading.Thread(target=slow_client, args=(0.1 * i,))
               for i in range(6)]
    for thread in threads:
        thread.start()
    for __ in threads:
        assert dispatched.acquire(timeout=30.0)
    server.stop(timeout=30.0)
    for thread in threads:
        thread.join(timeout=30.0)
    assert not server.running
    # Every request that made it in before the stop was answered, not
    # reset: the drain finishes admitted work before the loop exits.
    assert len(outcomes) == 6
    for status, body in outcomes:
        assert status == 200
        assert body["outcome"] == "served"
    engine.close()


def test_scheduler_fault_is_a_500_not_a_silent_socket(monkeypatch):
    points = uniform_points(256, seed=43)
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=43)
    engine.register_dataset("d", points, kinds=["dynamic"])
    server = engine.serve_http([ApiKey(key="k", tenant="t")])

    def explode(*args, **kwargs):
        raise ZeroDivisionError("admission blew up")

    monkeypatch.setattr(server.executor.admission, "decide", explode)
    host, port = server.address
    client = ServerClient(host, port, api_key="k", timeout=5.0)
    try:
        # The request pending on the scheduler when it dies...
        status, body = client.query("d", [0.3], 0.1)
        assert status == 500
        assert body["error"]["code"] == "internal_error"
        assert "admission blew up" in body["error"]["message"]
        # ...and every later one: refused loudly, never left waiting.
        status, body = client.query("d", [0.3], 0.2)
        assert status == 500
        assert "not running" in body["error"]["message"]
        assert client.healthz()[0] == 200
        with pytest.raises(RuntimeError, match="scheduler failed") as caught:
            server.stop()
        assert isinstance(caught.value.__cause__, ZeroDivisionError)
    finally:
        server.stop()
        engine.close()


def test_idle_keep_alive_connections_are_reaped():
    import socket

    points = uniform_points(256, seed=41)
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=41)
    engine.register_dataset("d", points, kinds=["dynamic"])
    with engine.serve_http([ApiKey(key="k", tenant="t")],
                           idle_timeout=0.4) as server:
        host, port = server.address

        def raw_get(sock):
            sock.sendall(b"GET /healthz HTTP/1.1\r\n"
                         b"Host: test\r\nX-Api-Key: k\r\n\r\n")
            sock.settimeout(5.0)
            data = b""
            while b"\r\n\r\n" not in data:
                data += sock.recv(4096)
            headers, __, rest = data.partition(b"\r\n\r\n")
            length = 0
            for line in headers.split(b"\r\n"):
                if line.lower().startswith(b"content-length:"):
                    length = int(line.split(b":", 1)[1])
            while len(rest) < length:
                rest += sock.recv(4096)
            return headers

        stale = socket.create_connection((host, port), timeout=5.0)
        active = socket.create_connection((host, port), timeout=5.0)
        try:
            assert raw_get(stale).startswith(b"HTTP/1.1 200")
            assert raw_get(active).startswith(b"HTTP/1.1 200")
            # Keep `active` busy under the deadline; let `stale` sit idle.
            deadline = time.monotonic() + 1.0
            while time.monotonic() < deadline:
                assert raw_get(active).startswith(b"HTTP/1.1 200")
                time.sleep(0.1)
            # The stale connection has been idle > idle_timeout: the
            # server must have closed it (recv sees EOF, not a hang).
            stale.settimeout(5.0)
            assert stale.recv(4096) == b""
            # The active connection survived the whole time.
            assert raw_get(active).startswith(b"HTTP/1.1 200")
        finally:
            stale.close()
            active.close()
    engine.close()


def shutdown_scenario(prepare):
    """Start a server with no idle timeout, answer one keep-alive
    request, let ``prepare(sock)`` leave the connection in some state,
    then stop: the stop must return within two seconds and the socket
    must read EOF with no further response."""
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=47)
    engine.register_dataset("d", uniform_points(256, seed=47),
                            kinds=["dynamic"])
    server = engine.serve_http([ApiKey(key="k", tenant="t")])
    sock = socket.create_connection(server.address, timeout=5.0)
    try:
        sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        assert read_one_response(sock).startswith(b"HTTP/1.1 200")
        prepare(sock)
        time.sleep(0.1)          # the server is waiting on the socket
        started = time.monotonic()
        server.stop(timeout=2.0)
        assert time.monotonic() - started < 2.0
        assert sock.recv(4096) == b""
    finally:
        sock.close()
        server.stop()
        engine.close()


def test_stop_closes_an_idle_keep_alive_connection_promptly():
    shutdown_scenario(lambda sock: None)


def test_stop_closes_a_half_read_request_without_a_response():
    shutdown_scenario(lambda sock: sock.sendall(
        b"POST /query HTTP/1.1\r\nHost: t\r\nX-Api-Key: k\r\n"))


def test_keep_alive_queries_spawn_no_task_and_no_wait(monkeypatch):
    """Serving 50 keep-alive ``POST /query`` requests creates no asyncio
    task beyond the connection's own (its accept and its handler, made by
    the first request) and calls ``asyncio.wait`` not at all, counted on
    the server's loop.  Before the scheduler settled requests from
    completion callbacks, the same 50 requests made 149 tasks and 149
    ``asyncio.wait`` calls — 3 of each per request: a read task raced
    against a per-connection stop waiter, and two scheduler wake-up
    tasks, each under a wait of its own."""
    import asyncio
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=59)
    engine.register_dataset("d", uniform_points(512, seed=59),
                            kinds=["dynamic"])
    server = engine.serve_http([ApiKey(key="k", tenant="t")])
    loop = server._loop
    counts = {"tasks": 0, "waits": 0}

    def counting_factory(loop, coro, **kwargs):
        counts["tasks"] += 1
        return asyncio.Task(coro, loop=loop, **kwargs)

    wait = asyncio.wait

    def counting_wait(*args, **kwargs):
        if asyncio.get_running_loop() is loop:
            counts["waits"] += 1
        return wait(*args, **kwargs)

    monkeypatch.setattr(asyncio, "wait", counting_wait)
    installed = threading.Event()
    loop.call_soon_threadsafe(
        lambda: (loop.set_task_factory(counting_factory), installed.set()))
    conn = http.client.HTTPConnection(*server.address, timeout=10.0)

    def query(offset):
        payload = {"dataset": "d",
                   "constraint": {"coeffs": [0.3], "offset": offset}}
        conn.request("POST", "/query", body=json.dumps(payload),
                     headers={"X-Api-Key": "k"})
        response = conn.getresponse()
        assert response.status == 200
        assert json.loads(response.read())["outcome"] == "served"

    try:
        assert installed.wait(5.0)
        query(0.5)
        assert counts["tasks"] == 2
        counts.update(tasks=0, waits=0)
        for i in range(50):
            query(-0.5 + 0.02 * i)
        assert counts == {"tasks": 0, "waits": 0}
    finally:
        conn.close()
        server.stop()
        engine.close()


def test_idle_timeout_rejects_nonpositive_values():
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=43)
    engine.register_dataset("d", uniform_points(64, seed=43),
                            kinds=["dynamic"])
    with pytest.raises(ValueError):
        EngineServer(engine, [ApiKey(key="k", tenant="t")], idle_timeout=0.0)
    engine.close()


def test_server_restarts_on_the_same_engine():
    points = uniform_points(256, seed=29)
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=29)
    engine.register_dataset("d", points, kinds=["dynamic"])
    keys = [ApiKey(key="k", tenant="t")]
    first = engine.serve_http(keys)
    host, port = first.address
    assert ServerClient(host, port, api_key="k").healthz()[0] == 200
    first.stop()
    second = engine.serve_http(keys)
    host, port = second.address
    status, body = ServerClient(host, port, api_key="k") \
        .query("d", [0.2], 0.3)
    assert status == 200 and body["outcome"] == "served"
    second.stop()
    engine.close()

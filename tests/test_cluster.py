"""Tests for the process layer: shard workers, coordinator, failover.

The tentpole promise is *parity*: process-worker mode must be answer-
and I/O-count-identical to the in-process fan-out (workers rebuild their
replicas deterministically), and killing one worker of a replicated
shard must lose no requests (surviving replica serves) and no writes
(the restarted worker replays the shard's fan-out log).
"""

from __future__ import annotations

import json
import os
import signal
import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro import LinearConstraint, QueryEngine
from repro.engine.cluster import WorkerUnavailable, WriteLog, protocol
from repro.workloads import uniform_points

from conftest import rows

BLOCK_SIZE = 32

EVERYTHING = LinearConstraint(coeffs=(0.0,), offset=1e9)


def make_engine(points, workers, replicas=2, num_shards=4):
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=7, workers=workers)
    engine.register_sharded_dataset("pts", points, num_shards=num_shards,
                                    replicas=replicas,
                                    kinds=["dynamic", "full_scan"])
    return engine


@pytest.fixture(scope="module")
def points2d():
    return uniform_points(600, seed=91)


def constraints(n=10):
    return [LinearConstraint(coeffs=(t,), offset=0.15 * t)
            for t in np.linspace(-1.0, 1.0, n)]


def wait_until(predicate, timeout_s=10.0):
    deadline = time.time() + timeout_s
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return False


# ----------------------------------------------------------------------
# wire protocol
# ----------------------------------------------------------------------
def test_constraint_and_conjunction_round_trip_exactly():
    constraint = LinearConstraint(coeffs=(0.1234567890123456, -3.5),
                                  offset=7.25e-17)
    wire = protocol.query_to_wire(constraint)
    assert wire == {"coeffs": [0.1234567890123456, -3.5],
                    "offset": 7.25e-17}     # the HTTP body's constraint
    back = protocol.query_from_wire(wire)
    assert back == constraint      # bit-identical floats over JSON

    from repro.core.conjunction import ConstraintConjunction, Halfspace
    conjunction = ConstraintConjunction(
        constraints=(constraint,),
        extra_halfspaces=(Halfspace(normal=(0.5, -1.0), offset=0.125),))
    assert protocol.query_from_wire(
        protocol.query_to_wire(conjunction)) == conjunction


@pytest.fixture
def wire():
    """A connected socket pair with a deadline: a codec bug fails a test,
    it never hangs one."""
    near, far = socket.socketpair()
    near.settimeout(5.0)
    far.settimeout(5.0)
    yield near, far
    near.close()
    far.close()


def send_in_background(sock, payload):
    """Send from a thread: a 160 KB frame outgrows the socket buffer."""
    thread = threading.Thread(target=protocol.send_message,
                              args=(sock, payload))
    thread.start()
    return thread


HOSTILE_VALUES = [-0.0, 5e-324, -2.2250738585072014e-308, 1.797e308,
                  -1.797e308, 0.1, 1.0 / 3.0]


@pytest.mark.parametrize("rows", [0, 1, 4096])
@pytest.mark.parametrize("cols", [2, 3, 5])
def test_answer_frames_round_trip_bit_identically(wire, rows, cols):
    near, far = wire
    rng = np.random.default_rng(rows + cols)
    matrix = rng.uniform(-1.0, 1.0, size=(rows, cols))
    matrix.reshape(-1)[:len(HOSTILE_VALUES)] = \
        HOSTILE_VALUES[:matrix.size]
    response = {"ok": True, "points": matrix,
                "ios": {"reads": 7, "writes": 0, "cache_hits": 3},
                "span": {"name": "worker.query", "duration_s": 0.25}}
    sender = send_in_background(near, response)
    received = protocol.recv_message(far)
    sender.join(5.0)
    assert not sender.is_alive()
    points = received.pop("points")
    assert points.shape == (rows, cols)
    assert points.tobytes() == matrix.tobytes()
    assert not points.flags.writeable
    # Every other field of the response rides the JSON header untouched.
    assert received == {key: value for key, value in response.items()
                        if key != "points"}
    # The answer is the received matrix itself.
    assert protocol.points_from_wire(points) is points


@pytest.mark.parametrize("layout", ["strided", "fortran", "big_endian"])
def test_answer_frames_normalise_layout_and_byte_order(wire, layout):
    near, far = wire
    base = np.random.default_rng(4).uniform(-1.0, 1.0, size=(64, 6))
    base[0, :4] = [-0.0, 5e-324, 1.797e308, -1.797e308]
    matrix = {"strided": base[::2, ::2],
              "fortran": np.asfortranarray(base),
              "big_endian": base.astype(">f8")}[layout]
    sender = send_in_background(near, {"ok": True, "points": matrix})
    points = protocol.recv_message(far)["points"]
    sender.join(5.0)
    assert points.shape == matrix.shape
    assert points.tobytes() == \
        np.ascontiguousarray(matrix, dtype="<f8").tobytes()


def test_points_to_wire_is_an_array_adaptor():
    tuples = [(0.5, -0.0), (5e-324, 1.797e308)]
    matrix = protocol.points_to_wire(tuples)
    assert isinstance(matrix, np.ndarray) and matrix.shape == (2, 2)
    assert matrix.tobytes() == np.asarray(tuples).tobytes()
    answer = protocol.points_from_wire(matrix)
    assert list(map(tuple, answer.tolist())) == tuples
    assert protocol.points_to_wire(answer) is answer        # no copy


def test_pure_json_frames_are_byte_for_byte_what_they_were(wire):
    near, far = wire
    frames = [
        {"op": "ping"},
        {"op": "insert", "point": protocol.point_to_wire((0.25, -1.5)),
         "seq": 3},
        {"op": "warm", "cache_blocks": 8, "at_least": True},
        {"ok": True, "applied": True, "ios": 2, "duplicate": False,
         "seq": 3},
        # A JSON-list ``points`` is not an answer matrix: plain JSON.
        {"ok": True, "points": [[0.5, 0.25]]},
    ]
    for payload in frames:
        protocol.send_message(near, payload)
        body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        expected = struct.pack(">I", len(body)) + body
        assert far.recv(len(expected) + 1) == expected
        protocol.send_message(near, payload)
        assert protocol.recv_message(far) == payload


def mixed_frame(header: bytes, blob: bytes) -> bytes:
    body = struct.pack(">I", len(header)) + header + blob
    return struct.pack(">I", len(body)) + body


def json_frame(body: bytes) -> bytes:
    return struct.pack(">I", len(body)) + body


MALFORMED_FRAMES = {
    "truncated blob": mixed_frame(b'{"ok":true,"points":[4,2]}',
                                  b"\0" * (4 * 2 * 8 - 1)),
    "header lies about rows x cols": mixed_frame(
        b'{"ok":true,"points":[5,2]}', b"\0" * (4 * 2 * 8)),
    "negative shape": mixed_frame(b'{"ok":true,"points":[-1,-8]}',
                                  b"\0" * 64),
    "empty blob under an absurd width": mixed_frame(
        b'{"ok":true,"points":[0,1000000000000000000000000000000]}', b""),
    "shape is not two integers": mixed_frame(
        b'{"ok":true,"points":[2.0,4]}', b"\0" * 64),
    "blob without a points field": mixed_frame(b'{"ok":true}', b"\0" * 8),
    "header length beyond the frame": struct.pack(">II", 12, 4096)
    + b'{"ok":1}',
    "invalid UTF-8 in a header": mixed_frame(b'{"ok":"\xff\xfe"}', b""),
    "non-object header": mixed_frame(b'[4,2]', b"\0" * 64),
    "deeply nested header": mixed_frame(b"[" * 100000, b""),
    "invalid UTF-8": json_frame(b'{"ok":"\xff\xfe"}'),
    "not JSON": json_frame(b"{not json"),
    "deeply nested JSON": json_frame(b'{"a":' + b"[" * 100000),
    "non-object JSON": json_frame(b"[]"),
    "empty body": json_frame(b""),
    "oversize frame": struct.pack(">I", protocol.MAX_MESSAGE_BYTES + 1),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FRAMES))
def test_malformed_frames_raise_protocol_error_promptly(wire, case):
    near, far = wire
    near.sendall(MALFORMED_FRAMES[case])
    started = time.perf_counter()
    with pytest.raises(protocol.ProtocolError):
        protocol.recv_message(far)
    assert time.perf_counter() - started < 2.0


def test_peer_closing_mid_frame_is_a_connection_error(wire):
    near, far = wire
    near.sendall(mixed_frame(b'{"ok":true,"points":[4,2]}',
                             b"\0" * 64)[:-10])
    near.close()
    with pytest.raises(ConnectionError):
        protocol.recv_message(far)


@pytest.mark.parametrize("reply", [json_frame(b'{"a":' + b"[" * 100000),
                                   json_frame(b"[]")])
def test_client_drops_the_connection_on_an_undecodable_reply(reply):
    """A frame the decoder refuses marks the worker unavailable and closes
    the socket — it is neither leaked nor returned to the pool."""
    from repro.engine.cluster import WorkerClient
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    closed_by_client = []

    def answer_once():
        connection, __ = listener.accept()
        connection.settimeout(5.0)
        with connection:
            protocol.recv_message(connection)
            connection.sendall(reply)
            closed_by_client.append(connection.recv(1) == b"")

    server = threading.Thread(target=answer_once)
    server.start()
    client = WorkerClient(listener.getsockname(), timeout_s=5.0)
    try:
        with pytest.raises(WorkerUnavailable):
            client.call({"op": "ping"})
        server.join(5.0)
        assert closed_by_client == [True]
        assert client._idle == []
    finally:
        client.close()
        listener.close()


def test_write_log_orders_and_clears():
    log = WriteLog()
    assert log.append("d", 0, "insert", (1.0, 2.0)) == 1
    assert log.append("d", 0, "delete", (1.0, 2.0)) == 2
    assert log.append("d", 1, "insert", (3.0, 4.0)) == 1   # per-shard seqs
    assert [entry[0] for entry in log.entries("d", 0)] == [1, 2]
    assert log.sizes() == {"d#0": 2, "d#1": 1}
    log.check_invariants()
    assert log.clear_dataset("d") == 3
    assert log.entries("d", 0) == []
    log.check_invariants()


@pytest.mark.parametrize("corrupt", [
    lambda log: log._entries[("d", 0)].pop(0),          # a gap before 2
    lambda log: log._next_seq.__setitem__(("d", 0), 3),  # counter ahead
    lambda log: log._entries[("d", 0)].reverse(),        # out of order
])
def test_a_broken_write_log_raises(corrupt):
    log = WriteLog()
    for op in ("insert", "delete"):
        log.append("d", 0, op, (1.0, 2.0))
    corrupt(log)
    with pytest.raises(AssertionError, match="d#0"):
        log.check_invariants()


# ----------------------------------------------------------------------
# mode parity (the tentpole acceptance criterion)
# ----------------------------------------------------------------------
def test_process_mode_matches_inprocess_answers_and_ios(points2d):
    inproc = make_engine(points2d, "inprocess")
    procs = make_engine(points2d, "process")
    try:
        for constraint in constraints():
            a = inproc.query("pts", constraint, clear_cache=True)
            b = procs.query("pts", constraint, clear_cache=True)
            assert sorted(map(tuple, a.points)) \
                == sorted(map(tuple, b.points))
            assert a.total_ios == b.total_ios
            assert a.ios.cache_hits == b.ios.cache_hits
        # Replica-level attribution matches too: the same replica served
        # the same shard queries and charged the same I/Os.
        assert inproc.stats.summary()["replica_load"] \
            == procs.stats.summary()["replica_load"]
    finally:
        inproc.close()
        procs.close()


def test_process_mode_parity_survives_writes(points2d):
    inproc = make_engine(points2d, "inprocess")
    procs = make_engine(points2d, "process")
    rng = np.random.default_rng(5)
    try:
        for __ in range(32):
            point = tuple(rng.uniform(-1.0, 1.0, size=2))
            assert inproc.insert("pts", point).applied
            assert procs.insert("pts", point).applied
        deletions = [tuple(rng.uniform(-1.0, 1.0, size=2))
                     for __ in range(4)]
        for point in deletions:
            inproc.insert("pts", point)
            procs.insert("pts", point)
        for point in deletions:
            assert inproc.delete("pts", point).applied
            assert procs.delete("pts", point).applied
        for constraint in constraints():
            a = inproc.query("pts", constraint, clear_cache=True)
            b = procs.query("pts", constraint, clear_cache=True)
            assert sorted(map(tuple, a.points)) \
                == sorted(map(tuple, b.points))
            assert a.total_ios == b.total_ios
    finally:
        inproc.close()
        procs.close()


def test_process_mode_serves_conjunctions(points2d):
    from repro.core.conjunction import ConstraintConjunction
    conjunction = ConstraintConjunction(constraints=(
        LinearConstraint(coeffs=(0.4,), offset=0.3),
        LinearConstraint(coeffs=(-0.7,), offset=0.5)))
    inproc = make_engine(points2d, "inprocess")
    procs = make_engine(points2d, "process")
    try:
        a = inproc.query("pts", conjunction, clear_cache=True)
        b = procs.query("pts", conjunction, clear_cache=True)
        assert sorted(map(tuple, a.points)) == sorted(map(tuple, b.points))
        assert a.total_ios == b.total_ios
    finally:
        inproc.close()
        procs.close()


def test_workers_env_variable_selects_mode(points2d, monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "process")
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=7)
    assert engine.workers == "process" and engine.cluster is not None
    engine.close()
    monkeypatch.delenv("REPRO_WORKERS")
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=7)
    assert engine.workers == "inprocess" and engine.cluster is None
    engine.close()
    with pytest.raises(ValueError):
        QueryEngine(workers="threads")


def test_summary_reports_cluster_topology(points2d):
    engine = make_engine(points2d, "process")
    try:
        cluster = engine.summary()["cluster"]
        assert cluster["mode"] == "process"
        assert cluster["datasets"] == ["pts"]
        listing = cluster["workers"]["pts"]
        assert len(listing) == 8          # 4 shards x 2 replicas
        assert all(entry["state"] == "live" for entry in listing)
    finally:
        engine.close()


def test_explain_analyze_reconciles_across_the_boundary(points2d):
    engine = make_engine(points2d, "process")
    try:
        report = engine.explain("pts", LinearConstraint(coeffs=(0.3,),
                                                        offset=0.2),
                                analyze=True)
        worker_spans = []

        def walk(node):
            if node["name"] == "worker.query":
                worker_spans.append(node)
            for child in node.get("children", []):
                walk(child)

        walk(report["trace"]["root"]
             if "root" in report["trace"] else report["trace"])
        assert worker_spans, "no worker span crossed the process boundary"
        for span in worker_spans:
            assert span["attributes"]["trace_id"] == report["trace_id"]
            assert span["attributes"]["pid"] != os.getpid()
        # The per-shard worker I/Os reconcile with the report's actuals.
        assert sum(span["attributes"]["ios"] for span in worker_spans) \
            == report["actual_ios"]
    finally:
        engine.close()


# ----------------------------------------------------------------------
# failover: kill a worker mid-wave (satellite acceptance criterion)
# ----------------------------------------------------------------------
def test_worker_death_mid_wave_loses_no_requests(points2d):
    engine = make_engine(points2d, "process")
    reference = make_engine(points2d, "inprocess")
    queries = constraints(8)
    try:
        expected = {}
        for constraint in queries:
            answer = reference.query("pts", constraint, clear_cache=True)
            expected[constraint.coeffs] = (
                sorted(map(tuple, answer.points)), answer.total_ios)

        victim = engine.cluster.worker("pts", 0, 0)
        results, errors = [], []

        def serve(constraint):
            try:
                results.append(
                    (constraint,
                     engine.query("pts", constraint, clear_cache=True)))
            except Exception as exc:  # pragma: no cover - fail the test
                errors.append(exc)

        threads = [threading.Thread(target=serve, args=(constraint,))
                   for constraint in queries for __ in range(2)]
        for thread in threads[: len(threads) // 2]:
            thread.start()
        os.kill(victim.pid, signal.SIGKILL)      # mid-wave
        for thread in threads[len(threads) // 2:]:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert len(results) == len(threads)      # every request answered
        for constraint, answer in results:
            points, ios = expected[constraint.coeffs]
            assert sorted(map(tuple, answer.points)) == points
            # A failed attempt charges nothing: the I/Os are exactly the
            # serving replica's, never lost, never double-counted.
            assert answer.total_ios == ios
        engine.cluster.check_invariants()
    finally:
        engine.close()
        reference.close()


def test_restarted_worker_replays_missed_writes(points2d):
    engine = make_engine(points2d, "process", num_shards=2)
    try:
        # Route writes into shard 0 deterministically: points below the
        # range boundary on attribute 0.
        boundary = engine.catalog.sharded("pts").router.boundaries[0]
        low = float(min(p[0] for p in points2d))
        missed = [((low + boundary) / 2.0, 0.1 * i) for i in range(6)]

        victim = engine.cluster.worker("pts", 0, 0)
        os.kill(victim.pid, signal.SIGKILL)
        assert wait_until(lambda: not victim.process.is_alive())
        for point in missed:
            assert engine.insert("pts", point).applied   # logged, not lost
        engine.cluster.check_invariants()

        engine.cluster.check_workers()
        engine.cluster.check_invariants()
        restarted = engine.cluster.worker("pts", 0, 0)
        assert restarted is not None and restarted.pid != victim.pid
        assert restarted.last_seq == len(missed)
        stats = engine.cluster.worker_stats("pts", 0, 0)
        assert stats["last_seq"] == len(missed)          # replayed in order
        assert stats["writes"] == len(missed)

        # The restarted worker answers with the missed points included.
        answer = engine.query("pts", EVERYTHING, clear_cache=True)
        answered = {tuple(p) for p in answer.points}
        assert all(tuple(point) in answered for point in missed)
        assert restarted.served > 0 or engine.cluster.worker(
            "pts", 0, 1).served > 0
        restarted.last_seq -= 1              # a worker left behind the log
        with pytest.raises(AssertionError, match="at seq 5"):
            engine.cluster.check_invariants()
    finally:
        engine.close()


def test_all_workers_dead_falls_back_to_local_state(points2d):
    engine = make_engine(points2d, "process", replicas=1, num_shards=2)
    try:
        baseline = engine.query("pts", EVERYTHING, clear_cache=True)
        for shard_id in range(2):
            handle = engine.cluster.worker("pts", shard_id, 0)
            os.kill(handle.pid, signal.SIGKILL)
            assert wait_until(lambda: not handle.process.is_alive())
        answer = engine.query("pts", EVERYTHING, clear_cache=True)
        assert sorted(map(tuple, answer.points)) \
            == sorted(map(tuple, baseline.points))
        assert answer.total_ios == baseline.total_ios
        engine.cluster.check_invariants()
    finally:
        engine.close()


def test_index_built_after_spawn_is_served_locally():
    # Workers rebuild their replica from the suite recorded at spawn; an
    # index the catalog builds afterwards exists only in the parent, so
    # a plan routed to it "cannot be served" by a worker — the existing
    # None -> local-fallback contract, not a WorkerError.
    points = uniform_points(2000, seed=91)
    selective = LinearConstraint(coeffs=(0.2,), offset=-0.9)
    answers = {}
    for mode in ("inprocess", "process"):
        engine = QueryEngine(block_size=BLOCK_SIZE, seed=7, workers=mode)
        try:
            engine.register_sharded_dataset("pts", points, num_shards=2,
                                            kinds=["full_scan"])
            engine.query("pts", EVERYTHING, clear_cache=True)
            engine.catalog.build_sharded_index("pts", "partition_tree")
            answer = engine.query("pts", selective, clear_cache=True)
            assert answer.index_name == "partition_tree"
            if mode == "process":
                # The spawn-time suite ran on the workers; the new
                # index did not.
                assert [engine.cluster.worker("pts", shard_id, 0).served
                        for shard_id in range(2)] == [1, 1]
            answers[mode] = answer
        finally:
            engine.close()
    assert rows(answers["process"]) == rows(answers["inprocess"])
    assert answers["process"].ios == answers["inprocess"].ios
    assert answers["process"].count > 0


def test_worker_metrics_reach_the_scrape_from_the_heartbeats(points2d):
    """Each worker's counts are ``engine_worker_*`` gauges under its
    replica name: the handle's and its last heartbeat's, read at scrape
    time with no RPC; a restarted worker's ``restarts`` reads 1."""
    from repro.engine.obs import render_prometheus
    engine = make_engine(points2d, "process", replicas=1, num_shards=2)
    try:
        for constraint in constraints(12):
            engine.query("pts", constraint, clear_cache=True)
        victim = engine.cluster.worker("pts", 0, 0)
        victim.process.kill()
        victim.process.join()
        engine.cluster.check_workers()      # restarts it, beats the other
        handles = [engine.cluster.worker("pts", shard_id, 0)
                   for shard_id in range(2)]
        assert handles[1].served > 0
        calls = []                          # this thread's (not the monitor's)
        for handle in handles:
            def call(*args, _call=handle.client.call, **kwargs):
                if threading.get_ident() == scraper:
                    calls.append(args)
                return _call(*args, **kwargs)
            handle.client.call = call
        scraper = threading.get_ident()
        engine.stats.refresh_model_metrics()
        scraped = dict(
            line.split(" ") for line
            in render_prometheus(engine.stats.registry).splitlines()
            if line.startswith("engine_worker_"))
        assert calls == []                  # the scrape made no RPC
        assert len(scraped) == 9 * len(handles)
        for handle, restarts in zip(handles, (1, 0)):
            beat = handle.heartbeat
            assert beat["served"] == handle.served
            assert beat["last_seq"] == handle.last_seq
            assert beat["peak_rss_bytes"] > 0
            for suffix, value in (
                    ("served", handle.served), ("writes", beat["writes"]),
                    ("last_seq", handle.last_seq), ("restarts", restarts),
                    ("ios", beat["ios"]["reads"] + beat["ios"]["writes"])):
                assert float(scraped['engine_worker_%s{worker="%s"}' % (
                    suffix, handle.replica_name)]) == value
            # (the monitor's next beat may have moved the peak since)
            assert float(scraped['engine_worker_peak_rss_bytes{worker="%s"}'
                               % handle.replica_name]) > 0
            assert handle.restarts == restarts
    finally:
        engine.close()


def test_worker_wire_bytes_count_the_answer_frames(points2d):
    """A worker counts the RPC frame bytes it receives and sends; its
    heartbeat carries both and the scrape publishes them per worker, so
    an answer's float64 bytes show on the worker that sent them."""
    from repro.engine.obs import render_prometheus
    engine = make_engine(points2d, "process", replicas=1, num_shards=1)
    try:
        engine.cluster.check_workers()
        before = engine.cluster.worker_stats("pts", 0, 0)
        answer = engine.query("pts", EVERYTHING, clear_cache=True)
        engine.cluster.check_workers()
        after = engine.cluster.worker_stats("pts", 0, 0)
        assert answer.count == len(points2d)
        assert (after["wire_bytes_sent"] - before["wire_bytes_sent"]
                >= answer.points.nbytes)
        assert after["wire_bytes_received"] > before["wire_bytes_received"]
        engine.stats.refresh_model_metrics()
        scraped = dict(
            line.split(" ") for line
            in render_prometheus(engine.stats.registry).splitlines()
            if line.startswith("engine_worker_wire_bytes_"))
        name = engine.cluster.worker("pts", 0, 0).replica_name
        for direction in ("received", "sent"):
            # The monitor's next beat may have raised it since.
            assert float(scraped['engine_worker_wire_bytes_%s{worker="%s"}'
                                 % (direction, name)]) \
                >= after["wire_bytes_" + direction]
    finally:
        engine.close()


def test_worker_codec_seconds_reach_the_scrape_and_grow():
    """A worker adds up the CPU seconds its connection threads spend on
    RPC frames (reading and decoding requests, encoding and writing
    responses; waits left out); the heartbeat carries the total and the
    scrape publishes it as ``engine_worker_codec_seconds``, which rises
    as more 4 096-point answers are sent."""
    from repro.engine.obs import render_prometheus
    engine = make_engine(uniform_points(4096, seed=93), "process",
                         replicas=1, num_shards=1)

    def scrape():
        engine.cluster.check_workers()
        engine.stats.refresh_model_metrics()
        name = engine.cluster.worker("pts", 0, 0).replica_name
        return dict(
            line.split(" ") for line
            in render_prometheus(engine.stats.registry).splitlines()
            if line.startswith("engine_worker_codec_seconds")
        )['engine_worker_codec_seconds{worker="%s"}' % name]

    def serve(first, count):
        for offset in range(first, first + count):
            # Distinct offsets: every answer is encoded, none cached.
            answer = engine.query("pts", LinearConstraint(
                coeffs=(0.0,), offset=1e9 + offset), clear_cache=True)
            assert answer.count == 4096

    try:
        serve(0, 4)
        before = float(scrape())
        assert before > 0.0
        serve(4, 8)
        assert float(scrape()) > before
    finally:
        engine.close()


def test_worker_write_application_is_seq_idempotent(points2d):
    engine = make_engine(points2d, "process", num_shards=2)
    try:
        handle = engine.cluster.worker("pts", 0, 0)
        before = engine.cluster.worker_stats("pts", 0, 0)
        payload = {"op": "insert", "point": [-5.0, -5.0], "seq": 1}
        first = handle.client.call(payload)
        second = handle.client.call(payload)             # duplicate seq
        assert first["applied"] and not first["duplicate"]
        assert second["duplicate"] and not second["applied"]
        engine.cluster.check_workers()              # a fresh heartbeat
        after = engine.cluster.worker_stats("pts", 0, 0)
        assert after["writes"] == before["writes"] + 1
    finally:
        engine.close()


# ----------------------------------------------------------------------
# lifecycle: rebalance, zero-point shards, direct-mutation bypass
# ----------------------------------------------------------------------
def test_rebalance_restarts_workers_and_clears_log(points2d):
    engine = make_engine(points2d, "process", num_shards=2)
    rng = np.random.default_rng(3)
    try:
        for __ in range(8):
            engine.insert("pts", tuple(rng.uniform(-1.0, 1.0, size=2)))
        assert engine.cluster.log.sizes()
        old_pids = {handle.pid for handle in (
            engine.cluster.worker("pts", shard_id, replica_id)
            for shard_id in range(2) for replica_id in range(2))}
        engine.cluster.check_invariants()
        engine.rebalance("pts")
        assert engine.cluster.log.sizes() == {}    # absorbed by the split
        engine.cluster.check_invariants()
        new_pids = {handle.pid for handle in (
            engine.cluster.worker("pts", shard_id, replica_id)
            for shard_id in range(2) for replica_id in range(2))}
        assert old_pids.isdisjoint(new_pids)
        reference = make_engine(points2d, "inprocess", num_shards=2)
        try:
            rng2 = np.random.default_rng(3)
            for __ in range(8):
                reference.insert("pts",
                                 tuple(rng2.uniform(-1.0, 1.0, size=2)))
            reference.rebalance("pts")
            a = reference.query("pts", EVERYTHING, clear_cache=True)
            b = engine.query("pts", EVERYTHING, clear_cache=True)
            assert sorted(map(tuple, a.points)) \
                == sorted(map(tuple, b.points))
            assert a.total_ios == b.total_ios
        finally:
            reference.close()
    finally:
        engine.close()


def test_materialized_shard_gets_workers(points2d):
    # Hash-shard a tiny dataset so one shard is built over no point: its
    # workers are spawned with the dataset's, and its first insert is
    # broadcast to them.
    tiny = [(float(i), float(i)) for i in range(4)]
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=7, workers="process")
    engine.register_sharded_dataset("tiny", tiny, num_shards=4,
                                    sharding="hash", replicas=1,
                                    kinds=["dynamic", "full_scan"])
    try:
        sharded = engine.catalog.sharded("tiny")
        empty = next(s for s in sharded.shards
                     if s.planning_dataset().live_size == 0)
        assert engine.cluster.worker("tiny", empty.shard_id, 0).alive
        probe = (100.0, 100.0)
        target = sharded.router.shard_of(probe)
        if target != empty.shard_id:
            candidates = (tuple(map(float, p)) for p in
                          np.random.default_rng(0).uniform(
                              -50, 50, size=(256, 2)))
            probe = next(p for p in candidates
                         if sharded.router.shard_of(p) == empty.shard_id)
        assert engine.insert("tiny", probe).applied
        handle = engine.cluster.worker("tiny", empty.shard_id, 0)
        assert handle is not None and handle.alive
        engine.cluster.check_workers()              # a fresh heartbeat
        stats = engine.cluster.worker_stats("tiny", empty.shard_id, 0)
        assert stats["last_seq"] >= 1                   # saw its insert
        answer = engine.query("tiny", EVERYTHING, clear_cache=True)
        assert tuple(probe) in {tuple(p) for p in answer.points}
    finally:
        engine.close()


def test_client_raises_unavailable_for_unreachable_worker():
    from repro.engine.cluster import WorkerClient
    client = WorkerClient(("127.0.0.1", 1), timeout_s=0.5)
    with pytest.raises(WorkerUnavailable):
        client.ping(timeout_s=0.5)
    client.close()


def test_serving_and_http_paths_work_in_process_mode(points2d):
    from repro.engine import ServingRequest
    engine = make_engine(points2d, "process")
    reference = make_engine(points2d, "inprocess")
    try:
        requests = [ServingRequest(tenant="t", dataset="pts",
                                   constraint=constraint)
                    for constraint in constraints(6)]
        served = engine.serve_async(requests)
        baseline = reference.serve_async(requests)
        assert [sorted(map(tuple, item.answer.points))
                for item in served.requests] \
            == [sorted(map(tuple, item.answer.points))
                for item in baseline.requests]
    finally:
        engine.close()
        reference.close()


def test_bulk_answers_reach_the_socket_unboxed(monkeypatch):
    """One float64 matrix from the scan kernels to the HTTP socket, in
    both worker modes: with ``matrix_rows`` refusing to run (in the
    forked workers too) a bulk answer is still served, counted and
    cached."""
    from repro.core import kernels
    from repro.engine.server import ApiKey, ServerClient
    points = uniform_points(3000, seed=17)
    bulk = LinearConstraint(coeffs=(0.3,), offset=0.4)
    other = LinearConstraint(coeffs=(-0.2,), offset=0.6)
    oracle = sorted(tuple(p) for p in points.tolist() if bulk.below(p))
    assert len(oracle) > 1500

    def refuse(matrix):
        raise AssertionError("a point was boxed on the hot path")

    engines = {}
    try:
        with monkeypatch.context() as patch:
            patch.setattr(kernels, "matrix_rows", refuse)
            for mode in ("inprocess", "process"):
                engines[mode] = make_engine(points, mode)
            answers = {}
            for mode, engine in engines.items():
                with engine.serve_http([ApiKey(key="k", tenant="t")]) \
                        as server:
                    client = ServerClient(*server.address, api_key="k")
                    status, body = client.query("pts", bulk.coeffs,
                                                bulk.offset)
                    assert status == 200, body
                    assert not body["answer"]["from_result_cache"]
                    assert body["answer"]["count"] == len(oracle)
                    assert sorted(map(tuple, body["answer"]["points"])) \
                        == oracle
                    status, again = client.query("pts", bulk.coeffs,
                                                 bulk.offset)
                    assert again["answer"]["from_result_cache"]
                    assert again["answer"]["points"] \
                        == body["answer"]["points"]
                first = engine.query("pts", other)
                hit = engine.query("pts", other)
                assert first.count == hit.count == sum(
                    other.below(p) for p in points.tolist())
                assert hit.from_result_cache
                # Cached answers are immutable: a hit shares the stored
                # array, it does not copy it.
                assert hit.points is first.points
                assert not hit.points.flags.writeable
                answers[mode] = hit
        hit = answers["process"]
        # Order-exact across worker modes, matrix and rows alike.
        assert rows(hit) == rows(answers["inprocess"])
        assert hit.points.tobytes() == answers["inprocess"].points.tobytes()
    finally:
        for engine in engines.values():
            engine.close()


_ORPHAN_SCRIPT = '''
import atexit
import time

# Exit work registered before multiprocessing's own handler runs after
# it: the window in which a live monitor sees its workers terminated.
atexit.register(time.sleep, 0.3)

from repro import QueryEngine
from repro.engine.cluster import Coordinator
from repro.workloads import uniform_points

engine = QueryEngine(block_size=32, seed=7, workers="inprocess")
engine.register_sharded_dataset("pts", uniform_points(300, seed=3),
                                num_shards=2, replicas=2,
                                kinds=["full_scan"])
fleet = Coordinator(engine.catalog, heartbeat_interval_s=0.02)
fleet.start_dataset("pts")
print(" ".join(str(worker["pid"])
               for worker in fleet.describe()["workers"]["pts"]),
      flush=True)
'''


@pytest.mark.skipif(not os.path.isdir("/proc/self"),
                    reason="scans /proc for forked workers")
def test_no_worker_outlives_an_owner_that_exits_without_stop(tmp_path):
    # multiprocessing's exit handler terminates the daemonic workers; a
    # monitor still running would see them dead and fork replacements
    # nobody reaps.  Forked workers keep the script's command line, so
    # the scan finds re-forked ones as well as the printed pids.
    import subprocess
    import sys
    import repro
    script = tmp_path / "fleet_that_never_stops.py"
    script.write_text(_ORPHAN_SCRIPT)

    def survivors():
        found = []
        for entry in os.listdir("/proc"):
            if entry.isdigit():
                try:
                    with open("/proc/%s/cmdline" % entry, "rb") as handle:
                        if str(script).encode() in handle.read():
                            found.append(int(entry))
                except OSError:
                    pass  # exited while we looked
        return found

    source = os.path.dirname(os.path.dirname(repro.__file__))
    output = tmp_path / "output.txt"
    try:
        # Output goes to a file: a pipe would be held open by any orphan.
        with open(output, "w") as sink:
            subprocess.run(
                [sys.executable, str(script)], stdout=sink,
                stderr=subprocess.STDOUT, timeout=60, check=True,
                env=dict(os.environ, PYTHONPATH=source))
        assert len(output.read_text().split()) == 4, output.read_text()
        time.sleep(1.0)
        assert survivors() == []
    finally:
        for pid in survivors():
            os.kill(pid, signal.SIGKILL)

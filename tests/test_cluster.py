"""Tests for the process layer: shard workers, coordinator, failover.

The tentpole promise is *parity*: process-worker mode must be answer-
and I/O-count-identical to the in-process fan-out (workers rebuild their
replicas deterministically), and killing one worker of a replicated
shard must lose no requests (surviving replica serves) and no writes
(the restarted worker replays the shard's fan-out log).
"""

from __future__ import annotations

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro import LinearConstraint, QueryEngine
from repro.engine.cluster import WorkerUnavailable, WriteLog, protocol
from repro.workloads import uniform_points

BLOCK_SIZE = 32

EVERYTHING = LinearConstraint(coeffs=(0.0,), offset=1e9)


def make_engine(points, workers, replicas=2, num_shards=4, **kwargs):
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=7, workers=workers,
                         fanout_workers=4, **kwargs)
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
    wire = protocol.constraint_to_wire(constraint)
    back = protocol.constraint_from_wire(wire)
    assert back == constraint      # bit-identical floats over JSON

    from repro.core.conjunction import ConstraintConjunction, Halfspace
    conjunction = ConstraintConjunction(
        constraints=(constraint,),
        extra_halfspaces=(Halfspace(normal=(0.5, -1.0), offset=0.125),))
    assert protocol.conjunction_from_wire(
        protocol.conjunction_to_wire(conjunction)) == conjunction


def test_write_log_orders_and_clears():
    log = WriteLog()
    assert log.append("d", 0, "insert", (1.0, 2.0)) == 1
    assert log.append("d", 0, "delete", (1.0, 2.0)) == 2
    assert log.append("d", 1, "insert", (3.0, 4.0)) == 1   # per-shard seqs
    assert [entry[0] for entry in log.entries("d", 0)] == [1, 2]
    assert log.sizes() == {"d#0": 2, "d#1": 1}
    assert log.clear_dataset("d") == 3
    assert log.entries("d", 0) == []


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
        assert inproc.stats.replica_load_summary() \
            == procs.stats.replica_load_summary()
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
        a = inproc.query_conjunction("pts", conjunction, clear_cache=True)
        b = procs.query_conjunction("pts", conjunction, clear_cache=True)
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

        engine.cluster.check_workers(restart=True)
        restarted = engine.cluster.worker("pts", 0, 0)
        assert restarted is not None and restarted.pid != victim.pid
        stats = engine.cluster.worker_stats("pts", 0, 0)
        assert stats["last_seq"] == len(missed)          # replayed in order
        assert stats["writes"] == len(missed)

        # The restarted worker answers with the missed points included.
        answer = engine.query("pts", EVERYTHING, clear_cache=True)
        answered = {tuple(p) for p in answer.points}
        assert all(tuple(point) in answered for point in missed)
        assert restarted.served > 0 or engine.cluster.worker(
            "pts", 0, 1).served > 0
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
    assert answers["process"].points == answers["inprocess"].points
    assert answers["process"].ios == answers["inprocess"].ios
    assert answers["process"].count > 0


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
        after = engine.cluster.worker_stats("pts", 0, 0)
        assert after["writes"] == before["writes"] + 1
    finally:
        engine.close()


# ----------------------------------------------------------------------
# lifecycle: rebalance, lazy materialization, direct-mutation bypass
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
        engine.rebalance("pts")
        assert engine.cluster.log.sizes() == {}    # absorbed by the split
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
    # Hash-shard a tiny dataset so one shard starts empty, then insert
    # into it: the materialize listener must spawn its workers before
    # the first logged write broadcasts.
    tiny = [(float(i), float(i)) for i in range(4)]
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=7, workers="process")
    engine.register_sharded_dataset("tiny", tiny, num_shards=4,
                                    sharding="hash", replicas=1,
                                    kinds=["dynamic", "full_scan"])
    try:
        sharded = engine.catalog.sharded("tiny")
        empty = next(s for s in sharded.shards if s.is_empty)
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
        stats = engine.cluster.worker_stats("tiny", empty.shard_id, 0)
        assert stats["last_seq"] >= 1                   # saw its insert
        answer = engine.query("tiny", EVERYTHING, clear_cache=True)
        assert tuple(probe) in {tuple(p) for p in answer.points}
    finally:
        engine.close()


def test_direct_index_mutation_bypasses_the_dataset(points2d):
    engine = make_engine(points2d, "process", replicas=1, num_shards=2)
    try:
        shard = engine.catalog.sharded("pts").shards[0]
        index = shard.replicas[0].indexes["dynamic"]
        index.insert((-0.5, -0.5))       # behind the engine's back
        assert engine.cluster.bypassed("pts")
        answer = engine.query("pts", EVERYTHING, clear_cache=True)
        assert (-0.5, -0.5) in {tuple(p) for p in answer.points}
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

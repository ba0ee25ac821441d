"""The shard-worker process: one replica served over the RPC protocol.

:func:`worker_main` is the process entrypoint the coordinator forks.  It
rebuilds its replica *deterministically* through the function the parent
built it with, :func:`~repro.engine.catalog.build_replicas` — the
dataset's :class:`~repro.engine.catalog.ReplicaRecipe` (block size,
buffer-pool size, sample size, seed, replica count), the replica's
build-time points and a replay of the dataset's recorded
``suite_builds`` — then replays the write fan-out log it was handed
into the replica's write overlay, rebuilding at the writes the parent's
replicas rebuilt at.
Because the store layout and index structure match the parent's replica
bit for bit, the per-query I/O counters a worker reports are exactly
what the in-process fan-out would have measured: that determinism, not
state shipping, is what makes process mode answer- and
I/O-count-identical to in-process mode.

Workers always build on the ``"memory"`` backend regardless of the
parent's: block accounting is backend-independent (the backend-parity
tests pin that), and two processes appending to one block file
would corrupt it.

The serve loop accepts connections on an ephemeral localhost port
(reported back through the spawn pipe) and handles each connection on
its own thread; per-request work serializes on the replica's store lock
exactly as the in-process executor does, so concurrent queries, writes
and heartbeats interleave with the same semantics in both modes.
"""

from __future__ import annotations

import os
import resource
import socket
import threading
import time
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.engine.catalog import ReplicaRecipe, build_replicas
from repro.engine.cluster import protocol
from repro.engine.writes import rebuild_if_due, write_overlay


class ShardWorker:
    """One shard replica rebuilt in this process and served over RPC.

    ``points`` is the replica's *build-time* array (the parent keeps it
    immutable on the child dataset; it may hold zero points) and
    ``recipe`` the dataset's
    :class:`~repro.engine.catalog.ReplicaRecipe` with the backend forced
    to ``"memory"``; every mutation since build rides in ``log``.  The
    arguments travel through the fork, not over the socket protocol.  A
    worker answers queries and writes; the parent computes every
    estimate and interval.
    """

    def __init__(self, name: str, points: np.ndarray, recipe: ReplicaRecipe,
                 suite_builds: Sequence[Dict[str, object]],
                 log: Sequence[Tuple[int, str, Tuple[float, ...]]]):
        [self.dataset] = build_replicas([name], points, recipe, suite_builds)
        self._started_s = time.perf_counter()
        self._stop = threading.Event()
        self._lock = threading.Lock()     # the counts below
        #: The heartbeat's counts (frame bytes include length prefixes).
        self._counts = {"served": 0, "writes": 0, "last_seq": 0,
                        "wire_bytes_received": 0, "wire_bytes_sent": 0,
                        "codec_seconds": 0.0}
        for seq, op, point in log:
            self._apply_write(op, tuple(point), int(seq))

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def handle(self, request: Dict[str, object]) -> Dict[str, object]:
        """Dispatch one RPC request to its handler."""
        op = request.get("op")
        if op == "ping":
            return self._op_ping()
        if op == "query":
            return self._op_query(request)
        if op in ("insert", "delete"):
            return self._op_write(op, request)
        if op == "warm":
            return self._op_warm(request)
        if op == "shutdown":
            self._stop.set()
            return {"ok": True, "stopping": True}
        return {"ok": False, "error": "unknown op %r" % (op,)}

    def _op_ping(self) -> Dict[str, object]:
        """The heartbeat reply: liveness, the worker's counts, its store's
        cumulative I/Os, its peak RSS in bytes (``ru_maxrss`` counts
        kilobytes on Linux), and the frame bytes it has received and sent
        on every connection with the CPU seconds its connection threads
        spent reading and decoding, encoding and writing them (a thread's
        clock: socket and lock waits are left out; this reply is not yet
        among them)."""
        totals = self.dataset.store.stats.snapshot()
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        with self._lock:
            return dict(self._counts, ok=True, pid=os.getpid(),
                        uptime_s=time.perf_counter() - self._started_s,
                        replica=self.dataset.name, peak_rss_bytes=peak,
                        ios=protocol.iostats_to_wire(totals))

    def _op_query(self, request: Dict[str, object]) -> Dict[str, object]:
        index_name = request["index"]
        if self.dataset.aliases.get(index_name, index_name) \
                not in self.dataset.indexes:
            return {"ok": False, "error": "unknown index %r on replica %r"
                                          % (index_name, self.dataset.name)}
        query = protocol.query_from_wire(request["query"])
        started = time.perf_counter()
        # The same call the in-process executor makes on its own copy of
        # this replica, so the buffer pool sees the same operation
        # sequence in both modes and I/O parity holds.
        points, ios, detail = self.dataset.run_query(
            index_name, query, clear_cache=bool(request.get("clear_cache")))
        elapsed = time.perf_counter() - started
        trace = request.get("trace") or {}
        with self._lock:
            self._counts["served"] += 1
        response = {
            "ok": True,
            "points": protocol.points_to_wire(points),
            "ios": protocol.iostats_to_wire(ios),
        }
        if detail:
            response["detail"] = detail
        if trace.get("trace_id"):
            # The span subtree the parent grafts under its executor.shard
            # node: worker-side wall time plus enough attributes to tell
            # which process answered.  Clocks are per-process, so the
            # parent anchors the subtree at its own span's start.
            response["span"] = {
                "name": "worker.query",
                "duration_s": elapsed,
                "attributes": {
                    "trace_id": trace["trace_id"],
                    "parent": trace.get("parent", ""),
                    "pid": os.getpid(),
                    "replica": self.dataset.name,
                    "ios": ios.total,
                    "cache_hits": ios.cache_hits,
                },
            }
        return response

    def _op_write(self, op: str, request: Dict[str, object]
                  ) -> Dict[str, object]:
        seq = int(request["seq"])
        record = tuple(float(c) for c in request["point"])
        applied, ios, duplicate = self._apply_write(op, record, seq)
        return {"ok": True, "applied": applied, "ios": ios,
                "duplicate": duplicate, "seq": seq}

    def _apply_write(self, op: str, record: Tuple[float, ...],
                     seq: int) -> Tuple[bool, int, bool]:
        """Apply one logged/broadcast mutation, idempotently by ``seq``.

        Replay and live broadcast may overlap around a restart; the
        high-water mark makes the overlap harmless (at-least-once
        delivery, exactly-once application).
        """
        with self._lock:
            if seq <= self._counts["last_seq"]:
                return False, 0, True
            self._counts["last_seq"] = seq
        applied, ios = write_overlay(self.dataset, op, record)
        if applied:
            ios += rebuild_if_due(self.dataset)
        with self._lock:
            self._counts["writes"] += 1
        return applied, ios, False

    def _op_warm(self, request: Dict[str, object]) -> Dict[str, object]:
        store = self.dataset.store
        target = int(request["cache_blocks"])
        if request.get("at_least"):
            target = max(store.cache_blocks, target)
        previous = store.resize_cache(target)
        return {"ok": True, "previous": previous,
                "cache_blocks": store.cache_blocks}

    # ------------------------------------------------------------------
    # serve loop
    # ------------------------------------------------------------------
    def serve(self, pipe) -> None:
        """Bind an ephemeral port, report it, accept until shut down."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(("127.0.0.1", 0))
        listener.listen(16)
        listener.settimeout(0.2)
        pipe.send({"port": listener.getsockname()[1], "pid": os.getpid()})
        pipe.close()
        try:
            while not self._stop.is_set():
                try:
                    connection, __ = listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break
                thread = threading.Thread(
                    target=self._serve_connection, args=(connection,),
                    name="worker-conn", daemon=True)
                thread.start()
        finally:
            listener.close()

    def _serve_connection(self, connection: socket.socket) -> None:
        connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            while not self._stop.is_set():
                started = time.thread_time()    # CPU: waits left out
                try:
                    request, received = protocol.recv_frame(connection)
                except (ConnectionError, OSError, protocol.ProtocolError):
                    break
                with self._lock:
                    self._counts["wire_bytes_received"] += received
                    self._counts["codec_seconds"] += \
                        time.thread_time() - started
                try:
                    response = self.handle(request)
                except Exception as exc:  # per-request isolation
                    response = {"ok": False,
                                "error": "%s: %s" % (type(exc).__name__,
                                                     exc)}
                started = time.thread_time()
                try:
                    sent = protocol.send_message(connection, response)
                except (ConnectionError, OSError):
                    break
                with self._lock:
                    self._counts["wire_bytes_sent"] += sent
                    self._counts["codec_seconds"] += \
                        time.thread_time() - started
        finally:
            connection.close()


def worker_main(pipe, *replica) -> None:
    """Process entrypoint: build the replica (:class:`ShardWorker`'s
    arguments), then serve until shut down."""
    ShardWorker(*replica).serve(pipe)

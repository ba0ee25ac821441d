"""The coordinator: worker placement, heartbeats, and replica failover.

One :class:`Coordinator` sits between the executor's shard fan-out and a
fleet of :mod:`~repro.engine.cluster.worker` processes — one process per
shard replica of every covered sharded dataset (a shard built over zero
points included).  It owns:

* **placement** — :meth:`start_dataset` forks a worker per replica, each
  rebuilding its replica deterministically from the dataset's
  :class:`~repro.engine.catalog.ReplicaRecipe`;
* **the write fan-out log** — the engine's write path reports every
  sharded mutation (still under the dataset's write barrier) to
  :meth:`note_write`, which appends it to the :class:`WriteLog` and
  broadcasts it to the shard's live workers;
* **heartbeats and failover** — a monitor thread pings every worker and
  keeps its last reply (counts, cumulative I/Os, peak RSS: what
  :meth:`worker_stats` and the ``engine_worker_*`` gauges read, with no
  RPC of their own); a dead worker's queries route to the shard's
  surviving replicas (the
  executor's ultimate fallback is its own in-process state, which the
  parent keeps current regardless of mode), and the worker is restarted
  and caught up by replaying the shard's log (workers apply ``seq``
  idempotently, so replay and live broadcast overlap safely);
* **cache propagation** — warm-serving windows resize worker buffer
  pools alongside the parent's so I/O accounting matches in both modes.

The log is the only way a write reaches a worker, and nothing reaches a
parent replica around it: a write lands in a replica's write overlay,
which only the engine's write path writes, so a worker never serves
from a copy the log does not describe.
"""

from __future__ import annotations

import atexit
import dataclasses
import multiprocessing
import multiprocessing.util  # registers its exit handler before any of ours
import threading
import time
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from repro.engine.catalog import Catalog, Query
from repro.engine.cluster import protocol, worker
from repro.engine.cluster.client import (
    WorkerClient,
    WorkerError,
    WorkerUnavailable,
)
from repro.engine.cluster.writelog import WriteLog
from repro.engine.sharding import Shard
from repro.io.store import IOStats


#: How long a forked worker has to report its port before its spawn
#: counts as failed.
SPAWN_TIMEOUT_S = 60.0


def _fork_context():
    """Fork when the platform has it (cheap, inherits built state for
    nothing — the worker rebuilds anyway); default context elsewhere."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


class WorkerHandle:
    """One live-or-dead worker process and its RPC client."""

    def __init__(self, dataset: str, shard_id: int, replica_id: int,
                 replica_name: str, indexes: FrozenSet[str], process,
                 client: WorkerClient, port: int, pid: int):
        self.dataset = dataset
        self.shard_id = shard_id
        self.replica_id = replica_id
        self.replica_name = replica_name
        #: Index names the worker was spawned with — what it can answer
        #: queries on.
        self.indexes = indexes
        self.process = process
        self.client = client
        self.port = port
        self.pid = pid
        self.alive = True
        self.restarts = 0
        self.served = 0
        #: Highest write-log ``seq`` the coordinator has delivered to
        #: this worker (spawn snapshot, catch-up replay and live
        #: broadcast all advance it) — the worker's replay position as
        #: the coordinator knows it, without an RPC round-trip.
        self.last_seq = 0
        #: The worker's last heartbeat reply (empty before the first).
        self.heartbeat: Dict[str, object] = {}

    @property
    def key(self) -> Tuple[str, int, int]:
        return (self.dataset, self.shard_id, self.replica_id)

    @property
    def address(self) -> str:
        """The worker's listen address (always loopback)."""
        return "127.0.0.1:%d" % self.port

    def describe(self) -> Dict[str, object]:
        return {"replica": self.replica_name, "pid": self.pid,
                "port": self.port, "address": self.address,
                "state": "live" if self.alive else "dead",
                "restarts": self.restarts, "served": self.served,
                "last_seq": self.last_seq}


class Coordinator:
    """Placement, heartbeats and failover for process-mode shard workers.

    Parameters
    ----------
    catalog:
        The engine's catalog (source of replica recipes and suite builds).
    heartbeat_interval_s:
        Monitor-thread ping period; 0 disables the background monitor
        (tests then drive :meth:`check_workers` deterministically).
    """

    def __init__(self, catalog: Catalog, heartbeat_interval_s: float = 1.0):
        self._catalog = catalog
        self.log = WriteLog()
        self._mp = _fork_context()
        self._heartbeat_interval_s = heartbeat_interval_s
        # Guards the tables below; also serializes write broadcast and
        # restart catch-up, so a restarted worker can never observe
        # sequence numbers out of order (its idempotence check would
        # silently drop the write that arrived late).
        self._lock = threading.RLock()
        self._workers: Dict[Tuple[str, int, int], WorkerHandle] = {}
        self._covered: set = set()
        self._stopped = False
        self._monitor: Optional[threading.Thread] = None
        # An owner that exits without stop() must not leave workers
        # behind: multiprocessing's exit handler terminates the daemonic
        # workers, and a monitor still running would fork replacements
        # nobody reaps.  Exit handlers run last-registered-first, so this
        # sets _stopped before anything is killed.
        atexit.register(self.stop)

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def start_dataset(self, name: str) -> int:
        """Spawn one worker per shard replica; returns how many."""
        sharded = self._catalog.sharded(name)
        spawned = 0
        for shard in sharded.shards:
            for replica_id in range(shard.num_replicas):
                self._spawn(name, shard, replica_id)
                spawned += 1
        with self._lock:
            self._covered.add(name)
        self._ensure_monitor()
        return spawned

    def stop_dataset(self, name: str) -> None:
        """Shut down and forget every worker of one dataset."""
        with self._lock:
            handles = [handle for handle in self._workers.values()
                       if handle.dataset == name]
            for handle in handles:
                del self._workers[handle.key]
            self._covered.discard(name)
        self._shutdown(handles)

    def _spawn(self, dataset_name: str, shard: Shard,
               replica_id: int) -> WorkerHandle:
        """Fork one worker for a replica and wait for its port handshake.

        The worker's arguments are the dataset's recipe — on the
        ``"memory"`` backend, and with the replica's *live* pool size, so
        a restart inside a warm-serving window still matches — plus the
        replica's build points, the recorded suite and a snapshot of the
        shard's write log; anything appended while the child is
        rebuilding is caught up under the coordinator lock right after
        registration (idempotent re-send of the full log, in order),
        closing the spawn-window gap without holding the lock across the
        fork; the worker's first heartbeat follows.
        """
        sharded = self._catalog.sharded(dataset_name)
        replica = shard.replicas[replica_id]
        recipe = dataclasses.replace(
            sharded.recipe, backend="memory",
            cache_blocks=replica.store.cache_blocks)
        suite_builds = list(sharded.suite_builds)
        log_entries = self.log.entries(dataset_name, shard.shard_id)
        parent_end, child_end = self._mp.Pipe(duplex=False)
        process = self._mp.Process(
            target=worker.worker_main,
            args=(child_end, replica.name, replica.points, recipe,
                  suite_builds, log_entries),
            name="repro-worker-%s" % replica.name, daemon=True)
        process.start()
        child_end.close()
        if not parent_end.poll(SPAWN_TIMEOUT_S):
            process.terminate()
            parent_end.close()
            raise RuntimeError(
                "worker for replica %r did not report a port within %.1fs"
                % (replica.name, SPAWN_TIMEOUT_S))
        hello = parent_end.recv()
        parent_end.close()
        client = WorkerClient(("127.0.0.1", int(hello["port"])))
        handle = WorkerHandle(
            dataset_name, shard.shard_id, replica_id, replica.name,
            frozenset(build["index_name"] for build in suite_builds),
            process, client, int(hello["port"]), int(hello["pid"]))
        if log_entries:
            # The log snapshot was already applied during rebuild.
            handle.last_seq = max(seq for seq, __, __ in log_entries)
        with self._lock:
            previous = self._workers.get(handle.key)
            self._workers[handle.key] = handle
            if previous is not None:
                handle.restarts = previous.restarts + 1
            # Catch-up replay under the lock: writes that landed during
            # the rebuild are re-sent in order (the worker skips the ones
            # it was spawned with), and no new broadcast can
            # interleave until the replay finishes.
            for seq, op, point in self.log.entries(dataset_name,
                                                   shard.shard_id):
                try:
                    handle.client.call(self._write_request(seq, op, point))
                    handle.last_seq = max(handle.last_seq, seq)
                except WorkerUnavailable:
                    handle.alive = False
                    break
            if handle.alive:
                try:                        # the first heartbeat
                    handle.heartbeat = handle.client.ping()
                except (WorkerUnavailable, WorkerError):
                    handle.alive = False
        if previous is not None:
            previous.client.close()
        return handle

    def restart_worker(self, dataset_name: str, shard_id: int,
                       replica_id: int) -> Optional[WorkerHandle]:
        """Respawn one (dead) worker and catch it up from the write log."""
        with self._lock:
            if self._stopped:
                return None
        shard = self._catalog.sharded(dataset_name).shards[shard_id]
        return self._spawn(dataset_name, shard, replica_id)

    def _serves(self, dataset_name: str) -> bool:
        """Whether workers answer for the dataset (call under the lock)."""
        return not self._stopped and dataset_name in self._covered

    # ------------------------------------------------------------------
    # the query transport
    # ------------------------------------------------------------------
    def run_query(self, dataset_name: str, shard: Shard, replica_id: int,
                  index_name: str, query: Query,
                  clear_cache: bool = False,
                  trace_id: Optional[str] = None,
                  parent: Optional[str] = None
                  ) -> Optional[Tuple[np.ndarray, IOStats, int,
                                      Optional[Dict[str, object]],
                                      Dict[str, object]]]:
        """Serve one per-shard query on a worker, failing over replicas.

        Returns ``(points, ios, served_replica_id, span_payload,
        account)`` from the first worker that answers — preferring
        the replica the picker acquired — or ``None`` when no worker can
        serve it
        (uncovered dataset, every replica's worker dead, or spawned
        before ``index_name`` was built), telling the
        executor to run the shard in-process.  A failed attempt charges
        no I/Os: only the serving worker's counters are returned, so
        failover never loses or double-counts a block transfer.
        """
        with self._lock:
            if not self._serves(dataset_name):
                return None
            order = [replica_id] + [r for r in range(shard.num_replicas)
                                    if r != replica_id]
            candidates = [self._workers.get((dataset_name, shard.shard_id,
                                             r)) for r in order]
        request: Dict[str, object] = {"op": "query", "index": index_name,
                                      "query": protocol.query_to_wire(query)}
        if clear_cache:
            request["clear_cache"] = True
        trace = protocol.trace_header(trace_id, parent)
        if trace is not None:
            request["trace"] = trace
        for handle in candidates:
            # A worker rebuilt its replica from the suite recorded when
            # it was spawned; an index built since exists only in the
            # parent until the worker's next restart.
            if (handle is None or not handle.alive
                    or index_name not in handle.indexes):
                continue
            try:
                response = handle.client.call(request)
            except WorkerUnavailable:
                self.mark_dead(handle)
                continue
            handle.served += 1
            return (protocol.points_from_wire(response["points"]),
                    protocol.iostats_from_wire(response["ios"]),
                    handle.replica_id, response.get("span"),
                    response.get("detail") or {})
        return None

    # ------------------------------------------------------------------
    # the write fan-out
    # ------------------------------------------------------------------
    @staticmethod
    def _write_request(seq: int, op: str,
                       point: Tuple[float, ...]) -> Dict[str, object]:
        """The write RPC for one logged mutation (broadcast and replay)."""
        return {"op": op, "point": protocol.point_to_wire(point),
                "seq": seq}

    def note_write(self, dataset_name: str, shard_id: int, op: str,
                   record: Tuple[float, ...], applied: bool) -> None:
        """Log one committed mutation and broadcast it to the shard's workers.

        Wired as the write path's post-commit listener, so it runs under
        the dataset's write barrier: log order is apply order.  The
        parent already applied the mutation to its own replicas (the
        unchanged fan-out), so worker write I/Os are *not* re-charged —
        the broadcast only keeps the worker copies current.  A worker
        that cannot be reached is marked dead; the log replays the write
        into its restart.
        """
        del applied  # logged either way: a no-op delete replays as one
        with self._lock:
            if not self._serves(dataset_name):
                return
            seq = self.log.append(dataset_name, shard_id, op, record)
            payload = self._write_request(seq, op, record)
            for handle in list(self._workers.values()):
                if (handle.dataset != dataset_name
                        or handle.shard_id != shard_id
                        or not handle.alive):
                    continue
                try:
                    handle.client.call(payload)
                    handle.last_seq = seq
                except WorkerUnavailable:
                    self.mark_dead(handle)

    def on_rebalance(self, dataset_name: str) -> None:
        """Rebalance listener: rebuild the dataset's fleet on the new layout.

        The re-split's rebuilt shards absorbed every logged mutation into
        their build arrays, so the dataset's log is cleared and its
        workers restart from the new generation's specs.
        """
        with self._lock:
            if self._stopped or dataset_name not in self._covered:
                return
        self.stop_dataset(dataset_name)
        self.log.clear_dataset(dataset_name)
        self.start_dataset(dataset_name)

    # ------------------------------------------------------------------
    # cache propagation (warm-serving windows)
    # ------------------------------------------------------------------
    def resize_caches(self, names, warm_cache_blocks: int) -> List[Tuple]:
        """Mirror a warm-serving resize onto every covered worker.

        Returns restore tokens for :meth:`restore_caches`; tokens name
        the worker by key (not by handle), so a worker restarted inside
        the window — which inherited the warmed parent size — is
        still restored to its pre-warm pool.
        """
        tokens: List[Tuple] = []
        with self._lock:
            handles = [handle for handle in self._workers.values()
                       if handle.dataset in set(names) and handle.alive]
        for handle in handles:
            try:
                response = handle.client.call(
                    {"op": "warm", "cache_blocks": int(warm_cache_blocks),
                     "at_least": True})
            except WorkerUnavailable:
                self.mark_dead(handle)
                continue
            tokens.append((handle.key, int(response["previous"])))
        return tokens

    def restore_caches(self, tokens: List[Tuple]) -> None:
        """Undo :meth:`resize_caches` on whichever workers still serve."""
        for key, previous in tokens:
            with self._lock:
                handle = self._workers.get(key)
            if handle is None or not handle.alive:
                continue
            try:
                handle.client.call({"op": "warm", "cache_blocks": previous,
                                    "at_least": False})
            except WorkerUnavailable:
                self.mark_dead(handle)

    # ------------------------------------------------------------------
    # liveness
    # ------------------------------------------------------------------
    def mark_dead(self, handle: WorkerHandle) -> None:
        """Record a worker as dead (its queries fail over immediately)."""
        with self._lock:
            handle.alive = False
        handle.client.close()

    def check_workers(self) -> List[Tuple]:
        """Ping every worker, keeping each live one's reply; mark the
        unreachable dead and respawn them.

        Returns the keys of workers found (or already marked) dead this
        round, after the restarts.  The monitor calls this every
        heartbeat; tests call it directly for deterministic failover
        coverage.
        """
        with self._lock:
            if self._stopped:
                return []
            handles = list(self._workers.values())
        dead: List[Tuple] = []
        for handle in handles:
            if handle.alive and handle.process.is_alive():
                try:
                    handle.heartbeat = handle.client.ping()
                    continue
                except (WorkerUnavailable, WorkerError):
                    pass
            if handle.alive:
                self.mark_dead(handle)
            dead.append(handle.key)
        for dataset_name, shard_id, replica_id in dead:
            try:
                self.restart_worker(dataset_name, shard_id, replica_id)
            except RuntimeError:
                pass  # still down; next round tries again
        return dead

    def _ensure_monitor(self) -> None:
        if self._heartbeat_interval_s <= 0:
            return
        with self._lock:
            if self._stopped or self._monitor is not None:
                return
            self._monitor = threading.Thread(
                target=self._monitor_loop, name="repro-cluster-monitor",
                daemon=True)
            self._monitor.start()

    def _monitor_loop(self) -> None:
        while True:
            time.sleep(self._heartbeat_interval_s)
            with self._lock:
                if self._stopped:
                    return
            try:
                self.check_workers()
            except Exception:  # the monitor must outlive any one round
                pass

    # ------------------------------------------------------------------
    # introspection and shutdown
    # ------------------------------------------------------------------
    def worker(self, dataset_name: str, shard_id: int,
               replica_id: int) -> Optional[WorkerHandle]:
        """The current handle for one replica's worker (tests kill these)."""
        with self._lock:
            return self._workers.get((dataset_name, shard_id, replica_id))

    def worker_stats(self, dataset_name: str, shard_id: int,
                     replica_id: int) -> Optional[Dict[str, object]]:
        """One live worker's last heartbeat reply (its counts, cumulative
        I/Os and peak RSS as of :meth:`check_workers`), or None."""
        handle = self.worker(dataset_name, shard_id, replica_id)
        if handle is None or not handle.alive or not handle.heartbeat:
            return None
        return handle.heartbeat

    def worker_metrics(self) -> List[Tuple[str, Dict[str, float]]]:
        """Per worker, by replica name: the coordinator's counts (served,
        last seq, restarts) and its last heartbeat's (writes, cumulative
        I/Os, peak RSS, frame bytes received and sent, codec seconds) —
        the metrics provider; no RPC."""
        with self._lock:
            handles = list(self._workers.values())
        metrics = []
        for handle in handles:
            beat = handle.heartbeat
            ios = beat.get("ios", {})
            metrics.append((handle.replica_name, dict(
                {key: beat.get(key, 0) for key in (
                    "writes", "peak_rss_bytes", "wire_bytes_received",
                    "wire_bytes_sent", "codec_seconds")},
                served=handle.served, last_seq=handle.last_seq,
                restarts=handle.restarts,
                ios=ios.get("reads", 0) + ios.get("writes", 0))))
        return metrics

    def check_invariants(self) -> None:
        """Raise AssertionError unless the write log is gap-free and every
        live worker's high-water mark equals its shard's last logged seq
        (every broadcast reaches every live worker of the shard).  The
        coordinator's own books are all it reads: no RPC."""
        self.log.check_invariants()
        with self._lock:
            for handle in self._workers.values():
                if not handle.alive:
                    continue
                last = self.log.last_seq(handle.dataset, handle.shard_id)
                if handle.last_seq != last:
                    raise AssertionError(
                        "live worker %s is at seq %d, its shard's log at %d"
                        % (handle.replica_name, handle.last_seq, last))

    def describe(self) -> Dict[str, object]:
        """JSON-safe topology snapshot (engine summary / HTTP stats)."""
        with self._lock:
            workers: Dict[str, List[Dict[str, object]]] = {}
            for handle in self._workers.values():
                workers.setdefault(handle.dataset, []).append(
                    handle.describe())
            for listing in workers.values():
                listing.sort(key=lambda entry: entry["replica"])
            return {
                "mode": "process",
                "datasets": sorted(self._covered),
                "workers": workers,
                "write_log": self.log.sizes(),
            }

    @staticmethod
    def _shutdown(handles: List[WorkerHandle]) -> None:
        """Ask every worker to stop, then reap them all: a fleet waits
        out one accept poll, not one per worker."""
        for handle in handles:
            if handle.alive:
                try:
                    handle.client.call({"op": "shutdown"}, timeout_s=2.0)
                except (WorkerUnavailable, WorkerError):
                    pass
            handle.client.close()
        for handle in handles:
            handle.process.join(timeout=2.0)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=2.0)

    def stop(self) -> None:
        """Shut every worker down and stop the monitor (idempotent)."""
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
            atexit.unregister(self.stop)
            handles = list(self._workers.values())
            self._workers.clear()
            self._covered.clear()
        self._shutdown(handles)

"""Query execution: the shared core, result caching, warm buffer pools.

Two layers live here:

* :class:`ExecutionCore` — the engine's shared data path.  Given a planned
  query it runs the plan, records metrics (among them every observed
  over predicted I/O ratio, the cost models' dashboard), and keeps the
  **result cache** (:mod:`repro.engine.result_cache`; a committed
  write's last effect evicts the answers its point falls in).  Both
  the synchronous :class:`BatchExecutor` and the asyncio
  :class:`~repro.engine.serving.executor.AsyncExecutor` execute
  through this one core, so the two serving paths cannot drift apart.
* :class:`BatchExecutor` — the synchronous single-query front-end: it
  owns the core and runs one constraint (or conjunction) at a time.
  Many queries run as one wave on the async scheduler
  (:meth:`~repro.engine.engine.QueryEngine.serve_workload`), which
  dedups repeats and warms the buffer pools for the wave.

There is one execution path.  Every plan lowers to per-replica work
items — one per relevant shard, so exactly one for a ``register_dataset``
dataset — and each item runs
:meth:`~repro.engine.catalog.Dataset.run_query` on one replica's store,
in a worker process when one is attached and can serve it, else here.
Several items **fan out** on the shared thread pool, each on its shard's
least-loaded *replica* (each replica owns its store).  The per-item I/Os
are attributed individually — to the ``engine_cost_model_ratio`` and
per-replica load series of :class:`~repro.engine.metrics.EngineStats` —
and summed into the query's cost.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (Dict, Iterator, List, NamedTuple, Optional, Sequence,
                    Tuple)

import numpy as np

import repro.engine.tracing as tracing
from repro.core.conjunction import ConstraintConjunction
from repro.core.kernels import answer_matrix
from repro.engine.catalog import Catalog, Dataset, Query
from repro.engine.metrics import EngineStats, q_error
from repro.engine.planner import Plan, Planner, ShardedPlan
from repro.engine.result_cache import CacheKey, CachedAnswer, ResultCache
from repro.engine.sharding import Shard
from repro.engine.tracing import Tracer
from repro.engine.writes import MutationResult, WritePath
from repro.io.store import BlockStore, IOStats

#: Threads in the shared pool a query's per-shard items fan out on.
FANOUT_WORKERS = 8

#: Buffer-pool size a serving wave warms its datasets' stores to; the
#: original (small) pools are restored when the wave finishes.
WARM_CACHE_BLOCKS = 64


@dataclass
class ExecutedQuery:
    """One served query: its answer, its plan, and what it cost.

    :attr:`points` is the answer: one read-only ``(count, d)`` float64
    matrix from the scan kernels to the socket (a result-cache hit
    shares it — never write to it).
    """

    dataset: str
    index_name: str
    points: np.ndarray
    ios: IOStats
    latency_s: float
    estimated_ios: float
    from_result_cache: bool = False
    #: Fan-out width: shards the query ran on (0 = served without
    #: touching one — a result-cache hit or a degraded sample answer).
    shards_queried: int = 0
    #: Shards skipped by bounding-box pruning.
    shards_pruned: int = 0
    #: Logical tenant the request belonged to ("" outside the async path).
    tenant: str = ""
    #: True when admission control served a sample-only degraded answer.
    degraded: bool = False
    #: Fraction of the dataset the answer was computed from (1.0 = exact;
    #: degraded answers carry their sample's coverage so callers can
    #: scale counts).
    sample_rate: float = 1.0
    #: For degraded answers: ``count / sample_rate`` rounded — the scaled
    #: estimate of how many points the *full* dataset would report.
    estimated_count: Optional[int] = None
    #: For degraded answers: an interval on the full count — conformal
    #: (:class:`repro.engine.stats.conformal.ConformalCalibrator`) once
    #: the dataset's calibration window is warm, else the normal
    #: approximation (:func:`repro.engine.serving.admission.
    #: scaled_count_estimate`).
    count_interval: Optional[Tuple[int, int]] = None
    #: Which machinery produced ``count_interval``: ``"conformal"`` or
    #: ``"normal_fallback"`` (None for exact answers).
    interval_source: Optional[str] = None

    @property
    def count(self) -> int:
        """Number of reported points."""
        return len(self.points)

    @property
    def total_ios(self) -> int:
        """Block transfers charged to this query (0 on a result-cache hit)."""
        return self.ios.total


class _WorkItem(NamedTuple):
    """One shard's share of a plan: what a plan lowers to."""

    plan: Plan
    shard: Shard


@dataclass
class ShardOutcome:
    """What one work item produced, whichever transport ran it."""

    item: _WorkItem
    #: The replica that served it (a failover may differ from the pick).
    replica_id: int
    points: np.ndarray
    ios: IOStats
    #: Wall-clock window of the item, stamped only under an active trace.
    started_s: float = 0.0
    ended_s: float = 0.0
    #: The worker process's span payload, when one answered under a trace.
    worker_span: Optional[Dict[str, object]] = None
    #: The index's own account of the query (its ``last_query``).
    account: Dict[str, object] = field(default_factory=dict)

    @property
    def replica(self) -> Dataset:
        """The parent's copy of the serving replica (store config, model)."""
        return self.item.shard.replicas[self.replica_id]


class ExecutionCore:
    """The shared plan-execution data path behind every executor.

    Parameters
    ----------
    catalog / planner:
        The engine's catalog and planner.
    stats:
        The engine's :class:`EngineStats` sink (exposed as :attr:`stats`).
    tracer:
        The engine's :class:`~repro.engine.tracing.Tracer`.
    """

    def __init__(self, catalog: Catalog, planner: Planner,
                 stats: EngineStats, tracer: Tracer):
        self.catalog = catalog
        self.planner = planner
        self.stats = stats
        #: Request-trace lifecycle: the serving layers open traces here
        #: and the core's spans land in whatever trace is active.
        self.tracer = tracer
        #: Answers by ``(dataset, query)``, each its read-only matrix: a
        #: hit shares the stored array instead of copying it.
        self.results = ResultCache(stats)
        self.stats.result_cache_provider = self.results.size
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()
        # Deferred import: the serving package imports this module.
        from repro.engine.serving.replicas import LeastLoadedReplicaPicker
        #: Strategy choosing which replica serves each per-shard item.
        self.replica_picker = LeastLoadedReplicaPicker()
        #: The mutation twin of this core: routed inserts/deletes with
        #: replica write-fanout, sharing the same catalog and metrics
        #: sink (so sync and async writes cannot drift apart either).
        #: It hands every committed or aborted write to the result
        #: cache's :meth:`~ResultCache.evict_where`.
        self.writes = WritePath(catalog, self.stats,
                                self.results.evict_where)
        #: Optional process transport (see :mod:`repro.engine.cluster`):
        #: when attached, the fan-out offers each per-shard query to
        #: the shard's worker process first and falls back to the local
        #: in-process path whenever no worker can serve it.
        self.cluster = None

    def attach_cluster(self, coordinator) -> None:
        """Route sharded fan-out through a process-worker coordinator."""
        self.cluster = coordinator

    def run_write(self, dataset_name: str, op: str,
                  point) -> MutationResult:
        """Apply one engine-level mutation (the async path's write hook).

        Delegates to the shared :class:`~repro.engine.writes.WritePath`,
        which applies every effect of the write — the shard's ``written``
        flag, statistics feedback, the engine's listener, result-cache
        eviction — at one site.
        """
        if op == "insert":
            return self.writes.insert(dataset_name, point)
        if op == "delete":
            return self.writes.delete(dataset_name, point)
        raise ValueError("unknown mutation op %r" % (op,))

    def _shared_pool(self) -> ThreadPoolExecutor:
        """The lazily-created thread pool shard fan-out runs on."""
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=FANOUT_WORKERS,
                    thread_name_prefix="repro-engine")
            return self._pool

    def shutdown(self) -> None:
        """Stop the shared thread pool (idempotent)."""
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

    @contextmanager
    def warm_stores(self, names: Sequence[str],
                    warm_cache_blocks: int) -> Iterator[None]:
        """Enlarge the named datasets' buffer pools for a serving window.

        Every store backing each named dataset (one, or one per shard
        replica) is resized to at least ``warm_cache_blocks`` for the
        duration of the ``with`` block and restored afterwards, so
        per-query benchmarks keep measuring the cold-cache model.
        Unknown dataset names are skipped, not raised: per-request error
        isolation reports them at planning time, and a typo in one
        request must not abort a whole serving run.
        """
        previous: List[Tuple[BlockStore, int]] = []
        cluster_tokens: List[Tuple] = []
        try:
            for name in names:
                try:
                    stores = self.catalog.stores(name)
                except KeyError:
                    continue
                for store in stores:
                    previous.append((store, store.resize_cache(
                        max(store.cache_blocks, warm_cache_blocks))))
            if self.cluster is not None:
                # Worker buffer pools mirror the parent's for the same
                # window, so a warm wave's I/O accounting matches across
                # modes.
                cluster_tokens = self.cluster.resize_caches(
                    list(names), warm_cache_blocks)
            yield
        finally:
            if self.cluster is not None and cluster_tokens:
                self.cluster.restore_caches(cluster_tokens)
            for store, size in previous:
                store.resize_cache(size)

    # ------------------------------------------------------------------
    # result-cache invalidation
    # ------------------------------------------------------------------
    def invalidate_dataset(self, dataset_name: str) -> int:
        """Drop every cached result for one dataset; returns entries dropped.

        Also bumps the dataset's generation so answers computed *before*
        this invalidation can no longer be cached after it.
        """
        return self.results.evict_where(dataset_name, None)

    def check_invariants(self) -> List[Tuple[CacheKey, CachedAnswer]]:
        """Check the result cache's books (no I/O): its bytes are its
        answers' and within both bounds, and every key names a
        registered dataset.  Returns the resident entries, least
        recently used first."""
        return self.results.check_invariants(self.catalog.datasets())

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def dispatch(self, dataset_name: str, query: Query,
                 plan: ShardedPlan, cache_key: Tuple[str, Query],
                 clear_cache: bool, tenant: str = "") -> ExecutedQuery:
        """Execute a planned constraint (or conjunction) and account for it.

        The plan lowers to per-shard work items; each item runs on one
        replica's store — on the shared pool when there are several,
        since every replica owns its store and the only shared state
        (the metrics) is thread-safe — and comes back as one
        :class:`ShardOutcome`.  Spans, feedback and the merged answer
        are then derived from those records alone.
        """
        plan, items = self.lower(dataset_name, query, plan)
        generation = self.results.generation(dataset_name)
        started = time.perf_counter()
        # The pool workers below do not inherit this thread's contextvars
        # (only asyncio.to_thread copies the context), so the fan-out
        # span is captured here and each shard hangs its child on it
        # explicitly — Span.child is thread-safe under the trace's lock.
        fanout_span = tracing.current_span().child(
            "executor.fanout", dataset=dataset_name, shards=len(items))

        def run(item: _WorkItem) -> ShardOutcome:
            return self._run_item(dataset_name, item, clear_cache,
                                  fanout_span)

        if len(items) > 1:
            outcomes = list(self._shared_pool().map(run, items))
        else:
            outcomes = [run(item) for item in items]

        if fanout_span.enabled:
            self._assemble_spans(fanout_span, outcomes)
        self._feed_back(dataset_name, outcomes)
        answer = self._merge(dataset_name, plan, outcomes, started, tenant)
        if fanout_span.enabled:
            fanout_span.set_many({
                "ios": answer.ios.total,
                "cache_hits": answer.ios.cache_hits,
                "reported": answer.count,
                "shards_pruned": plan.shards_pruned,
            })
        fanout_span.finish()
        self.stats.record(answer)
        self.results.put(cache_key, (plan.index_name, answer.points),
                         generation)
        return answer

    def lower(self, dataset_name: str, query: Query, plan: ShardedPlan
              ) -> Tuple[ShardedPlan, List[_WorkItem]]:
        """Lower a plan to ``(plan, items)``, one item per relevant shard
        (what a fan-out runs and a degraded answer samples).

        The plan comes back because a stale one is replaced here.
        """
        sharded = self.catalog.sharded(dataset_name)
        if plan.generation != sharded.generation:
            # A rebalance re-split the shards after this plan was made:
            # its shard ids, boxes and per-shard indexes describe a
            # layout that no longer exists, so executing it could miss
            # points that moved shards.  Re-plan against the new layout.
            plan = self.planner.plan(dataset_name, query)
        # (the shard list is indexed by shard id, as the write path routes)
        return plan, [_WorkItem(shard_plan, sharded.shards[shard_id])
                      for shard_id, shard_plan in plan.shard_plans]

    def _run_item(self, dataset_name: str, item: _WorkItem,
                  clear_cache: bool, fanout_span) -> ShardOutcome:
        """Run one work item on the replica the picker chooses for it."""
        # Tracing inside a pool worker is two clock reads and nothing
        # else: building the span node and its attribute dict here would
        # run Python bytecode under the GIL in every worker, stretching
        # the fan-out's critical path (``trace.overhead_share`` in the
        # system benchmark) — so the tree is assembled on the calling thread
        # after the pool joins, from values the outcome carries anyway.
        traced = fanout_span.enabled
        started = time.perf_counter() if traced else 0.0
        estimate = item.plan.estimated_ios
        replica_id = self.replica_picker.acquire(dataset_name, item.shard,
                                                 estimate)
        try:
            outcome = self._transport(dataset_name, item, replica_id,
                                      clear_cache, fanout_span)
        finally:
            self.replica_picker.release(dataset_name, item.shard.shard_id,
                                        replica_id, estimate)
        self.stats.record_replica_load(dataset_name, item.shard.shard_id,
                                       outcome.replica_id, outcome.ios.total)
        self.stats.note_account(dataset_name, item.plan.index_name,
                                outcome.account)
        if traced:
            outcome.started_s, outcome.ended_s = started, time.perf_counter()
        return outcome

    def _transport(self, dataset_name: str, item: _WorkItem,
                   replica_id: int, clear_cache: bool,
                   fanout_span) -> ShardOutcome:
        """The two-member transport: a worker process, else this one,
        running the query the shard plan carries.

        With a cluster attached a shard's item is offered to its worker
        fleet first (preferring the picked replica, failing over to its
        siblings).  A worker answer carries the same points and I/O
        counters the local path would have measured — the worker
        rebuilt the replica deterministically and runs the same
        :meth:`~repro.engine.catalog.Dataset.run_query` — so everything
        above this seam is mode-agnostic.  ``None`` means no worker can
        serve the item; the parent's own state is always current, so the
        local path is the ultimate failover target.
        """
        index_name, query = item.plan.index_name, item.plan.query
        if self.cluster is not None:
            traced = fanout_span.enabled
            remote = self.cluster.run_query(
                dataset_name, item.shard, replica_id, index_name, query,
                clear_cache=clear_cache,
                trace_id=fanout_span.trace_id if traced else None,
                parent=fanout_span.name if traced else None)
            if remote is not None:
                points, ios, replica_id, worker_span, account = remote
                return ShardOutcome(item, replica_id, points, ios,
                                    worker_span=worker_span,
                                    account=account)
        points, ios, account = item.shard.replicas[replica_id].run_query(
            index_name, query, clear_cache=clear_cache)
        return ShardOutcome(item, replica_id, points, ios, account=account)

    @staticmethod
    def _assemble_spans(fanout_span, outcomes: List[ShardOutcome]) -> None:
        """Post-processor 1: one ``executor.shard`` span per outcome."""
        for outcome in outcomes:
            plan, ios = outcome.item.plan, outcome.ios
            span = fanout_span.child(
                "executor.shard",
                shard_id=outcome.item.shard.shard_id,
                replica_id=outcome.replica_id,
                index=plan.index_name,
                # "ios" is what EngineStats charges the request for
                # this shard (reads+writes); cold-equivalent cost
                # (+cache_hits) is what the model predicts.
                ios=ios.total,
                observed_cold_ios=ios.total + ios.cache_hits,
                model_ios=round(plan.estimated_ios, 2),
                expected_output=round(plan.expected_output, 2),
                reported=len(outcome.points),
                q_error=round(q_error(plan.expected_output,
                                      len(outcome.points)), 3),
                **outcome.account,
                **outcome.replica.store.span_attributes(ios))
            span.started_s = outcome.started_s
            span.ended_s = outcome.ended_s
            if outcome.worker_span is not None:
                # Graft the worker's span subtree under this shard
                # span.  Worker clocks are per-process (perf_counter
                # has no cross-process epoch), so the child anchors
                # at the parent span's start and keeps only the
                # worker-measured duration — explain(analyze=True)
                # still reconciles: child ⊆ parent holds because the
                # RPC round trip envelopes the worker's work.
                meta = outcome.worker_span
                child = span.child(meta.get("name", "worker.query"),
                                   **meta.get("attributes", {}))
                child.started_s = outcome.started_s
                child.ended_s = outcome.started_s + float(
                    meta.get("duration_s", 0.0))

    def _feed_back(self, dataset_name: str,
                   outcomes: List[ShardOutcome]) -> None:
        """Post-processor 2: cost-model and q-error feedback.

        Every executed per-replica plan contributes exactly one
        cost-model ratio and (for single constraints) exactly one
        estimation residual — the conformal window's validity rests on
        that.  Conjunction plans are costed with a single conjunct's
        output — an intentional upper bound, not an estimate — so they
        stay out of the q-error metrics and the conformal window.
        """
        for outcome in outcomes:
            plan, reported = outcome.item.plan, len(outcome.points)
            # The models price the *cold* cost of a structure, so
            # buffer-pool hits count as the reads they would have been
            # on a cold pool.  Keyed by the parent dataset.
            self.stats.note_cost_model(
                dataset_name, plan.index_name, plan.estimated_ios,
                outcome.ios.total + outcome.ios.cache_hits)
            if not isinstance(plan.query, ConstraintConjunction):
                self.stats.note_estimation(dataset_name,
                                           plan.expected_output, reported)

    def _merge(self, dataset_name: str, plan: ShardedPlan,
               outcomes: List[ShardOutcome], started: float,
               tenant: str) -> ExecutedQuery:
        """Post-processor 3: the outcomes' points in plan order, I/Os summed."""
        # The one-item case is its outcome's matrix, not a copy.
        points = answer_matrix(
            [outcome.points for outcome in outcomes],
            self.catalog.sharded(dataset_name).dimension)
        ios = IOStats()
        for outcome in outcomes:
            ios.merge(outcome.ios)
        return ExecutedQuery(
            dataset=dataset_name, index_name=plan.index_name,
            points=points, ios=ios,
            latency_s=time.perf_counter() - started,
            estimated_ios=plan.estimated_ios,
            shards_queried=plan.shards_queried,
            shards_pruned=plan.shards_pruned, tenant=tenant)

    def result_cache_get(
            self, key: Tuple[str, Query],
            tenant: str = "") -> Optional[ExecutedQuery]:
        """Serve a cached answer (zero I/Os) if one is resident."""
        hit = self.results.get(key)
        if hit is None:
            return None
        index_name, matrix = hit
        tracing.current_span().set("result_cache_hit", True)
        answer = ExecutedQuery(dataset=key[0], index_name=index_name,
                               points=matrix, ios=IOStats(),
                               latency_s=0.0, estimated_ios=0.0,
                               from_result_cache=True, tenant=tenant)
        self.stats.record(answer)
        return answer

    def share_answer(self, answer: ExecutedQuery,
                     tenant: str) -> ExecutedQuery:
        """Single-flight tail: a recorded zero-cost copy for ``tenant``.

        A follower of an in-flight leader is an identical constraint
        answered from work already paid for.
        """
        shared = ExecutedQuery(dataset=answer.dataset,
                               index_name=answer.index_name,
                               points=answer.points, ios=IOStats(),
                               latency_s=0.0, estimated_ios=0.0,
                               from_result_cache=True, tenant=tenant)
        self.stats.record(shared)
        return shared


class BatchExecutor:
    """Runs one query at a time against the catalog under the planner's
    routing.

    Parameters
    ----------
    catalog / planner / stats / tracer:
        The :class:`ExecutionCore`'s arguments.
    """

    #: Buffer-pool size a serving wave warms its datasets' stores to.
    warm_cache_blocks = WARM_CACHE_BLOCKS

    def __init__(self, catalog: Catalog, planner: Planner,
                 stats: EngineStats, tracer: Tracer):
        #: The shared execution core (the async executor serves through
        #: the same one, so sync and async traffic cannot drift apart).
        self.core = ExecutionCore(catalog, planner, stats, tracer)
        self.stats = stats

    def shutdown(self) -> None:
        """Stop the core's shared thread pool (idempotent)."""
        self.core.shutdown()

    # ------------------------------------------------------------------
    # result-cache invalidation (delegated to the shared core)
    # ------------------------------------------------------------------
    def invalidate_dataset(self, dataset_name: str) -> int:
        """Drop every cached result for one dataset; returns entries dropped."""
        return self.core.invalidate_dataset(dataset_name)

    # ------------------------------------------------------------------
    # single queries
    # ------------------------------------------------------------------
    def execute(self, dataset_name: str, query: Query,
                clear_cache: bool = False) -> ExecutedQuery:
        """Plan and run one constraint — or one conjunction of them (a
        convex-polytope query) — recording metrics.

        ``clear_cache`` requests a cold-cache measurement: it empties the
        buffer pool first *and* bypasses the result cache, so the reported
        I/Os are what the query costs from scratch.
        """
        key = (dataset_name, query)
        if not clear_cache:
            cached = self.core.result_cache_get(key)
            if cached is not None:
                return cached
        plan = self.core.planner.plan(dataset_name, query)
        return self.core.dispatch(dataset_name, query, plan, key,
                                  clear_cache=clear_cache)

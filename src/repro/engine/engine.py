"""The query engine facade: one object gluing catalog, planner, executor.

:class:`QueryEngine` is the serving entry point the examples and
benchmarks drive::

    engine = QueryEngine(block_size=64, seed=7)
    engine.register_dataset("screener", points)          # builds a suite
    engine.register_sharded_dataset("logs", big_points,  # K stores + fan-out
                                    num_shards=4, replicas=2,
                                    kinds=["partition_tree", "full_scan"])
    result = engine.query("screener", constraint)        # planner-routed
    engine.insert("logs", point)                         # routed write,
    engine.delete("logs", point)                         # every replica
    batch = engine.serve_batch("screener", constraints)  # one serving wave
    served = engine.serve_async(requests, budgets=...)   # multi-tenant async
    print(engine.stats.to_table())

The engine has one storage recipe: its ``block_size`` (the paper's B),
``cache_blocks`` (M) and ``backend`` hold for every store of every
dataset, and ``backend="file"`` puts all of them in real files
(``data_dir``).  The planner holds no
learned state: each index prices the constraint it is given, so a
restarted engine routes exactly as the one it replaces.
Each shard's expected output comes from a uniform sample of its points
(see :mod:`repro.engine.stats`), and ``auto_rebalance=True`` re-splits
range shards that inserts have unbalanced
(:meth:`QueryEngine.rebalance` does it on demand).
Everything the facade does is available piecemeal through its
:attr:`catalog`, :attr:`planner` and :attr:`executor` attributes.  A
single query runs on the calling thread; many queries — a batch, a
workload, an async stream — are one wave on the serving scheduler
(:meth:`QueryEngine.serve_async`).  Both run through the same
:class:`~repro.engine.executor.ExecutionCore`, so they share one result
cache and one metrics sink.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

import asyncio

from repro.engine.catalog import BuildRecord, Catalog, Query
from repro.engine.executor import BatchExecutor, ExecutedQuery
from repro.engine.metrics import EngineStats
from repro.engine.planner import Planner
from repro.engine.stats import DEFAULT_COVERAGE, ConformalCalibrator
from repro.engine.sharding import RebalanceManager, RebalanceReport
from repro.engine.serving import (
    AdmissionController,
    AsyncExecutor,
    ServeResult,
    ServingRequest,
    TenantBudget,
)
from repro.engine.tracing import Tracer, activate
from repro.engine.writes import MutationResult
from repro.geometry.primitives import LinearConstraint


class QueryEngine:
    """Cost-based routing of linear-constraint queries over many datasets.

    Parameters
    ----------
    block_size / cache_blocks:
        The paper's B and M: every store's block size and buffer-pool
        size.  Every dataset's stores follow the engine's one recipe.
    sample_size:
        Rows of each shard's sample, kept for selectivity estimation.
    seed:
        Seed for sampling and randomised index builds.
    backend / data_dir:
        Storage backend for every store (``"memory"`` or ``"file"``)
        and, for ``"file"``, the directory the block files live in (temp
        files when omitted).  The engine owns that directory until
        :meth:`close`: a second live engine on it is refused, and the
        block files it finds there are deleted, not reopened.
    conformal_coverage:
        Nominal coverage of the conformal intervals on estimation error:
        the executor's observed (estimate, actual) pairs feed a bounded
        per-dataset calibration window, and plans / degraded answers
        carry distribution-free intervals at this level once enough
        pairs are in (see :class:`repro.engine.stats.ConformalCalibrator`).
    auto_rebalance:
        Every serving entry point first checks the touched range-sharded
        datasets for skew (largest shard's live size at
        :data:`~repro.engine.sharding.REBALANCE_THRESHOLD` times the fair
        share, after at least
        :data:`~repro.engine.sharding.REBALANCE_MIN_MUTATIONS` mutations)
        and re-splits them before serving.  :meth:`rebalance` triggers
        the same re-split manually.
    tracing:
        Request tracing: every served request builds a span tree across
        planner, admission, executor fan-out and block I/O (fetch it by
        id via :attr:`tracer`, or ``GET /trace/<id>`` over HTTP).
        ``tracing=False`` swaps in no-op singletons — instrumented code
        paths then allocate nothing.  Finished traces slower than
        :data:`~repro.engine.obs.slowlog.SLOW_QUERY_THRESHOLD_S` (or
        degraded) also land in a bounded slow-query ring
        (``GET /debug/slow``).
    workers:
        Shard-query transport: ``"inprocess"`` (default) fans out on the
        executor's thread pool inside this process; ``"process"`` spawns
        one worker *process* per shard replica behind a
        :class:`~repro.engine.cluster.coordinator.Coordinator` (RPC over
        local sockets, heartbeats, replica failover, write-log replay)
        so a CPU-bound K-way fan-out uses K cores instead of one GIL.
        ``None`` reads the ``REPRO_WORKERS`` environment variable (same
        values).  Answers and I/O accounting are identical in both
        modes; see the README's "Process layer" section for tradeoffs.
    """

    def __init__(self, block_size: int = 64, cache_blocks: int = 4,
                 sample_size: int = 512, seed: Optional[int] = None,
                 backend: str = "memory", data_dir: Optional[str] = None,
                 auto_rebalance: bool = False, tracing: bool = True,
                 workers: Optional[str] = None,
                 conformal_coverage: float = DEFAULT_COVERAGE):
        self.catalog = Catalog(block_size=block_size,
                               cache_blocks=cache_blocks,
                               sample_size=sample_size, seed=seed,
                               backend=backend, data_dir=data_dir)
        self.stats = EngineStats(
            conformal=ConformalCalibrator(coverage=conformal_coverage),
            stats_provider=self._shard_stats,
            build_provider=self._build_records)
        self.planner = Planner(self.catalog)
        self.tracer = Tracer(enabled=tracing)
        self.catalog.tracer = self.tracer
        self.executor = BatchExecutor(self.catalog, self.planner,
                                      stats=self.stats, tracer=self.tracer)
        self._auto_rebalance = auto_rebalance
        self.rebalancer = RebalanceManager(self.catalog, self.stats)
        # A re-split rebuilds per-shard stores and indexes, and a late
        # build adds a kind the planner may pick: flush the dataset's
        # cached answers.
        self.rebalancer.add_listener(
            lambda name, report: self.executor.invalidate_dataset(name))
        self.catalog.add_build_listener(self.executor.invalidate_dataset)
        self.executor.core.writes.add_write_listener(self._after_write)
        mode = workers if workers is not None \
            else os.environ.get("REPRO_WORKERS", "inprocess")
        if mode not in ("inprocess", "process"):
            raise ValueError("workers must be 'inprocess' or 'process', "
                             "got %r" % (mode,))
        self.workers = mode
        self.cluster = None
        if mode == "process":
            # Deferred import: the cluster package imports engine pieces.
            from repro.engine.cluster import Coordinator
            self.cluster = Coordinator(self.catalog)
            self.executor.core.attach_cluster(self.cluster)
            self.stats.worker_provider = self.cluster.worker_metrics
            # A re-split rebuilds the fleet on the new layout.
            self.rebalancer.add_listener(
                lambda name, report: self.cluster.on_rebalance(name))
        self._serving_executor: Optional[AsyncExecutor] = None

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register_dataset(self, name: str,
                         points: Sequence[Sequence[float]],
                         kinds: Optional[Sequence[str]] = None
                         ) -> List[BuildRecord]:
        """Register a dataset and bulk-build its index suite.

        ``kinds`` picks the index families (default: the dimension's
        :func:`~repro.engine.catalog.default_suite`).  Returns the build
        records (space, build I/Os, wall-clock) for the benchmarks.  With
        tracing on, the registration is one ``catalog.register`` trace.
        """
        with self.catalog.registering(name, "register"):
            self.catalog.register_dataset(name, points)
            return self.catalog.build_suite(name, kinds=kinds)

    def register_sharded_dataset(self, name: str,
                                 points: Sequence[Sequence[float]],
                                 num_shards: int,
                                 sharding: str = "range",
                                 shard_attribute: int = 0,
                                 replicas: int = 1,
                                 kinds: Optional[Sequence[str]] = None
                                 ) -> List[BuildRecord]:
        """Register a dataset partitioned across ``num_shards`` stores.

        ``sharding`` picks hash or range partitioning (range splits on
        ``shard_attribute`` and enables shard pruning for constraints that
        are selective in it).  ``replicas`` keeps that many identical
        copies of every shard — each with its own store and index suite —
        so the executor can overlap concurrent tenants hitting the same
        shard by picking the least-loaded replica.  An index suite is
        bulk-built per shard replica; queries against ``name`` then fan
        out to the relevant shards.  With tracing on, the registration is
        one ``catalog.register`` trace (as is every later re-split).
        """
        with self.catalog.registering(name, "register"):
            self.catalog.register_sharded_dataset(
                name, points, num_shards=num_shards, sharding=sharding,
                shard_attribute=shard_attribute, replicas=replicas)
            records = self.catalog.build_suite(name, kinds=kinds)
            if self.cluster is not None:
                self.cluster.start_dataset(name)
        return records

    def _shard_stats(self) -> Dict[str, Dict[str, int]]:
        """Each shard's live size (its primary's overlay count) and
        sample size, by planning replica name (the metrics provider).

        Evaluated at summary/scrape time rather than captured once:
        re-splits rebuild the shards, so stored references would go
        stale.  A shard reports under its planning replica's name (e.g.
        ``logs#2``; a ``register_dataset`` replica keeps its dataset's
        name).
        """
        return {replica.name: {"live_size": replica.live_size,
                               "sample_size": len(replica.stats.sample.rows)}
                for name in self.catalog.datasets()
                for replica in (shard.planning_dataset() for shard
                                in self.catalog.sharded(name).shards)}

    def _build_records(self) -> List[BuildRecord]:
        """Every index build on every replica (the metrics provider)."""
        return [build for name in self.catalog.datasets()
                for build in self.catalog.build_records(name).values()]

    def _after_write(self, name: str, shard_id: int, op: str, point,
                     applied: bool) -> None:
        """The write path's one post-commit listener (barrier held).

        After the replicas, flags and statistics took the write: count
        it toward the rebalance skew signal, then hand the write to the
        process coordinator's log and broadcast (a no-op delete too: the
        log replays it as one).
        """
        if applied:
            self.rebalancer.note_mutation(name)
        if self.cluster is not None:
            self.cluster.note_write(name, shard_id, op, point, applied)

    # ------------------------------------------------------------------
    # rebalancing
    # ------------------------------------------------------------------
    def rebalance(self, dataset: str) -> RebalanceReport:
        """Re-split a range-sharded dataset at fresh quantiles now.

        Collects every shard's live points (inserts included),
        recomputes the quantile boundaries, rebuilds the per-shard
        stores / index suites / statistics and flushes the dataset's
        cached results.  Pruning works again
        afterwards: the new shards' bounding boxes are fresh.  The event
        lands in ``summary()["rebalances"]``.
        """
        return self.rebalancer.rebalance(dataset)

    def _maybe_rebalance(self, *datasets: str) -> None:
        """Auto-trigger hook run at every serving entry point."""
        if not self._auto_rebalance:
            return
        for name in dict.fromkeys(datasets):
            self.rebalancer.maybe_rebalance(name)

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def insert(self, dataset: str, point) -> MutationResult:
        """Insert one point through the engine-level write path.

        On a sharded dataset the point is routed by the shard attribute
        through the dataset's router — using the *current* generation's
        quantile boundaries, so rebalances are transparent to writers —
        and the mutation is fanned out to **every** replica of the
        target shard (all-or-nothing: a replica that fails rolls the
        already-applied copies back), so reads keep spreading over the
        full replica set afterwards.  Statistics, skew counters, cache
        invalidation and the shard's ``written`` flag observe exactly one
        logical mutation.  Every index suite takes writes: they land in
        each replica's write overlay (:mod:`repro.engine.overlay`).
        """
        result = self.executor.core.run_write(dataset, "insert", point)
        self._maybe_rebalance(dataset)
        return result

    def delete(self, dataset: str, point) -> MutationResult:
        """Delete one point (one copy) through the engine-level write path.

        Routed and replica-fanned-out exactly like :meth:`insert`; the
        returned result's ``applied`` is False when the point was not
        present (a no-op).
        """
        result = self.executor.core.run_write(dataset, "delete", point)
        self._maybe_rebalance(dataset)
        return result

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def query(self, dataset: str, query: Query,
              clear_cache: bool = False) -> ExecutedQuery:
        """Serve one constraint, or one AND of constraints (a
        :class:`~repro.core.conjunction.ConstraintConjunction`: a
        convex-polytope query), through the planner-chosen index(es)."""
        self._maybe_rebalance(dataset)
        return self.executor.execute(dataset, query, clear_cache=clear_cache)

    def serve_batch(self, dataset: str,
                    constraints: Sequence[LinearConstraint]) -> ServeResult:
        """Serve a batch against one dataset: :meth:`serve_workload` of
        its ``(dataset, constraint)`` pairs.

        A repeat inside the batch charges nothing: its first occurrence
        has been answered and put in the result cache by the time the
        repeat is admitted.
        """
        return self.serve_workload([(dataset, constraint)
                                    for constraint in constraints])

    def serve_workload(self,
                       requests: Sequence[Tuple[str, LinearConstraint]]
                       ) -> ServeResult:
        """Serve (dataset, constraint) pairs as one :meth:`serve_async`
        wave; the outcomes come back in request order.

        Every request is admitted (no budgets) and one runs at a time
        (the per-shard fan-out inside a request stays parallel) over
        warmed buffer pools.  Requests are submitted stable-sorted by
        dataset and planner-chosen index, so consecutive queries reuse
        one structure's pooled blocks.
        """
        order = sorted(range(len(requests)), key=lambda position: (
            requests[position][0],
            self.planner.plan(*requests[position]).index_name))
        wave = self.serve_async(
            [ServingRequest(tenant="", dataset=requests[position][0],
                            constraint=requests[position][1])
             for position in order],
            max_concurrency=1)
        wave.requests = [outcome for __, outcome
                         in sorted(zip(order, wave.requests))]
        return wave

    def serve_async(self, requests: Sequence[ServingRequest],
                    budgets: Optional[Dict[str, TenantBudget]] = None,
                    max_concurrency: int = 8,
                    warm_cache: bool = True) -> ServeResult:
        """Serve a multi-tenant request stream through the async executor.

        Each :class:`~repro.engine.serving.ServingRequest` carries a
        *tenant* (a logical client — many tenants may hit one dataset), a
        priority and an optional deadline.  Requests are scheduled per
        request instead of per dataset batch, so a slow tenant no longer
        head-of-line-blocks a fast one, and ``budgets`` throttles named
        tenants to a token-bucket I/O rate with a queue / reject / degrade
        policy.  The async path executes through the same core as the
        synchronous one: result cache and metrics are shared.

        Runs its own event loop; from an already-async context construct
        an :class:`~repro.engine.serving.AsyncExecutor` over
        ``engine.executor.core`` and ``await`` its ``serve`` directly.

        ``budgets`` builds a fresh admission controller per call — token
        balances reset between waves.  Budgets that persist across waves
        belong to a long-lived executor: :meth:`serving_executor` (or an
        :class:`~repro.engine.serving.AsyncExecutor`) bound to a
        caller-held :class:`~repro.engine.serving.AdmissionController`,
        whose buckets carry a tenant's exhausted budget and mid-wave
        overdrafts into its next wave.

        Examples
        --------
        One throttled tenant and one unconstrained tenant sharing a
        dataset::

            from repro.engine.serving import ServingRequest, TenantBudget

            requests = [
                ServingRequest(tenant="dashboard", dataset="servers",
                               constraint=cheap, priority=0),
                ServingRequest(tenant="batch_report", dataset="servers",
                               constraint=heavy, deadline_s=30.0),
            ]
            result = engine.serve_async(
                requests,
                budgets={"batch_report": TenantBudget(ios_per_s=200,
                                                      policy="queue")})
            print(result.outcomes())                     # {"served": 2}
            print(result.turnaround_percentile("dashboard", 0.95))
            print(engine.summary()["admission"])         # decision counts
        """
        self._maybe_rebalance(*(request.dataset for request in requests))
        executor = AsyncExecutor(self.executor.core,
                                 admission=AdmissionController(budgets),
                                 max_concurrency=max_concurrency)
        return asyncio.run(executor.serve(requests, warm_cache=warm_cache))

    def serving_executor(self,
                         admission: Optional[AdmissionController] = None,
                         max_concurrency: int = 8) -> AsyncExecutor:
        """The engine-owned long-lived :class:`AsyncExecutor` handle.

        Created on first call (and cached on the engine) over the shared
        :class:`~repro.engine.executor.ExecutionCore`, so the network
        front-end's persistent scheduler serves through the same result
        cache and metrics as every other path.  ``admission``
        binds a caller-held long-lived
        :class:`~repro.engine.serving.AdmissionController` — budgets then
        persist for the executor's whole lifetime.  While the
        scheduler is *running*, a call with a different controller
        raises — silently swapping budget state out from under a live
        server would be worse than an error; a stopped executor rebinds
        (a restarted server brings its own fresh key set).
        """
        if self._serving_executor is None:
            self._serving_executor = AsyncExecutor(
                self.executor.core,
                admission=(admission if admission is not None
                           else AdmissionController()),
                max_concurrency=max_concurrency)
        elif admission is not None \
                and admission is not self._serving_executor.admission:
            self._serving_executor.rebind_admission(admission)
        return self._serving_executor

    def serve_http(self, keys, host: str = "127.0.0.1", port: int = 0,
                   **server_kwargs):
        """Start the HTTP front-end over this engine and return it.

        ``keys`` maps API keys to tenants and budgets (see
        :class:`repro.engine.server.ApiKey`); ``port=0`` binds an
        ephemeral port (read it back off ``server.address``).  The
        returned :class:`repro.engine.server.EngineServer` is already
        started — call its ``stop()`` (or use it as a context manager)
        to drain in-flight requests and shut down.
        """
        from repro.engine.server import EngineServer
        server = EngineServer(self, keys, host=host, port=port,
                              **server_kwargs)
        server.start()
        return server

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down workers, the fan-out pool, and every store backend."""
        if self.cluster is not None:
            self.cluster.stop()
        self.executor.shutdown()
        self.catalog.close()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def explain(self, dataset: str, constraint: Query,
                analyze: bool = False, clear_cache: bool = True):
        """The plan the engine would choose — optionally executed.

        ``constraint`` is a constraint or a conjunction.  With
        ``analyze=False`` (the default) this is pure planning: the
        chosen :class:`~repro.engine.planner.ShardedPlan` is returned
        without touching a store.  With ``analyze=True`` the query
        *executes* under a dedicated trace — even when engine-wide
        tracing is off — and a report dict comes back:

        * ``estimated_ios`` vs ``actual_ios`` (and store cache hits);
        * ``stages`` — per-stage wall-clock (planning, execution);
        * ``per_shard`` — each executed shard's span attributes: its
          replica, index, model and observed I/Os, so estimation error
          is attributable to a specific shard;
        * ``stats_delta`` — the :class:`EngineStats` delta this run
          produced (the summed per-shard I/Os reconcile with it);
        * ``trace`` — the full span tree, and ``trace_id`` to refetch it.

        ``clear_cache=True`` (the default) empties the buffer pool and
        bypasses the result cache so the actuals are the query's cold
        cost.
        """
        if not analyze:
            return self.planner.plan(dataset, constraint)
        # A private always-on tracer keeps analyze working when the
        # engine was built with tracing=False (nothing lands in the
        # shared registry in that case — the report carries the tree).
        tracer = self.tracer if self.tracer.enabled else Tracer(max_traces=4)
        marker = self.stats.snapshot()
        trace = tracer.start_trace("explain", dataset=dataset)
        try:
            with activate(trace.root):
                answer = self.executor.execute(dataset, constraint,
                                               clear_cache=clear_cache)
        finally:
            trace.finish()
        delta = self.stats.snapshot_delta(marker)
        stages = [{"name": node.name,
                   "duration_ms": round(node.duration_s * 1e3, 3)}
                  for node in trace.root.children]
        per_shard = []
        for node in trace.spans("executor.shard"):
            entry = dict(node.attributes)
            entry["duration_ms"] = round(node.duration_s * 1e3, 3)
            per_shard.append(entry)
        return {
            "dataset": dataset,
            "analyze": True,
            "trace_id": trace.trace_id,
            "index": answer.index_name,
            "estimated_ios": answer.estimated_ios,
            "actual_ios": answer.ios.total,
            "cache_hits": answer.ios.cache_hits,
            "latency_s": answer.latency_s,
            "reported": answer.count,
            "from_result_cache": answer.from_result_cache,
            "shards_queried": answer.shards_queried,
            "shards_pruned": answer.shards_pruned,
            "stages": stages,
            "per_shard": per_shard,
            "stats_delta": delta,
            "trace": trace.to_dict(),
        }

    def summary(self) -> Dict[str, object]:
        """Aggregated serving metrics (see :meth:`EngineStats.summary`).

        In process-worker mode a ``"cluster"`` entry is merged in: the
        coordinator's topology snapshot (worker pids/ports/states,
        restart counts, write-log sizes).
        """
        summary = self.stats.summary()
        if self.cluster is not None:
            summary["cluster"] = self.cluster.describe()
        return summary

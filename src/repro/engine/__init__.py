"""The query-serving subsystem: catalog, planner, executor and metrics.

The paper gives several structures with different space/query trade-offs
for the *same* problem; a serving system needs to pick among them per
query.  This package is that layer:

* :class:`~repro.engine.catalog.Catalog` — registers datasets, bulk-builds
  any combination of :class:`~repro.core.interface.ExternalIndex`
  implementations over a shared store, and tracks build cost;
* :class:`~repro.engine.planner.Planner` — asks each candidate what it
  would charge for the constraint (``estimated_query_ios``: the
  structure's own query, priced in memory) and routes to the cheapest;
* :class:`~repro.engine.executor.ExecutionCore` — the shared data path
  (plan execution, sharded fan-out with replica picking, cost-model and
  estimation feedback into the metrics, LRU result cache) both
  executors run through;
* :class:`~repro.engine.executor.BatchExecutor` — the synchronous
  single-query front-end that owns the core;
* :class:`~repro.engine.writes.WritePath` — the engine-level mutation
  path: inserts/deletes routed by shard attribute and fanned out to
  every replica's write overlay (rollback on failure), keeping replicas
  identical so reads stay free to spread after writes — and the one
  place a committed write's effects (flags, statistics, listeners,
  cache flush) apply;
* :mod:`~repro.engine.serving` — the async serving subsystem: the
  :class:`~repro.engine.serving.AsyncExecutor` scheduler over a
  prioritized deadline queue, per-tenant token-bucket admission control
  (queue/reject/degrade), and the least-loaded replica picker;
* :mod:`~repro.engine.sharding` — hash/range shard routers,
  :class:`~repro.engine.sharding.ShardedDataset` (per-shard replicated
  stores and index suites with bounding-box pruning) and the
  :class:`~repro.engine.sharding.RebalanceManager` (skew-triggered
  quantile re-splits after inserts);
* :mod:`~repro.engine.stats` — the selectivity model behind every
  ``expected_output`` estimate (a uniform sample scan, one per shard)
  and the conformal calibrator that bands it;
* :class:`~repro.engine.metrics.EngineStats` — latency percentiles, I/O
  totals, cache hit rates and the plan distribution, backed by a
  labelled :class:`~repro.engine.obs.MetricsRegistry` (Prometheus text
  on ``GET /metrics``);
* :mod:`~repro.engine.tracing` — request-scoped span trees across
  planner, admission, executor fan-out and block I/O, with a bounded
  finished-trace registry and a slow/degraded-query log
  (:class:`~repro.engine.tracing.Tracer`; no-op singletons when off);
* :class:`~repro.engine.engine.QueryEngine` — the facade wiring them up.

The package exports the facade and the two request types a caller hands
it (:class:`~repro.engine.serving.ServingRequest`,
:class:`~repro.engine.serving.TenantBudget`); everything else is
imported from its module.
"""

from repro.engine.engine import QueryEngine
from repro.engine.serving import ServingRequest, TenantBudget

__all__ = ["QueryEngine", "ServingRequest", "TenantBudget"]

"""The query engine serving constraint queries over mixed tenants.

Constraint query languages (one of the paper's motivations, Section 1) ask
for all tuples satisfying linear constraints.  The paper supplies several
structures with different space/query trade-offs; ``repro.engine`` fronts
them with a serving layer: a catalog builds a suite of indexes per
dataset, a cost-based planner routes each query to the structure whose
own query, priced in memory for that constraint, is cheapest, and a
serving wave adds dedup, a result cache and warm buffer pools.

The scenario: two tenants share the engine —

* ``servers``: a 3-D fact table (cpu_load, memory_load, latency_ms),
  **range-sharded on cpu_load across 2 shards with 2 replicas each** —
  queries fan out to the relevant shards only, and concurrent queries on
  one shard overlap across its replicas;
* ``stocks``: a 2-D table (volatility, expected_return).

The engine is **file-backed**: every store of both tenants keeps its
blocks in a real file, one storage recipe for the whole engine.

The engine serves a mixed trace of hot and fresh constraints against
both, ingests **live mutations through the engine-level write path**
(``engine.insert`` routes each new server by cpu_load to its shard and
applies it to *both* replicas, so reads keep spreading after writes),
then switches to the **async serving path**: two logical tenants — an
interactive dashboard and a budget-capped batch reporter — share the
replicated ``servers`` dataset, and admission control keeps the
reporter's heavy queries from inflating the dashboard's latency.
Finally the same engine goes **on the network**: ``engine.serve_http``
binds the asyncio front-end, each tenant presents its own API key, the
reporter's budget now travels with its key, and an SSE stream delivers
a degraded estimate (with a confidence interval) before the exact
answer.  Run with::

    python examples/constraint_engine.py
"""

from __future__ import annotations

import numpy as np

from repro import ConstraintConjunction, LinearConstraint, QueryEngine
from repro.engine import ServingRequest, TenantBudget
from repro.workloads import (
    halfspace_queries_with_selectivity,
    mixed_tenant_workload,
)


def main() -> None:
    block_size = 64
    rng = np.random.default_rng(2)
    servers = np.column_stack([
        rng.beta(2, 3, 6_000),          # cpu_load in [0, 1]
        rng.beta(2, 4, 6_000),          # memory_load in [0, 1]
        rng.gamma(2.0, 0.1, 6_000),     # latency (normalised)
    ])
    stocks = np.column_stack([
        rng.beta(2, 5, 4_000),          # volatility
        rng.normal(0.05, 0.3, 4_000),   # expected return
    ])

    print("Registering tenants and bulk-building their index suites ...")
    # Every store in its own real file (temp files; engine.close() removes
    # them); servers: 2 range shards on cpu_load x 2 replicas, each
    # building one partition tree, which "dynamic" and "partition_tree"
    # both name.
    engine = QueryEngine(block_size=block_size, seed=9, backend="file")
    for record in engine.register_sharded_dataset(
            "servers", servers, num_shards=2, replicas=2, sharding="range",
            kinds=["halfspace3d", "partition_tree", "full_scan", "dynamic"]):
        print("  %-22s %5d blocks  built in %.2fs"
              % ("%s/%s" % (record.dataset, record.kind),
                 record.space_blocks, record.build_seconds))
    for record in engine.register_dataset("stocks", stocks):
        print("  %-22s %5d blocks  built in %.2fs"
              % ("stocks/%s" % record.kind, record.space_blocks,
                 record.build_seconds))

    # --- one query, explained ----------------------------------------------
    constraint = LinearConstraint(coeffs=(-0.2, -0.1), offset=0.4)
    print("\nSingle constraint: latency <= 0.4 - 0.2*cpu - 0.1*mem")
    print(engine.explain("servers", constraint).explain())
    answer = engine.query("servers", constraint)
    expected = {tuple(p) for p in servers if constraint.below(p)}
    assert {tuple(p) for p in answer.points} == expected
    print("  -> served by %s across %d shard(s) (%d pruned): "
          "%d servers in %d I/Os"
          % (answer.index_name, answer.shards_queried, answer.shards_pruned,
             answer.count, answer.total_ios))

    # --- a shard-pruned query ----------------------------------------------
    # Selective in the leading attribute (cpu_load): only low-cpu shards
    # can contain answers, so the planner skips the rest outright.
    pruned_constraint = LinearConstraint(coeffs=(-8.0, 0.0), offset=0.6)
    pruned_answer = engine.query("servers", pruned_constraint)
    assert {tuple(p) for p in pruned_answer.points} == {
        tuple(p) for p in servers if pruned_constraint.below(p)}
    print("\nSteep constraint: latency <= 0.6 - 8*cpu (low-cpu servers only)")
    print("  -> %d/%d shards pruned: %d servers in %d I/Os"
          % (pruned_answer.shards_pruned,
             pruned_answer.shards_pruned + pruned_answer.shards_queried,
             pruned_answer.count, pruned_answer.total_ios))

    # --- a conjunction (convex polytope): one more query --------------------
    conjunction = ConstraintConjunction.of(
        LinearConstraint(coeffs=(0.0, 0.0), offset=0.12),     # latency <= 0.12
    ).and_halfspace((1.0, 1.0, 0.0), 0.55)                    # cpu + mem <= 0.55
    polytope_answer = engine.query("servers", conjunction)
    polytope = conjunction.to_polytope()
    assert sorted(tuple(p) for p in polytope_answer.points) == sorted(
        tuple(p) for p in servers if polytope.contains(p))
    print("\nConjunction: latency <= 0.12 AND cpu+mem <= 0.55")
    print("  -> served by %s: %d servers in %d I/Os"
          % (polytope_answer.index_name, polytope_answer.count,
             polytope_answer.total_ios))

    # --- a mixed-tenant serving trace --------------------------------------
    requests = mixed_tenant_workload(
        {"servers": servers, "stocks": stocks}, num_requests=60,
        hot_fraction=0.4, seed=17)
    print("\nServing %d mixed requests (40%% hot repeats) ..."
          % len(requests))
    result = engine.serve_workload(requests)
    answers = [item.answer for item in result.requests]
    for (tenant, constraint), answer in zip(requests, answers):
        assert {tuple(p) for p in answer.points} == {
            tuple(p) for p in
            {"servers": servers, "stocks": stocks}[tenant]
            if constraint.below(p)}
    print("  %d I/Os total, %d result-cache hits, %.1f ms wall clock"
          % (result.total_ios,
             sum(answer.from_result_cache for answer in answers),
             result.wall_seconds * 1e3))

    # --- async serving: a budget-capped tenant shares the replicated shard -
    # Two logical tenants hit the *same* replicated dataset: "dashboard"
    # issues selective interactive queries, "batch_report" issues
    # reporting-heavy ones.  The reporter is capped to a token-bucket I/O
    # budget (queue policy): its requests defer while the dashboard's
    # flow, so the slow tenant cannot head-of-line-block the fast one.
    dashboard_queries = halfspace_queries_with_selectivity(
        servers, 6, 0.01, seed=23)
    report_queries = halfspace_queries_with_selectivity(
        servers, 6, 0.8, seed=29)
    async_requests = [
        ServingRequest(tenant="batch_report", dataset="servers",
                       constraint=constraint, priority=5)
        for constraint in report_queries
    ] + [
        ServingRequest(tenant="dashboard", dataset="servers",
                       constraint=constraint, priority=0)
        for constraint in dashboard_queries
    ]
    report_cost = engine.explain("servers", report_queries[0]).estimated_ios
    budgets = {"batch_report": TenantBudget(ios_per_s=4.0 * report_cost,
                                            burst=1.2 * report_cost,
                                            policy="queue")}
    print("\nAsync serving: dashboard vs budget-capped batch reporter "
          "(%d requests) ..." % len(async_requests))
    async_result = engine.serve_async(async_requests, budgets=budgets,
                                      max_concurrency=4)
    for request, item in zip(async_requests, async_result.requests):
        assert {tuple(p) for p in item.answer.points} == {
            tuple(p) for p in servers if request.constraint.below(p)}
    print("  outcomes        : %s (%d deferrals of the capped tenant)"
          % (async_result.outcomes(),
             sum(item.deferrals for item in async_result.requests)))
    print("  dashboard p95   : %.1f ms turnaround"
          % (async_result.turnaround_percentile("dashboard", 0.95) * 1e3))
    print("  batch_report p95: %.1f ms turnaround (throttled, by design)"
          % (async_result.turnaround_percentile("batch_report", 0.95) * 1e3))

    # --- live writes: routed inserts applied to every replica --------------
    # engine.insert routes each new server by cpu_load through the range
    # router and applies it to *both* replicas of the target shard, so
    # reads keep spreading over the full replica set afterwards.
    print("\nIngesting 5 fresh servers through the routed write path ...")
    new_servers = np.column_stack([
        rng.beta(2, 3, 5), rng.beta(2, 4, 5), rng.gamma(2.0, 0.1, 5)])
    for row in new_servers:
        result = engine.insert("servers", row)
        print("  cpu %.2f -> shard %d, %d replicas, %d I/Os"
              % (row[0], result.shard_id, result.replicas, result.ios))
    retired = engine.delete("servers", tuple(new_servers[0]))
    assert retired.applied                                 # decommissioned
    live = np.vstack([servers, new_servers[1:]])
    fresh = engine.query("servers", constraint, clear_cache=True)
    assert {tuple(p) for p in fresh.points} == {
        tuple(p) for p in live if constraint.below(p)}
    for shard in engine.catalog.sharded("servers").shards:
        assert shard.replicas_for_query() == [0, 1]        # no pinning
    writes = engine.summary()["writes"]["servers"]
    print("  write counters  : %d inserts, %d deletes, p95 %.2f ms"
          % (writes["inserts"], writes["deletes"],
             writes["latency_s"]["p95"] * 1e3))

    print("\nOpening the HTTP front-end (dashboard key unlimited, "
          "reporter key budget-capped) ...")
    from repro.engine.server import ApiKey, ServerClient
    keys = [
        ApiKey(key="dash-key", tenant="dashboard"),
        ApiKey(key="report-key", tenant="batch_report",
               budget=TenantBudget(ios_per_s=60.0, burst=66.0,
                                   policy="degrade")),
    ]
    with engine.serve_http(keys) as server:
        host, port = server.address
        print("  listening on %s" % server.url)
        dash = ServerClient(host, port, api_key="dash-key")
        status, body = dash.query("servers", [-0.2, -0.1], 0.4)
        print("  POST /query     : %d %s, %d servers in %d I/Os"
              % (status, body["outcome"], body["answer"]["count"],
                 body["answer"]["ios"]))
        status, events = dash.query_stream("servers", [-0.2, -0.1], 0.35)
        estimate, result = events
        low, high = estimate.data["count_interval"]
        print("  GET /query/stream: estimate %d in [%d, %d] first, "
              "exact %d follows"
              % (estimate.data["count_estimate"], low, high,
                 result.data["answer"]["count"]))
        reporter = ServerClient(host, port, api_key="report-key")
        outcomes = [reporter.query("servers", [0.0, 0.0],
                                   0.8 + 0.01 * i)[1]["outcome"]
                    for i in range(4)]
        print("  capped reporter : %s (over budget -> degraded answers "
              "with intervals)" % ", ".join(outcomes))
        status, stats_body = dash.stats()
        print("  GET /stats      : %d, endpoints %s"
              % (status, sorted(stats_body["http"])))
    print("  server drained and stopped.")

    print()
    print(engine.stats.to_table(title="engine serving dashboard"))
    summary = engine.summary()
    print("\nplan distribution : %s" % summary["plan_distribution"])
    print("result cache      : %.0f%% of requests"
          % (100 * summary["result_cache_hit_rate"]))
    print("buffer-pool reuse : %.0f%% of block reads served from memory"
          % (100 * summary["store_cache_hit_rate"]))
    print("shard fan-out     : %d shard visits, %d pruned (%.0f%%)"
          % (summary["shards_queried"], summary["shards_pruned"],
             100 * summary["shard_prune_rate"]))
    print("admission         : %s" % summary["admission"])
    print("replica load      : %s" % summary["replica_load"])
    engine.close()   # removes the file backends' temp block files
    print("\nAll answers verified against in-memory filters.  Done.")


if __name__ == "__main__":
    main()

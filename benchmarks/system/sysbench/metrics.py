"""Every metric the benchmark prints: name, unit, direction, meaning.

``BENCHMARK.json`` at the repository root repeats the names, units and
directions (the smoke test checks the two agree); the definitions and
what each per-layer figure is expected to move live here and in the
README.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: End-to-end: the definition.  Per-layer: which end-to-end metric it
    #: should move, and on which workload.
    note: str
    #: End-to-end only: the share of the parent's median by which the
    #: metric may worsen before a change counts as a regression.
    bound: float = 0.0


#: Every time is corrected for host speed (see ``hostspeed``); two sets of
#: ten seeds then spread 0.02-0.09 (quartile distance over median) on
#: every timing.  The bounds stay at the largest a benchmark may state:
#: the shared host has had worse hours than those sets saw, and a bound
#: has to sit above the spread of the parent's own runs on such a day too.
_TIMING_BOUND = 0.25

END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower",
           "launcher: first QueryEngine(...) call until datasets are "
           "registered, workers are up and the server listens; median of "
           "the fresh-process set-ups of one run", _TIMING_BOUND),
    Metric("query_p50_ms", "ms", "lower",
           "caller-observed query latency at the workload's entry point "
           "(HTTP round trip; engine.query call for embedded_suite), "
           "median", _TIMING_BOUND),
    Metric("query_p95_ms", "ms", "lower",
           "same, 95th percentile (p90 and p99 are printed with the load "
           "generator's figures, ungated)", _TIMING_BOUND),
    Metric("queries_per_s", "1/s", "higher",
           "correct query answers over the sum of all operations' "
           "latencies: what the one caller gets through", _TIMING_BOUND),
    Metric("cpu_ms_per_op", "ms", "lower",
           "user+system CPU of the serving process and its workers over "
           "the measured phase, per operation completed", _TIMING_BOUND),
    Metric("peak_rss_mb", "MB", "lower",
           "peak resident set of the serving process at shutdown", 0.2),
]

INDEX_KINDS = ("halfplane2d", "halfspace3d", "partition_tree", "shallow_tree",
          "hybrid3d", "dynamic", "full_scan")
_SLOW_BUILDS = ("halfplane2d", "halfspace3d")


def _index_metrics() -> List[Metric]:
    rows = []
    for kind in INDEX_KINDS:
        prefix = "core.index.%s." % kind
        where = "embedded_suite" if kind in _SLOW_BUILDS else \
            "every workload that builds it"
        rows += [
            Metric(prefix + "build_s", "s", "lower",
                   "setup_s on " + where),
            Metric(prefix + "build_ios", "blocks", "lower",
                   "setup_s on " + where),
            Metric(prefix + "space_blocks", "blocks", "lower",
                   "peak_rss_mb (memory backend), setup_s"),
            Metric(prefix + "query_ms", "ms", "lower",
                   "query_p50_ms, cpu_ms_per_op where the planner picks "
                   "it (partition_tree: http_selective, embedded_suite)"),
            Metric(prefix + "ios_per_query", "blocks", "lower",
                   "engine.executor.ios_per_query on embedded_suite"),
            Metric(prefix + "ios_per_out_block", "ratio", "lower",
                   "the paper's output term: I/Os per block of answer"),
        ]
    return rows


PER_LAYER: List[Metric] = [
    Metric("io.backend.get_us", "us", "lower",
           "query_p50_ms on http_mixed_rw_file; nothing on memory"),
    Metric("io.backend.put_us", "us", "lower",
           "write latency, setup_s on http_mixed_rw_file"),
    Metric("io.backend.bytes_per_block", "B", "lower",
           "file reads and writes on http_mixed_rw_file"),
    Metric("io.backend.write_amplification", "ratio", "lower",
           "write latency on http_mixed_rw_file"),
    Metric("io.store.read_miss_us", "us", "lower",
           "query_p50_ms on embedded_suite (4-block pool)"),
    Metric("io.store.read_hit_us", "us", "lower",
           "query_p50_ms on the HTTP workloads (64-block pool)"),
    Metric("io.store.hit_rate", "ratio", "higher",
           "query_p50_ms on http_mixed_rw_file"),
    Metric("io.store.reads_per_query", "blocks", "lower",
           "engine.executor.ios_per_query"),
    Metric("io.store.accesses_per_query", "blocks", "lower",
           "cpu_ms_per_op everywhere"),
    Metric("core.kernels.filter_ns_per_record", "ns", "lower",
           "query_p50_ms, cpu_ms_per_op on http_bulk_process; about "
           "nothing on http_selective"),
    Metric("core.kernels.matrix_rows_us_per_kpoint", "us", "lower",
           "query_p50_ms, cpu_ms_per_op on http_bulk_process"),
    *_index_metrics(),
    Metric("engine.catalog.register_s", "s", "lower",
           "setup_s everywhere"),
    Metric("engine.catalog.build_share", "ratio", "lower",
           "share of register_s inside index builds"),
    Metric("engine.stats.estimate_us", "us", "lower",
           "query_p50_ms on http_selective"),
    Metric("engine.stats.qerror_p50", "ratio", "lower",
           "plan choice, so ios_per_query on embedded_suite"),
    Metric("engine.stats.qerror_p90", "ratio", "lower", "same"),
    Metric("engine.planner.plan_us", "us", "lower",
           "query_p50_ms on http_selective"),
    Metric("engine.planner.regret", "ratio", "lower",
           "cold I/Os of the chosen kind over the best candidate's: "
           "ios_per_query, query_p50_ms on embedded_suite"),
    Metric("engine.planner.est_over_observed_p50", "ratio", "lower",
           "calibration: estimated over observed cold I/Os"),
    Metric("engine.planner.shards_pruned_share", "ratio", "higher",
           "query_p50_ms on the sharded workloads"),
    Metric("engine.executor.query_ms", "ms", "lower",
           "query_p50_ms everywhere"),
    Metric("engine.executor.self_ms", "ms", "lower",
           "query_p50_ms everywhere"),
    Metric("engine.executor.ios_per_query", "blocks", "lower",
           "the paper's currency; repeats exactly for one seed"),
    Metric("engine.executor.cache_hit_us", "us", "lower",
           "query_p50_ms on embedded_suite, http_mixed_rw_file"),
    Metric("engine.executor.cache_hit_rate", "ratio", "higher",
           "query_p50_ms on embedded_suite, http_mixed_rw_file"),
    Metric("engine.executor.shards_per_query", "count", "lower",
           "the slowest shard sets query_ms on the sharded workloads"),
    Metric("engine.cluster.query_ms", "ms", "lower",
           "query_p50_ms, queries_per_s on http_bulk_process only"),
    Metric("engine.cluster.self_ms", "ms", "lower",
           "what worker processes add over in-process fan-out"),
    Metric("engine.cluster.ping_us", "us", "lower",
           "RPC floor: query_p50_ms on http_bulk_process"),
    Metric("engine.cluster.codec_us_per_kpoint", "us", "lower",
           "query_p50_ms, cpu_ms_per_op on http_bulk_process"),
    Metric("engine.cluster.wire_bytes_per_point", "B", "lower",
           "query_p50_ms on http_bulk_process"),
    Metric("engine.cluster.spawn_s", "s", "lower",
           "setup_s on http_bulk_process"),
    Metric("engine.cluster.worker_peak_rss_mb", "MB", "lower",
           "memory of one worker process (not in peak_rss_mb)"),
    Metric("engine.serving.turnaround_ms", "ms", "lower",
           "query_p50_ms, query_p95_ms on the HTTP workloads"),
    Metric("engine.serving.self_ms", "ms", "lower",
           "what the scheduler adds; nothing on embedded_suite"),
    Metric("engine.serving.queue_wait_ms", "ms", "lower",
           "query_p95_ms on the HTTP workloads"),
    Metric("engine.serving.admission_decide_us", "us", "lower",
           "query_p50_ms on http_selective"),
    Metric("engine.serving.non_served_share", "ratio", "lower",
           "failed operations"),
    Metric("engine.server.roundtrip_ms", "ms", "lower",
           "query_p50_ms on the HTTP workloads"),
    Metric("engine.server.self_ms", "ms", "lower",
           "what HTTP adds; largest on http_bulk_process"),
    Metric("engine.server.healthz_us", "us", "lower",
           "HTTP floor: query_p50_ms on http_selective"),
    Metric("engine.server.connect_us", "us", "lower",
           "clients that do not keep connections alive"),
    Metric("engine.server.response_bytes_per_point", "B", "lower",
           "query_p50_ms on http_bulk_process"),
    Metric("engine.server.metrics_render_ms", "ms", "lower",
           "scrape cost beside serving"),
    Metric("engine.writes.insert_ms", "ms", "lower",
           "write latency on http_mixed_rw_file"),
    Metric("engine.writes.delete_ms", "ms", "lower",
           "write latency on http_mixed_rw_file"),
    Metric("engine.writes.ios_per_write", "blocks", "lower",
           "write latency on http_mixed_rw_file"),
    Metric("engine.writes.replicas_per_write", "count", "lower",
           "write fan-out on http_mixed_rw_file"),
    Metric("engine.writes.requery_ms", "ms", "lower",
           "query_p95_ms on http_mixed_rw_file"),
    Metric("engine.tracing.enabled_us_per_query", "us", "lower",
           "query_p50_ms, cpu_ms_per_op on the HTTP workloads"),
    Metric("trace.overhead_share", "ratio", "lower",
           "the benchmark's own span recording, on engine.executor"),
]

END_TO_END_UNITS: Dict[str, str] = {m.name: m.unit for m in END_TO_END}
PER_LAYER_UNITS: Dict[str, str] = {m.name: m.unit for m in PER_LAYER}

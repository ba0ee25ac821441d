"""Serving metrics for the query engine: one registry, read two ways.

:class:`EngineStats` is a write API (``record`` / ``note_*``) whose every
call is only its registry writes, and a read API whose every number is a
pure function of one ``registry.collect()``.  ``summary()`` (``GET
/stats``) and the Prometheus text (``GET /metrics``) are two renderings
of the same series, so they cannot disagree, and the state behind them
is O(series), never O(requests).  Windows are counter subtraction
(:meth:`EngineStats.snapshot` / :meth:`EngineStats.snapshot_delta`), so
every integer field is exact; percentiles are interpolated inside the
fixed bucket ladder (the same bucket as the order statistic of that
rank, so at most a factor 2.5 from it on the latency ladder).

============================  =======================  ==========================
family (``engine_`` + ...)    labels                   ``summary()`` fields
============================  =======================  ==========================
queries_total                 dataset, index, tenant   num_queries,
                                                       plan_distribution,
                                                       tenants.*.queries
ios_total                     (same)                   total_ios, mean_ios,
                                                       tenants.*.total_ios
records_reported_total        (same)                   total_reported
store_cache_hits_total        (same)                   store_cache_hits,
                                                       store_cache_hit_rate
result_cache_hits_total       (same)                   result_cache_hits (also
                                                       per tenant), its rate
shards_queried_total          (same)                   shards_queried,
                                                       shard_prune_rate
shards_pruned_total           (same)                   shards_pruned,
                                                       shard_prune_rate
degraded_answers_total        (same), interval_source  tenants.*.degraded (and
                                                       snapshot_delta's degraded)
query_latency_seconds         dataset, index, tenant   latency_s,
                                                       tenants.*.latency_s
estimation_qerror             dataset                  estimation_qerror
cost_model_ratio              dataset, index           (``/metrics`` only)
index_steps_total             dataset, index, step     (``/metrics`` only)
halfspace3d_queries_total     dataset, outcome         (``/metrics`` only)
result_cache_evictions_total  dataset, cause           result_cache.evictions
writes_total                  dataset, op              writes.*.inserts, deletes,
                                                       noop_deletes
replica_writes_total          dataset                  writes.*.replica_writes
write_ios_total               dataset                  writes.*.total_ios
write_latency_seconds         dataset                  writes.*.latency_s
http_requests_total           endpoint, status         http.*.requests, status
http_latency_seconds          endpoint                 http.*.latency_s
http_encode_seconds           endpoint                 http.*.encode_s
http_response_bytes           endpoint                 http.*.response_bytes
admission_decisions_total     decision                 admission
queue_depth_max (gauge)                                max_queue_depth
rebalances_total              dataset                  rebalances.count,
                                                       by_dataset
replica_ios_total             dataset, shard, replica  replica_load
conformal_* (gauges)          dataset                  conformal (refreshed at
                                                       each scrape)
============================  =======================  ==========================

``to_table()`` groups the query families by ``index``; the only
per-event structure kept is a fixed-size ring of the latest rebalance
reports (``rebalances.events``).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Callable, Deque, Dict, Iterable,
                    List, Mapping, Optional, Sequence, Tuple, Union)

from repro.engine.obs.registry import (Counter, Gauge, Histogram,
                                       HistogramView, MetricsRegistry,
                                       histogram_quantile, merge_histograms,
                                       view_to_json)
from repro.engine.result_cache import RESULT_CACHE_BYTES, RESULT_CACHE_ENTRIES
from repro.engine.stats.conformal import ConformalCalibrator
from repro.experiments.harness import format_table

if TYPE_CHECKING:       # the executor imports this module
    from repro.engine.executor import ExecutedQuery

#: The labels of every query family, and their positions for group-bys.
QUERY_LABELS = ("dataset", "index", "tenant")
_INDEX, _TENANT = 1, 2

#: Rebalance reports retained for ``summary()["rebalances"]["events"]``.
REBALANCE_EVENTS_KEPT = 64

#: The fields of an index's account (``last_query``) that say how a
#: query was answered rather than count its steps: ``halfspace3d``'s
#: sample size read and its scan reason.
ACCOUNT_LABELS = ("layer", "scanned")


def jsonable(value: object) -> object:
    """Normalize a summary value into strict-JSON-serializable shape.

    ``/stats`` serves :meth:`EngineStats.summary` over the wire, so the
    whole tree must survive ``json.dumps(..., allow_nan=False)`` and
    round-trip through ``json.loads`` unchanged: tuples become lists,
    numpy scalars/arrays become Python numbers/lists, non-finite floats
    (which are invalid JSON) become None, and non-string dict keys are
    stringified.  Unknown objects fall back to ``repr`` rather than
    failing the whole dashboard payload.
    """
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        return float(value) if math.isfinite(value) else None
    if isinstance(value, dict):
        return {str(key): jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [jsonable(item) for item in value]
    item_of = getattr(value, "item", None)
    if callable(item_of):          # numpy scalars
        try:
            return jsonable(item_of())
        except (TypeError, ValueError):
            pass
    tolist = getattr(value, "tolist", None)
    if callable(tolist):           # numpy arrays
        return jsonable(tolist())
    return repr(value)


def q_error(expected: float, actual: float) -> float:
    """The planner's estimation error for one query, as a ratio >= 1.

    The standard cardinality-estimation metric: ``max(est/act, act/est)``
    with both sides clamped to 1, so a zero estimate against a zero
    actual is a perfect 1.0 instead of 0/0.
    """
    expected = max(float(expected), 1.0)
    actual = max(float(actual), 1.0)
    return max(expected / actual, actual / expected)


def percentile(sorted_values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 for empty input)."""
    if not sorted_values:
        return 0.0
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must lie in [0, 1], got %r" % fraction)
    rank = min(len(sorted_values) - 1,
               max(0, int(round(fraction * (len(sorted_values) - 1)))))
    return sorted_values[rank]


def _percentiles(histogram: HistogramView,
                 fractions: Sequence[float]) -> Dict[str, float]:
    """Bucket-interpolated percentiles keyed "p50", "p95", ..."""
    return {"p%g" % (fraction * 100): histogram_quantile(histogram, fraction)
            for fraction in fractions}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


Metric = Union[Counter, Gauge, Histogram]
_P50_95_99 = (0.5, 0.95, 0.99)
_NO_SAMPLES = merge_histograms(())


def _growth(now: HistogramView,
            before: Optional[HistogramView]) -> HistogramView:
    """A histogram series minus an earlier scrape of it, clamped at zero."""
    if before is None:
        return now
    return dict(now, sum=now["sum"] - before["sum"], cumulative=[
        max(0, count - earlier) for count, earlier
        in zip(now["cumulative"], before["cumulative"])])


class _View:
    """One ``registry.collect()`` and the group-bys every report is made of.

    A family is named by its metric handle, a label by its position.
    """

    def __init__(self, collected: Dict[str, dict]) -> None:
        self.collected = collected

    def series(self, metric: Metric) -> Dict[tuple, Any]:
        """One family's series (amounts or histograms) by label values."""
        return self.collected[metric.kind + "s"].get(metric.name, {})

    def total(self, metric: Metric) -> int:
        return sum(self.series(metric).values())

    def by(self, metric: Metric, position: int) -> Dict[str, int]:
        """A counter family summed per value of one label (zeros dropped)."""
        out: Dict[str, int] = {}
        for values, amount in self.series(metric).items():
            if amount:
                out[values[position]] = out.get(values[position], 0) + amount
        return out

    def merged(self, metric: Metric,
               position: int) -> Dict[str, HistogramView]:
        """A histogram family merged per value of one label."""
        groups: Dict[str, List[HistogramView]] = {}
        for values, part in self.series(metric).items():
            groups.setdefault(values[position], []).append(part)
        return {value: merge_histograms(parts)
                for value, parts in groups.items()}

    def since(self, marker: "_View") -> "_View":
        """What every counter and bucket grew by since an earlier view.

        Differences clamp at zero, so a ``reset()`` in between yields an
        empty window instead of a negative one.
        """
        grown = dict(self.collected, counters={}, histograms={})
        for family, series in self.collected["counters"].items():
            before = marker.collected["counters"].get(family, {})
            grown["counters"][family] = {
                values: max(0, amount - before.get(values, 0))
                for values, amount in series.items()}
        for family, series in self.collected["histograms"].items():
            before = marker.collected["histograms"].get(family, {})
            grown["histograms"][family] = {
                values: _growth(now, before.get(values))
                for values, now in series.items()}
        return _View(grown)


@dataclass
class EngineStats:
    """Aggregated serving statistics across every query the engine ran."""

    #: The labeled metric families every ``record`` / ``note_*`` call
    #: writes — the only state the reports below are computed from.
    registry: MetricsRegistry = field(default_factory=MetricsRegistry,
                                      repr=False)
    #: Per-dataset conformal calibration over the same (expected, actual)
    #: pairs :meth:`note_estimation` records — the distribution-free
    #: intervals degraded answers serve once the window is warm.
    conformal: ConformalCalibrator = field(
        default_factory=ConformalCalibrator, repr=False)
    #: Optional callable returning each shard's ``{"live_size",
    #: "sample_size"}`` by planning replica name (the engine registers
    #: one); feeds ``summary()["stats"]``.
    stats_provider: Optional[Callable[[], Dict[str, Dict[str, int]]]] = \
        field(default=None, repr=False)
    #: Optional callable returning the result cache's resident
    #: ``(entries, bytes)`` (the execution core registers its own);
    #: feeds ``summary()["result_cache"]`` and the gauge pair.
    result_cache_provider: Optional[Callable[[], Tuple[int, int]]] = field(
        default=None, repr=False)
    #: Optional callable returning the catalog's ``BuildRecord`` of every
    #: index on every replica (the engine registers one); feeds the
    #: index-build gauges.
    build_provider: Optional[Callable[[], Iterable[object]]] = field(
        default=None, repr=False)
    #: The latest shard re-split reports (RebalanceReport summaries, in
    #: order); their count lives in the rebalance counter.
    rebalance_events: Deque[Dict[str, object]] = field(
        default_factory=lambda: deque(maxlen=REBALANCE_EVENTS_KEPT))

    def __post_init__(self) -> None:
        reg = self.registry
        self._m_queries = reg.counter(
            "engine_queries_total", "Served queries", QUERY_LABELS)
        self._m_ios = reg.counter(
            "engine_ios_total", "Block transfers charged to served queries",
            QUERY_LABELS)
        self._m_reported = reg.counter(
            "engine_records_reported_total",
            "Records reported by served queries", QUERY_LABELS)
        self._m_store_hits = reg.counter(
            "engine_store_cache_hits_total",
            "Buffer-pool hits attributed to served queries", QUERY_LABELS)
        self._m_result_hits = reg.counter(
            "engine_result_cache_hits_total",
            "Queries answered from the result cache", QUERY_LABELS)
        self._m_result_evictions = reg.counter(
            "engine_result_cache_evictions_total",
            "Answers the result cache dropped, by cause: a write that can "
            "change the answer, a flush of the dataset, or a bound",
            ("dataset", "cause"))
        self._m_shards_queried = reg.counter(
            "engine_shards_queried_total",
            "Shard visits of fanned-out queries", QUERY_LABELS)
        self._m_shards_pruned = reg.counter(
            "engine_shards_pruned_total",
            "Shard visits the planner's pruning avoided", QUERY_LABELS)
        self._m_degraded = reg.counter(
            "engine_degraded_answers_total",
            "Degraded (sample-only) answers served",
            QUERY_LABELS + ("interval_source",))
        self._m_latency = reg.histogram(
            "engine_query_latency_seconds", "Served-query latency",
            QUERY_LABELS)
        self._m_qerror = reg.histogram(
            "engine_estimation_qerror",
            "Expected-output q-error per executed plan", ("dataset",),
            buckets=(1.0, 1.25, 1.5, 2.0, 3.0, 5.0, 10.0, 50.0))
        self._m_cost_model = reg.histogram(
            "engine_cost_model_ratio",
            "Observed cold I/Os over the chosen index's model I/Os, per "
            "executed plan", ("dataset", "index"),
            buckets=(0.25, 0.5, 0.8, 0.9, 1.0, 1.1, 1.25, 2.0, 4.0, 10.0))
        self._m_writes = reg.counter(
            "engine_writes_total", "Engine-level mutations",
            ("dataset", "op"))
        self._m_replica_writes = reg.counter(
            "engine_replica_writes_total",
            "Per-replica applications of mutations", ("dataset",))
        self._m_write_ios = reg.counter(
            "engine_write_ios_total",
            "Block transfers charged to mutations", ("dataset",))
        self._m_write_latency = reg.histogram(
            "engine_write_latency_seconds", "Mutation latency", ("dataset",))
        self._m_http = reg.counter(
            "engine_http_requests_total", "Handled HTTP requests",
            ("endpoint", "status"))
        self._m_http_latency = reg.histogram(
            "engine_http_latency_seconds", "HTTP handling latency",
            ("endpoint",))
        self._m_http_encode = reg.histogram(
            "engine_http_encode_seconds",
            "Time spent encoding a response's bodies", ("endpoint",))
        self._m_http_bytes = reg.histogram(
            "engine_http_response_bytes", "Response body size",
            ("endpoint",), buckets=tuple(4 ** k for k in range(3, 13)))
        self._m_admission = reg.counter(
            "engine_admission_decisions_total",
            "Admission-control outcomes", ("decision",))
        self._m_queue_depth = reg.gauge(
            "engine_queue_depth_max",
            "Deepest the async request queue has run")
        self._m_rebalances = reg.counter(
            "engine_rebalances_total", "Shard re-split events", ("dataset",))
        self._m_replica_ios = reg.counter(
            "engine_replica_ios_total", "I/Os attributed per shard replica",
            ("dataset", "shard", "replica"))
        self._m_steps = reg.counter(
            "engine_index_steps_total",
            "Steps of served queries, by each index's own account (cells "
            "crossed, secondary walks, layers probed, ...)",
            ("dataset", "index", "step"))
        self._m_halfspace3d = reg.counter(
            "engine_halfspace3d_queries_total",
            "halfspace3d queries by how they were answered: from one "
            "layer's conflict list, or a scan and why", ("dataset", "outcome"))
        # State gauges: last-write-wins snapshots refreshed by
        # refresh_model_metrics() (every summary() / /metrics scrape).
        self._m_result_cache_entries = reg.gauge(
            "engine_result_cache_entries", "Answers resident in the result "
            "cache")
        self._m_result_cache_bytes = reg.gauge(
            "engine_result_cache_bytes", "Bytes of the answer matrices "
            "resident in the result cache")
        self._m_build_seconds = reg.gauge(
            "engine_index_build_seconds",
            "Wall-clock seconds the index's latest build took",
            ("dataset", "index", "kind"))
        self._m_build_ios = reg.gauge(
            "engine_index_build_ios",
            "Block transfers the index's latest build was charged",
            ("dataset", "index", "kind"))
        self._m_conformal_pairs = reg.gauge(
            "engine_conformal_calibration_pairs",
            "Calibration pairs held per dataset", ("dataset",))
        self._m_conformal_intervals = reg.gauge(
            "engine_conformal_intervals_total",
            "Conformal intervals scored against actual counts",
            ("dataset",))
        self._m_conformal_covered = reg.gauge(
            "engine_conformal_covered_total",
            "Conformal intervals that covered the actual count",
            ("dataset",))
        self._m_conformal_coverage = reg.gauge(
            "engine_conformal_empirical_coverage",
            "Prequential empirical coverage per dataset (vs nominal)",
            ("dataset",))
        #: Process mode's worker metrics, ``() -> [(replica, {gauge
        #: suffix: value})]`` (the engine registers the coordinator's);
        #: None: no workers.  Published as the ``engine_worker_*`` gauges.
        self.worker_provider: Optional[
            Callable[[], List[Tuple[str, Dict[str, float]]]]] = None
        self._m_workers = {
            suffix: reg.gauge("engine_worker_" + suffix, about, ("worker",))
            for suffix, about in (
                ("served", "Queries the worker answered"),
                ("writes", "Writes the worker applied (last heartbeat)"),
                ("last_seq", "Highest write-log seq sent to the worker"),
                ("restarts", "Times the worker was respawned"),
                ("ios", "The worker store's I/Os (last heartbeat)"),
                ("peak_rss_bytes", "The worker's peak RSS (last heartbeat)"),
                ("wire_bytes_received",
                 "RPC frame bytes the worker received (last heartbeat)"),
                ("wire_bytes_sent",
                 "RPC frame bytes the worker sent (last heartbeat)"),
                ("codec_seconds", "CPU seconds the worker spent on its "
                 "RPC frames, waits left out (last heartbeat)"))}

    # ------------------------------------------------------------------
    # writes: each call is only its registry writes (thread-safe, no lock)
    # ------------------------------------------------------------------
    def record(self, answer: ExecutedQuery) -> None:
        """Count one served query."""
        # One label tuple for the eight families (QUERY_LABELS order).
        values = (str(answer.dataset), str(answer.index_name),
                  str(answer.tenant))
        self._m_queries.inc_at(values, 1)
        self._m_latency.observe_at(values, answer.latency_s)
        for counter, amount in (
                (self._m_ios, answer.ios.total),
                (self._m_reported, len(answer.points)),
                (self._m_store_hits, answer.ios.cache_hits),
                (self._m_result_hits, int(answer.from_result_cache)),
                (self._m_shards_queried, answer.shards_queried),
                (self._m_shards_pruned, answer.shards_pruned)):
            if amount:
                counter.inc_at(values, amount)
        if answer.degraded:
            self._m_degraded.inc_at(
                values + (answer.interval_source or "",), 1)

    def note_cost_model(self, dataset: str, index: str, model_ios: float,
                        observed_ios: int) -> None:
        """Record one executed plan's observed cold I/Os over what its
        index's cost model predicted (both floored at 1, so an exact
        empty walk reads 1.0) — the model-versus-reality dashboard."""
        self._m_cost_model.observe_at(
            (str(dataset), str(index)),
            max(observed_ios, 1.0) / max(model_ios, 1.0))

    def note_estimation(self, dataset: str, expected: float,
                        actual: float) -> None:
        """Record one plan's expected-vs-actual output q-error.

        Fed by the executor beside the cost-model ratio, so every
        executed (shard) plan contributes exactly one sample — the signal
        operators watch to see when a dataset's selectivity model is
        misestimating.  Each pair also feeds the dataset's conformal
        calibration window, which is where degraded answers get their
        distribution-free intervals once it is warm.
        """
        self._m_qerror.observe(q_error(expected, actual), dataset=dataset)
        self.conformal.observe(dataset, expected, actual)

    def note_write(self, dataset: str, op: str, applied: bool, ios: int,
                   latency_s: float, replicas: int) -> None:
        """Record one engine-level mutation.

        One call per *logical* mutation, however many replicas it fanned
        out to; ``replicas`` counts the per-replica applications and
        ``ios`` the block transfers they charged in total.  A delete of
        an absent point lands in ``noop_deletes`` instead of ``deletes``.
        """
        if op != "insert":
            op = "delete" if applied else "noop_delete"
        self._m_writes.inc(dataset=dataset, op=op)
        self._m_replica_writes.inc(replicas, dataset=dataset)
        self._m_write_ios.inc(ios, dataset=dataset)
        self._m_write_latency.observe(latency_s, dataset=dataset)

    def note_http(self, endpoint: str, status: int, latency_s: float,
                  encode_s: float, body_bytes: int) -> None:
        """Record one handled HTTP request.

        ``endpoint`` is the route path (e.g. ``"/query"``); the server
        buckets unroutable or malformed requests under ``"*"`` so a
        scanner probing random paths cannot grow the table unboundedly.
        ``encode_s`` of the latency went into turning the response's
        ``body_bytes`` into text.
        """
        self._m_http.inc(endpoint=endpoint, status=int(status))
        self._m_http_latency.observe(latency_s, endpoint=endpoint)
        self._m_http_encode.observe(encode_s, endpoint=endpoint)
        self._m_http_bytes.observe(body_bytes, endpoint=endpoint)

    def note_result_evictions(self, dataset: str, cause: str,
                              count: int) -> None:
        """Count answers the result cache dropped (cause ``write``,
        ``flush`` or ``capacity``)."""
        self._m_result_evictions.inc_at((dataset, cause), count)

    def note_rebalance(self, event: Dict[str, object]) -> None:
        """Record one shard re-split event."""
        self.rebalance_events.append(dict(event))
        self._m_rebalances.inc(dataset=str(event.get("dataset")))

    def note_admission(self, decision: str) -> None:
        """Count one admission-control outcome."""
        self._m_admission.inc(decision=decision)

    def note_queue_depth(self, depth: int) -> None:
        """Sample the serving queue's depth (called by the async scheduler).

        Keeps a running maximum, not the samples: the scheduler wakes up
        to a thousand times a second under a throttled tenant, and only
        the peak is reported.
        """
        self._m_queue_depth.max(depth)

    def record_replica_load(self, dataset: str, shard_id: int,
                            replica_id: int, ios: int) -> None:
        """Attribute I/Os to one shard replica."""
        self._m_replica_ios.inc(ios, dataset=dataset, shard=shard_id,
                                replica=replica_id)

    def note_account(self, dataset: str, index: str,
                     account: Mapping[str, object]) -> None:
        """Publish one shard's query account (the index's ``last_query``):
        each step count under its name, and a ``halfspace3d`` answer by
        its outcome — ``layer``, or the reason it scanned."""
        for step, count in account.items():
            if count and step not in ACCOUNT_LABELS:
                self._m_steps.inc_at((dataset, index, step), count)
        if "scanned" in account:
            self._m_halfspace3d.inc_at(
                (dataset, account["scanned"] or "layer"), 1)

    def reset(self) -> None:
        """Zero every series (e.g. between benchmark phases)."""
        self.rebalance_events.clear()
        self.conformal.reset()
        self.registry.reset()

    # ------------------------------------------------------------------
    # reads: each is a pure function of one registry.collect()
    # ------------------------------------------------------------------
    def snapshot(self) -> _View:
        """An opaque window marker for :meth:`snapshot_delta`.

        A copy of the current counters and histogram buckets (O(series),
        whatever the traffic so far), so benchmarks and tests can bracket
        a phase with ``marker = stats.snapshot(); ...;
        stats.snapshot_delta(marker)`` instead of re-creating engines to
        get a clean counter window.  Every report below is computed
        from one.
        """
        return _View(self.registry.collect())

    def snapshot_delta(self, marker: _View) -> Dict[str, object]:
        """Aggregates over the queries served since ``marker``.

        Returns the windowed counterparts of the headline ``summary()``
        numbers (query count, I/O and cache totals, latency percentiles,
        plan distribution), strictly JSON-serializable.  The integer
        fields are exact (counter subtraction); the percentiles are
        interpolated from the window's bucket counts.  ``reset()``
        between the marker and the delta yields an empty window rather
        than an error.
        """
        window = self.snapshot().since(marker)
        return jsonable(dict(
            self._totals(window), degraded=window.total(self._m_degraded),
            latency_s=self._latency(window, _P50_95_99),
            plan_distribution=window.by(self._m_queries, _INDEX)))

    def _totals(self, view: _View) -> Dict[str, int]:
        return {
            "num_queries": view.total(self._m_queries),
            "total_ios": view.total(self._m_ios),
            "total_reported": view.total(self._m_reported),
            "store_cache_hits": view.total(self._m_store_hits),
            "result_cache_hits": view.total(self._m_result_hits),
            "shards_queried": view.total(self._m_shards_queried),
            "shards_pruned": view.total(self._m_shards_pruned),
        }

    def _latency(self, view: _View,
                 fractions: Sequence[float]) -> Dict[str, float]:
        return _percentiles(
            merge_histograms(view.series(self._m_latency).values()),
            fractions)

    @property
    def num_queries(self) -> int:
        """Number of served queries (result-cache hits included)."""
        return self.snapshot().total(self._m_queries)

    @property
    def total_ios(self) -> int:
        """Total block transfers across every served query."""
        return self.snapshot().total(self._m_ios)

    @property
    def shards_queried(self) -> int:
        """Total shard visits across every fanned-out query."""
        return self.snapshot().total(self._m_shards_queried)

    @property
    def shards_pruned(self) -> int:
        """Total shard visits the planner's pruning avoided."""
        return self.snapshot().total(self._m_shards_pruned)

    def _grouped(self, view: _View, position: int,
                 fractions: Sequence[float]) -> Dict[str, Dict[str, object]]:
        """Query traffic per value of one query label (tenant or index)."""
        ios = view.by(self._m_ios, position)
        degraded = view.by(self._m_degraded, position)
        hits = view.by(self._m_result_hits, position)
        latency = view.merged(self._m_latency, position)
        return {
            value: {"queries": queries,
                    "total_ios": ios.get(value, 0),
                    "degraded": degraded.get(value, 0),
                    "result_cache_hits": hits.get(value, 0),
                    "latency_s": _percentiles(
                        latency.get(value, _NO_SAMPLES), fractions)}
            for value, queries
            in sorted(view.by(self._m_queries, position).items())}

    def _tenants(self, view: _View) -> Dict[str, Dict[str, object]]:
        """Per-tenant traffic (queries, I/Os, latency percentiles): only
        series carrying a tenant label (the async serving path)."""
        rows = self._grouped(view, _TENANT, _P50_95_99)
        rows.pop("", None)
        return rows

    def _replica_load(self, view: _View) -> Dict[str, int]:
        """Per-replica I/O totals keyed ``dataset/shard/replica``."""
        series = view.series(self._m_replica_ios)
        ordered = sorted(series, key=lambda key: (key[0], int(key[1]),
                                                  int(key[2])))
        return {"/".join(key): series[key] for key in ordered}

    def _estimation(self, view: _View) -> Dict[str, Dict[str, float]]:
        """Per-dataset expected-output q-error percentiles.

        One entry per dataset that executed at least one plan: sample
        count, p50/p90/max and mean of the q-errors.  A p50 near 1.0
        means the selectivity model prices typical queries well; a heavy
        tail (p90/max) says the sample is too small for the workload's
        selectivities (or that a mutated shard needs rebalancing).  Count,
        max and mean are exact; p50/p90 are interpolated from the q-error
        buckets.
        """
        out = {}
        for dataset, errors in sorted(view.merged(self._m_qerror, 0).items()):
            plans = errors["cumulative"][-1]
            out[dataset] = {
                "plans": plans,
                # A q-error is >= 1 by definition, but the first bucket's
                # interpolation starts at 0.
                "p50": max(1.0, histogram_quantile(errors, 0.5)),
                "p90": max(1.0, histogram_quantile(errors, 0.9)),
                "max": errors["max"],
                "mean": _ratio(errors["sum"], plans),
            }
        return out

    def _writes(self, view: _View) -> Dict[str, Dict[str, object]]:
        out: Dict[str, Dict[str, object]] = {}
        for (dataset, op), amount in sorted(
                view.series(self._m_writes).items()):
            out.setdefault(dataset, {"inserts": 0, "deletes": 0,
                                     "noop_deletes": 0})[op + "s"] = amount
        replica_writes = view.by(self._m_replica_writes, 0)
        ios = view.by(self._m_write_ios, 0)
        latency = view.merged(self._m_write_latency, 0)
        for dataset, payload in out.items():
            payload["replica_writes"] = replica_writes.get(dataset, 0)
            payload["total_ios"] = ios.get(dataset, 0)
            payload["latency_s"] = _percentiles(
                latency.get(dataset, _NO_SAMPLES), _P50_95_99)
        return out

    def _http(self, view: _View) -> Dict[str, Dict[str, object]]:
        out: Dict[str, Dict[str, object]] = {}
        for (endpoint, status), amount in sorted(
                view.series(self._m_http).items()):
            entry = out.setdefault(endpoint, {"requests": 0, "status": {}})
            entry["requests"] += amount
            entry["status"][status] = amount
        for field, metric in (("latency_s", self._m_http_latency),
                              ("encode_s", self._m_http_encode),
                              ("response_bytes", self._m_http_bytes)):
            merged = view.merged(metric, 0)
            for endpoint, entry in out.items():
                entry[field] = _percentiles(
                    merged.get(endpoint, _NO_SAMPLES), _P50_95_99)
        return out

    # ------------------------------------------------------------------
    # model state
    # ------------------------------------------------------------------
    def refresh_model_metrics(self) -> None:
        """Update the conformal, result-cache, index-build and worker
        gauges.

        Called before every ``/metrics`` scrape (and by ``summary()``),
        since gauges are last-write-wins snapshots rather than hot-path
        counters.
        """
        for name, state in self.conformal.describe()["datasets"].items():
            self._m_conformal_pairs.set(state["pairs"], dataset=name)
            self._m_conformal_intervals.set(state["intervals"], dataset=name)
            self._m_conformal_covered.set(state["covered"], dataset=name)
            if state["empirical_coverage"] is not None:
                self._m_conformal_coverage.set(state["empirical_coverage"],
                                               dataset=name)
        if self.result_cache_provider is not None:
            entries, resident = self.result_cache_provider()
            self._m_result_cache_entries.set(entries)
            self._m_result_cache_bytes.set(resident)
        if self.build_provider is not None:
            for build in self.build_provider():
                labels = {"dataset": build.dataset, "index": build.index_name,
                          "kind": build.kind}
                self._m_build_seconds.set(build.build_seconds, **labels)
                if build.build_ios is not None:
                    self._m_build_ios.set(build.build_ios.total, **labels)
        if self.worker_provider is not None:
            for worker, values in self.worker_provider():
                for suffix, value in values.items():
                    self._m_workers[suffix].set(value, worker=worker)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """Everything a dashboard (or BENCH json) wants, as one dict.

        Computed from a single registry scrape, so its parts reconcile
        with each other and with ``summary()["metrics"]``.  The returned
        tree is strictly JSON-serializable — tuples, numpy scalars and
        non-finite floats are normalized by :func:`jsonable` — because
        ``/stats`` ships it over the wire verbatim and
        ``json.dumps(summary, allow_nan=False)`` must not raise.
        """
        self.refresh_model_metrics()
        view = self.snapshot()
        summary: Dict[str, object] = self._totals(view)
        queries, ios = summary["num_queries"], summary["total_ios"]
        store_hits, pruned = (summary["store_cache_hits"],
                              summary["shards_pruned"])
        summary.update({
            "mean_ios": _ratio(ios, queries),
            "result_cache_hit_rate": _ratio(summary["result_cache_hits"],
                                            queries),
            "store_cache_hit_rate": _ratio(store_hits, store_hits + ios),
            "shard_prune_rate": _ratio(
                pruned, summary["shards_queried"] + pruned),
            "latency_s": self._latency(view, (0.5, 0.9, 0.99)),
            "plan_distribution": view.by(self._m_queries, _INDEX),
            "estimation_qerror": self._estimation(view),
            "stats": dict(sorted(self.stats_provider().items()))
            if self.stats_provider is not None else {},
            "conformal": self.conformal.describe(),
            "writes": self._writes(view),
            "rebalances": {"count": view.total(self._m_rebalances),
                           "by_dataset": view.by(self._m_rebalances, 0),
                           "events": list(self.rebalance_events)},
            "admission": view.by(self._m_admission, 0),
            "max_queue_depth": int(
                view.series(self._m_queue_depth).get((), 0)),
            "result_cache": {
                "entries": int(view.series(
                    self._m_result_cache_entries).get((), 0)),
                "bytes": int(view.series(
                    self._m_result_cache_bytes).get((), 0)),
                "max_entries": RESULT_CACHE_ENTRIES,
                "max_bytes": RESULT_CACHE_BYTES,
                "evictions": dict.fromkeys(("write", "flush", "capacity"), 0)
                | view.by(self._m_result_evictions, 1)},
            "replica_load": self._replica_load(view),
            "tenants": self._tenants(view),
            "http": self._http(view),
            "metrics": view_to_json(view.collected),
        })
        return jsonable(summary)

    def to_table(self, title: Optional[str] = None) -> str:
        """Per-index serving table (queries, I/Os, latency percentiles)."""
        header = ["index", "#q", "mean I/Os", "total I/Os", "p50 ms",
                  "p99 ms", "res-cache hits"]
        rows = []
        for name, group in self._grouped(self.snapshot(), _INDEX,
                                         (0.5, 0.99)).items():
            rows.append([
                name,
                str(group["queries"]),
                "%.1f" % (group["total_ios"] / group["queries"]),
                str(group["total_ios"]),
                "%.2f" % (group["latency_s"]["p50"] * 1e3),
                "%.2f" % (group["latency_s"]["p99"] * 1e3),
                str(group["result_cache_hits"]),
            ])
        return format_table(header, rows,
                            title=title or "engine serving stats")

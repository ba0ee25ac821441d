"""The metrics registry: labeled counters, gauges and histograms.

Hot-path writes must not fight over one lock: every thread gets its own
shard (a plain dict living in a ``threading.local``), and a counter
increment or histogram observation is a GIL-atomic read-modify-write of
that shard — no lock taken.  The registry lock is acquired only when a
thread inserts a *new* (metric, labels) key into its shard (a dict
resize, which must not race a concurrent scrape iterating the dict) and
during :meth:`MetricsRegistry.collect`, which merges every shard into
one view and folds the shards of threads that have exited into a single
retired accumulator, so the shard list is bounded by the live threads.
Gauges are last-write-wins and rare, so they live in a single locked
dict.

A scrape may observe a shard value mid-window (a counter bumped after
one shard merged and before the next) — that is the usual Prometheus
contract: counters are monotonic per thread, so consecutive scrapes
never go backwards.  A histogram's count is *derived* from its buckets
at scrape time, so a scrape landing inside an ``observe`` still renders
a valid cumulative histogram.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from itertools import accumulate
from typing import Any, Dict, Iterable, List, Sequence, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "DEFAULT_BUCKETS", "histogram_quantile", "merge_histograms",
           "view_to_json"]

#: Latency buckets (seconds), +Inf implied: a 1-2-5 ladder from 10 us to
#: 10 s.  Adjacent bounds are at most 2.5x apart, which is the error
#: bound of every percentile interpolated from them.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2,
    0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0)

_Key = Tuple[str, Tuple[str, ...]]
#: A scraped histogram series: ``bounds``, ``cumulative`` counts (one
#: per bound plus +Inf, so the last entry is the count), ``sum``, ``max``.
HistogramView = Dict[str, Any]


def _label_values(label_names: Sequence[str],
                  labels: Dict[str, Any]) -> Tuple[str, ...]:
    if len(labels) != len(label_names):
        raise ValueError("metric expects labels %r, got %r"
                         % (tuple(label_names), tuple(labels)))
    try:
        return tuple(str(labels[name]) for name in label_names)
    except KeyError as exc:
        raise ValueError("metric expects labels %r, got %r"
                         % (tuple(label_names), tuple(labels))) from exc


class _Metric:
    """Shared plumbing: name, help text, ordered label names."""

    kind = "untyped"

    def __init__(self, registry: "MetricsRegistry", name: str, help_text: str,
                 label_names: Sequence[str]) -> None:
        self._registry = registry
        self.name = name
        self.help = help_text
        self.label_names = tuple(label_names)

    def _key(self, labels: Dict[str, Any]) -> _Key:
        return (self.name, _label_values(self.label_names, labels))


class Counter(_Metric):
    """A monotonically increasing value, sharded per thread.

    Integer increments stay integers from shard to scrape, so counts
    are exact however large they grow.
    """

    kind = "counter"

    def inc(self, amount: float = 1, **labels: Any) -> None:
        self.inc_at(_label_values(self.label_names, labels), amount)

    def inc_at(self, values: Tuple[str, ...], amount: float) -> None:
        """:meth:`inc` at label *values* — strings, in ``label_names``
        order — for a caller that writes several families with one label
        set and builds it once."""
        if amount < 0:
            raise ValueError("counters only go up, got %r" % amount)
        shard = self._registry._shard()["counters"]
        key = (self.name, values)
        current = shard.get(key)
        if current is None:
            # First touch of this key by this thread: the insert can
            # resize the dict, which must not race a merging scrape.
            with self._registry._lock:
                shard[key] = amount
        else:
            shard[key] = current + amount

    def value(self, **labels: Any) -> float:
        """The merged value across every thread (scrape-priced)."""
        name, values = self._key(labels)
        return self._registry.collect()["counters"].get(name, {}).get(
            values, 0)


class Gauge(_Metric):
    """A last-write-wins value; writes are rare, so it is simply locked."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        key = self._key(labels)
        with self._registry._lock:
            self._registry._gauges[key] = float(value)

    def max(self, value: float, **labels: Any) -> None:
        """Raise the gauge to ``value`` if it is higher (depth watermarks)."""
        key = self._key(labels)
        with self._registry._lock:
            current = self._registry._gauges.get(key)
            if current is None or value > current:
                self._registry._gauges[key] = float(value)

    def value(self, **labels: Any) -> float:
        key = self._key(labels)
        with self._registry._lock:
            return self._registry._gauges.get(key, 0.0)


class Histogram(_Metric):
    """Cumulative-bucket histogram, sharded per thread like counters.

    Per-thread state is a list ``[count_b0, ..., count_binf, sum, max]``
    mutated in place (item assignment never resizes, so scrapes may read
    it concurrently).  The buckets are the only count there is.
    """

    kind = "histogram"

    def __init__(self, registry: "MetricsRegistry", name: str, help_text: str,
                 label_names: Sequence[str],
                 buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        super().__init__(registry, name, help_text, label_names)
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("a histogram needs at least one bucket bound")

    def observe(self, value: float, **labels: Any) -> None:
        self.observe_at(_label_values(self.label_names, labels), value)

    def observe_at(self, values: Tuple[str, ...], value: float) -> None:
        """:meth:`observe` at label *values* (see :meth:`Counter.inc_at`)."""
        shard = self._registry._shard()["histograms"]
        key = (self.name, values)
        state = shard.get(key)
        if state is None:
            state = [0] * (len(self.buckets) + 1) + [0.0, float("-inf")]
            with self._registry._lock:
                shard[key] = state
        state[bisect_left(self.buckets, value)] += 1
        state[-2] += value
        if value > state[-1]:
            state[-1] = value


def merge_histograms(parts: Iterable[HistogramView]) -> HistogramView:
    """Several series of one family as one: counts and sums add, maxima max."""
    parts = list(parts)
    if not parts:
        return {"bounds": (), "cumulative": [0], "sum": 0.0, "max": 0.0}
    return {"bounds": parts[0]["bounds"],
            "cumulative": [sum(column) for column in
                           zip(*(part["cumulative"] for part in parts))],
            "sum": sum(part["sum"] for part in parts),
            "max": max(part["max"] for part in parts)}


def histogram_quantile(histogram: HistogramView, fraction: float) -> float:
    """The ``fraction`` quantile, interpolated inside the bucket holding it.

    Prometheus' ``histogram_quantile``: find the bucket the rank
    ``fraction * count`` falls in and interpolate linearly between its
    bounds (the first bucket starts at 0), so the answer lies in the same
    bucket as the order statistic of that rank.  Mass in the +Inf bucket
    reports the top finite bound; the result never exceeds the series'
    running maximum; an empty histogram reports 0.0.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must lie in [0, 1], got %r" % fraction)
    bounds, cumulative = histogram["bounds"], histogram["cumulative"]
    if not cumulative[-1]:
        return 0.0
    rank = fraction * cumulative[-1]
    # The first bucket reaching the rank, skipping leading empty ones.
    index = max(bisect_left(cumulative, rank), bisect_right(cumulative, 0))
    if index >= len(bounds):
        return min(bounds[-1], histogram["max"])
    lower = bounds[index - 1] if index else min(0.0, bounds[0])
    below = cumulative[index - 1] if index else 0
    share = (rank - below) / (cumulative[index] - below)
    return min(lower + (bounds[index] - lower) * share, histogram["max"])


def _fold(source: Dict[str, dict], into: Dict[str, dict]) -> None:
    """Add one shard's counters and histogram states into another."""
    counters = into["counters"]
    for key, value in source["counters"].items():
        counters[key] = counters.get(key, 0) + value
    histograms = into["histograms"]
    for key, state in source["histograms"].items():
        merged = histograms.get(key)
        if merged is None:
            histograms[key] = list(state)
            continue
        for index in range(len(state) - 1):
            merged[index] += state[index]
        merged[-1] = max(merged[-1], state[-1])


def _by_family(series: Dict[_Key, Any]) -> Dict[str, Dict[tuple, Any]]:
    """``{(family, label values): item}`` nested by family."""
    out: Dict[str, Dict[tuple, Any]] = {}
    for (name, values), item in series.items():
        out.setdefault(name, {})[values] = item
    return out


def view_to_json(view: Dict[str, Any]) -> Dict[str, Any]:
    """One :meth:`MetricsRegistry.collect` as a strictly JSON-able dict."""
    metrics = view["metrics"]

    def flat(kind: str) -> Dict[str, Any]:
        out = {}
        for name in sorted(view[kind]):
            names = metrics[name].label_names
            for values in sorted(view[kind][name]):
                inner = ",".join('%s="%s"' % pair
                                 for pair in zip(names, values))
                out["%s{%s}" % (name, inner) if names else name] = \
                    view[kind][name][values]
        return out

    histograms = {
        series: {"count": merged["cumulative"][-1], "sum": merged["sum"],
                 "buckets": [{"le": bound, "count": count} for bound, count
                             in zip(merged["bounds"] + ("+Inf",),
                                    merged["cumulative"])]}
        for series, merged in flat("histograms").items()}
    return {"counters": flat("counters"), "gauges": flat("gauges"),
            "histograms": histograms}


class MetricsRegistry:
    """The engine's metric families, and the scrape that merges them."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}
        self._gauges: Dict[_Key, float] = {}
        self._local = threading.local()
        #: One ``(owning thread, shard)`` per thread that is still alive.
        self._shards: List[Tuple[threading.Thread, Dict[str, dict]]] = []
        #: Everything threads that have since exited ever recorded.
        self._retired: Dict[str, dict] = {"counters": {}, "histograms": {}}

    # -- family registration (idempotent by name) ----------------------
    def counter(self, name: str, help_text: str = "",
                labels: Sequence[str] = ()) -> Counter:
        return self._family(Counter, name, help_text, labels)

    def gauge(self, name: str, help_text: str = "",
              labels: Sequence[str] = ()) -> Gauge:
        return self._family(Gauge, name, help_text, labels)

    def histogram(self, name: str, help_text: str = "",
                  labels: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._family(Histogram, name, help_text, labels, buckets)

    def _family(self, cls, name: str, help_text: str,
                labels: Sequence[str], *extra: Any):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError("metric %r already registered as %s"
                                     % (name, existing.kind))
                return existing
            metric = cls(self, name, help_text, labels, *extra)
            self._metrics[name] = metric
            return metric

    # -- per-thread shards ---------------------------------------------
    def _shard(self) -> Dict[str, dict]:
        shard = getattr(self._local, "shard", None)
        if shard is None:
            shard = {"counters": {}, "histograms": {}}
            self._local.shard = shard
            with self._lock:
                self._shards.append((threading.current_thread(), shard))
        return shard

    # -- scrape --------------------------------------------------------
    def collect(self) -> Dict[str, Any]:
        """Merge every thread's shard into one consistent-enough view.

        Counters, gauges and histograms come back nested
        ``{family: {label values: item}}``; each histogram item is a
        :data:`HistogramView` whose cumulative buckets are computed here,
        once, for both renderers and :func:`histogram_quantile`.
        """
        merged: Dict[str, dict] = {"counters": {}, "histograms": {}}
        with self._lock:
            live = []
            for thread, shard in self._shards:
                if thread.is_alive():
                    live.append((thread, shard))
                else:
                    _fold(shard, self._retired)
            self._shards = live
            for shard in [self._retired] + [shard for __, shard in live]:
                _fold(shard, merged)
            gauges = dict(self._gauges)
            metrics = dict(self._metrics)
        histograms = {
            key: {"bounds": metrics[key[0]].buckets,
                  "cumulative": list(accumulate(state[:-2])),
                  "sum": state[-2], "max": state[-1]}
            for key, state in merged["histograms"].items()}
        return {"metrics": metrics,
                "counters": _by_family(merged["counters"]),
                "gauges": _by_family(gauges),
                "histograms": _by_family(histograms)}

    def reset(self) -> None:
        """Zero every shard and gauge (families stay registered)."""
        with self._lock:
            for shard in [self._retired] + [shard for __, shard
                                            in self._shards]:
                shard["counters"].clear()
                shard["histograms"].clear()
            self._gauges.clear()

    def __repr__(self) -> str:
        with self._lock:
            return "MetricsRegistry(%d families, %d shards)" % (
                len(self._metrics), len(self._shards))

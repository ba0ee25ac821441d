"""EngineStats as a bounded view over the metrics registry.

* memory does not grow with traffic, only with the number of series;
* windows (``snapshot`` / ``snapshot_delta``) and every integer field
  of ``summary()`` (its tenants too) are exact under threads;
* bucket-interpolated quantiles stay within one bucket of nearest-rank;
* the registry folds dead threads' shards away and always renders a
  cumulative (valid) histogram, even mid-``observe``.
"""

from __future__ import annotations

import gc
import random
import sys
import threading
import tracemalloc
from bisect import bisect_left

import pytest

from conftest import served_query
from repro.engine.metrics import EngineStats
from repro.engine.metrics import percentile
from repro.engine.obs import MetricsRegistry, render_prometheus
from repro.engine.obs.registry import (DEFAULT_BUCKETS, histogram_quantile,
                                       merge_histograms, view_to_json)


def series_count(stats):
    metrics = view_to_json(stats.registry.collect())
    return sum(len(metrics[kind])
               for kind in ("counters", "gauges", "histograms"))


def drive(stats, step):
    """One query + estimation + write + HTTP note, cycling a few labels."""
    stats.record(served_query(
        dataset="d%d" % (step % 2), index_name=("tree", "scan")[step % 2],
        latency_s=1e-4 * (1 + step % 50), ios=step % 7, reported=step % 5,
        result_cache_hit=step % 3 == 0, store_cache_hits=step % 2,
        shards_queried=step % 4, shards_pruned=step % 3,
        tenant=("", "a", "b")[step % 3], degraded=step % 11 == 0,
        interval_source="conformal"))
    stats.note_estimation("d%d" % (step % 2), 10 + step % 9, 12)
    stats.note_write("d0", ("insert", "delete")[step % 2], step % 4 != 1,
                     step % 3, 2e-4, 2)
    stats.note_http("/query", (200, 429)[step % 5 == 0], 3e-4, 1e-5, 600)


def test_engine_stats_memory_is_bounded_by_series_not_requests():
    stats = EngineStats()
    for step in range(2000):       # every label combination and the
        drive(stats, step)         # conformal windows exist now
    series = series_count(stats)
    tracemalloc.start()
    try:
        gc.collect()               # a full collection empties the
        before = tracemalloc.get_traced_memory()[0]    # interpreter's
        for step in range(20000):                      # free lists, which
            drive(stats, step)                         # would otherwise
        gc.collect()                                   # count as growth
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 64 * 1024, "stats retained %d bytes" % grown
    assert series_count(stats) == series
    assert stats.num_queries == 22000


INTEGER_FIELDS = ("num_queries", "total_ios", "total_reported",
                  "store_cache_hits", "result_cache_hits", "shards_queried",
                  "shards_pruned")


def oracle(records):
    """The integer aggregates of a list of records, summed by hand."""
    plans = {}
    for record in records:
        plans[record.index_name] = plans.get(record.index_name, 0) + 1
    return {
        "num_queries": len(records),
        "total_ios": sum(r.total_ios for r in records),
        "total_reported": sum(r.count for r in records),
        "store_cache_hits": sum(r.ios.cache_hits for r in records),
        "result_cache_hits": sum(r.from_result_cache for r in records),
        "shards_queried": sum(r.shards_queried for r in records),
        "shards_pruned": sum(r.shards_pruned for r in records),
        "degraded": sum(r.degraded for r in records),
        "plan_distribution": plans,
    }


def test_windows_and_summaries_are_exact_under_threads():
    workers, per_phase = 6, 400
    rng = random.Random(1998)

    def make_record(worker):
        return served_query(
            dataset=rng.choice(("d0", "d1")),
            index_name=rng.choice(("tree", "scan", "hybrid")),
            latency_s=rng.lognormvariate(-7, 1), ios=rng.randrange(40),
            reported=rng.randrange(100),
            result_cache_hit=rng.random() < 0.2,
            store_cache_hits=rng.randrange(3),
            shards_queried=rng.randrange(5), shards_pruned=rng.randrange(3),
            tenant=("", "t%d" % (worker % 3))[rng.random() < 0.7],
            degraded=rng.random() < 0.1, interval_source="normal_fallback")

    phases = [[[make_record(worker) for __ in range(per_phase)]
               for worker in range(workers)] for __ in range(2)]
    stats = EngineStats()
    at_snapshot = threading.Barrier(workers + 1)

    def work(worker):
        for record in phases[0][worker]:
            stats.record(record)
        at_snapshot.wait(timeout=30)        # phase 1 recorded everywhere
        at_snapshot.wait(timeout=30)        # marker taken
        for record in phases[1][worker]:
            stats.record(record)

    threads = [threading.Thread(target=work, args=(worker,))
               for worker in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        at_snapshot.wait(timeout=30)
        marker = stats.snapshot()
        at_snapshot.wait(timeout=30)
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)

    window = [r for worker in phases[1] for r in worker]
    everything = [r for worker in phases[0] for r in worker] + window
    delta = stats.snapshot_delta(marker)
    latency = delta.pop("latency_s")
    assert delta == oracle(window)
    assert all(type(delta[name]) is int for name in INTEGER_FIELDS)
    assert 0.0 < latency["p50"] <= latency["p95"] <= latency["p99"]

    summary = stats.summary()
    expected = oracle(everything)
    assert {name: summary[name] for name in INTEGER_FIELDS} \
        == {name: expected[name] for name in INTEGER_FIELDS}
    assert summary["plan_distribution"] == expected["plan_distribution"]
    tenants = summary["tenants"]
    assert set(tenants) == {"t0", "t1", "t2"}
    for tenant, row in tenants.items():
        mine = [r for r in everything if r.tenant == tenant]
        assert (row["queries"], row["total_ios"], row["degraded"]) == (
            len(mine), sum(r.total_ios for r in mine),
            sum(r.degraded for r in mine))

    # reset() between the marker and the delta: the empty window.
    stats.reset()
    empty = stats.snapshot_delta(marker)
    assert empty.pop("latency_s") == {"p50": 0.0, "p95": 0.0, "p99": 0.0}
    assert empty == oracle([])


def scraped(samples, bounds):
    registry = MetricsRegistry()
    histogram = registry.histogram("h", buckets=bounds)
    for sample in samples:
        histogram.observe(sample)
    return registry.collect()["histograms"]["h"][()]


def test_interpolated_quantiles_track_nearest_rank_within_a_bucket():
    rng = random.Random(7)
    samples = sorted(rng.lognormvariate(-6, 1.5) for __ in range(5000))
    view = scraped(samples, DEFAULT_BUCKETS)
    assert view["cumulative"][-1] == len(samples)
    assert view["max"] == samples[-1]
    for fraction in (0.5, 0.95, 0.99):
        exact = percentile(samples, fraction)
        estimate = histogram_quantile(view, fraction)
        assert abs(bisect_left(DEFAULT_BUCKETS, estimate)
                   - bisect_left(DEFAULT_BUCKETS, exact)) <= 1
        assert exact / 2.5 <= estimate <= exact * 2.5
    grid = [histogram_quantile(view, step / 100) for step in range(101)]
    assert grid == sorted(grid)
    assert grid[-1] <= samples[-1]
    # Mass beyond the ladder reports the top finite bound.
    assert histogram_quantile(scraped([20.0, 30.0, 40.0], DEFAULT_BUCKETS),
                              0.5) == DEFAULT_BUCKETS[-1]
    assert histogram_quantile(merge_histograms(()), 0.5) == 0.0
    with pytest.raises(ValueError):
        histogram_quantile(view, 1.5)


def test_registry_folds_dead_threads_shards_and_keeps_totals():
    registry = MetricsRegistry()
    hits = registry.counter("hits_total", "Hits", ("round",))
    seconds = registry.histogram("seconds", "Seconds")

    def work(round_id):
        for __ in range(50):
            hits.inc(round=round_id)
            seconds.observe(0.003)

    for round_id in range(5):
        threads = [threading.Thread(target=work, args=(round_id,))
                   for __ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        view = registry.collect()
        # Every recording thread has exited: nothing left to re-walk.
        assert len(registry._shards) == 0
        assert view["counters"]["hits_total"] == {
            (str(done),): 200 for done in range(round_id + 1)}
        assert view["histograms"]["seconds"][()]["cumulative"][-1] \
            == 200 * (round_id + 1)
    hits.inc(round=0)               # a live thread still gets a shard
    assert hits.value(round=0) == 201
    assert len(registry._shards) == 1


def test_histogram_stays_cumulative_when_scraped_mid_observe():
    registry = MetricsRegistry()
    histogram = registry.histogram("seconds", "Seconds",
                                   buckets=(0.1, 1.0))
    for value in (0.05, 0.5, 0.5):
        histogram.observe(value)
    # A scrape landing after observe() bumped the bucket and before it
    # finished: the bucket is ahead of whatever else the state holds.
    registry._shard()["histograms"][("seconds", ())][1] += 1
    series = view_to_json(registry.collect())["histograms"]["seconds"]
    counts = [bucket["count"] for bucket in series["buckets"]]
    assert counts == sorted(counts) == [1, 4, 4]
    assert series["count"] == counts[-1]
    lines = dict(line.rsplit(" ", 1) for line
                 in render_prometheus(registry).splitlines()
                 if line.startswith("seconds_"))
    assert int(lines['seconds_bucket{le="1"}']) \
        <= int(lines['seconds_bucket{le="+Inf"}']) \
        == int(lines["seconds_count"]) == 4


@pytest.mark.parametrize("dimension", [2, 3])
def test_result_cache_size_is_visible_and_bounded(dimension):
    """300 distinct 4096-point answers leave resident only what the
    cache's 4 MiB byte bound holds — 64 answers in 2-D, 42 in 3-D, below
    its 256-entry bound — the rest counted as capacity evictions, and
    ``summary()`` and ``/metrics`` report the same gauge pair."""
    import numpy as np
    from repro import LinearConstraint, QueryEngine
    from repro.engine.result_cache import (RESULT_CACHE_BYTES,
                                           RESULT_CACHE_ENTRIES)
    points = np.random.default_rng(dimension).uniform(
        -1.0, 1.0, size=(4096, dimension))
    answer_bytes = points.nbytes
    kept = RESULT_CACHE_BYTES // answer_bytes
    assert kept == {2: 64, 3: 42}[dimension] < RESULT_CACHE_ENTRIES
    engine = QueryEngine(block_size=64, seed=3)
    try:
        engine.register_dataset("d", points, kinds=["full_scan"])
        assert engine.summary()["result_cache"] == {
            "entries": 0, "bytes": 0, "max_entries": 256,
            "max_bytes": 4 * 2 ** 20,
            "evictions": {"write": 0, "flush": 0, "capacity": 0}}
        for step in range(300):
            everything = LinearConstraint(
                coeffs=(0.0,) * (dimension - 1), offset=10.0 + step)
            assert engine.query("d", everything).count == 4096
        resident = engine.summary()["result_cache"]
        assert resident["entries"] == kept
        assert resident["bytes"] == kept * answer_bytes <= RESULT_CACHE_BYTES
        assert resident["evictions"] == {"write": 0, "flush": 0,
                                         "capacity": 300 - kept}
        engine.stats.refresh_model_metrics()
        scraped = dict(
            line.split(" ") for line
            in render_prometheus(engine.stats.registry).splitlines()
            if line.startswith("engine_result_cache_"))
        assert float(scraped["engine_result_cache_entries"]) == kept
        assert float(scraped["engine_result_cache_bytes"]) \
            == resident["bytes"]
        assert float(scraped['engine_result_cache_evictions_total'
                             '{dataset="d",cause="capacity"}']) == 300 - kept
        engine.executor.invalidate_dataset("d")
        flushed = engine.summary()["result_cache"]
        assert (flushed["entries"], flushed["bytes"]) == (0, 0)
        assert flushed["evictions"]["flush"] == kept
    finally:
        engine.close()


def test_index_builds_are_visible_on_metrics():
    """Each index's build cost — seconds and block transfers, straight
    from its ``BuildRecord`` — is a ``dataset``/``index``/``kind`` gauge."""
    import numpy as np
    from repro import QueryEngine
    engine = QueryEngine(block_size=32, seed=3)
    try:
        engine.register_dataset(
            "d", np.random.default_rng(5).random((600, 2)),
            kinds=["halfplane2d", "full_scan"])
        engine.stats.refresh_model_metrics()
        scraped = dict(
            line.split(" ") for line
            in render_prometheus(engine.stats.registry).splitlines()
            if line.startswith("engine_index_build_"))
        for name, build in engine.catalog.build_records("d").items():
            labels = '{dataset="d",index="%s",kind="%s"}' % (name, build.kind)
            assert 0.0 < build.build_seconds == pytest.approx(
                float(scraped["engine_index_build_seconds" + labels]))
            assert float(scraped["engine_index_build_ios" + labels]) \
                == build.build_ios.total > 0
        assert len(scraped) == 4
    finally:
        engine.close()


def test_writes_at_label_values_land_on_the_keyword_series():
    """``inc_at`` / ``observe_at`` take the label values as one tuple,
    built once for several families; they are the same series."""
    registry = MetricsRegistry()
    counter = registry.counter("c_total", "", ("a", "b"))
    histogram = registry.histogram("h_seconds", "", ("a", "b"))
    counter.inc(2, a="x", b=1)
    counter.inc_at(("x", "1"), 3)
    histogram.observe(0.5, a="x", b=1)
    histogram.observe_at(("x", "1"), 0.25)
    assert counter.value(a="x", b=1) == 5
    series = registry.collect()["histograms"]["h_seconds"]
    assert list(series) == [("x", "1")]
    assert series[("x", "1")]["cumulative"][-1] == 2
    with pytest.raises(ValueError):
        counter.inc_at(("x", "1"), -1)


def test_halfspace3d_outcomes_are_on_metrics_and_on_the_shard_span():
    """How a ``halfspace3d`` query was answered — from one layer's list,
    or by a scan and why — is a counter by ``dataset``/``outcome`` and four
    attributes of the shard span, in whichever process ran the index."""
    import numpy as np
    from repro import LinearConstraint, QueryEngine
    engine = QueryEngine(block_size=32, seed=3)
    try:
        points = np.random.default_rng(7).random((2048, 3))
        engine.register_dataset("d", points, kinds=["halfspace3d"])
        inside = LinearConstraint(coeffs=(0.2, -0.1), offset=-0.05)
        steep = LinearConstraint(coeffs=(30.0, 0.0), offset=0.5)
        everything = LinearConstraint(coeffs=(0.0, 0.0), offset=5.0)
        for constraint in (inside, steep, everything):
            report = engine.explain("d", constraint, analyze=True)
            shard = report["per_shard"][0]
            detail = engine.catalog.indexes("d")["halfspace3d"].last_query
            if engine.cluster is None:
                assert {name: shard[name] for name in detail} == detail
            assert set(shard) >= {"layer", "probes", "list_blocks", "scanned"}
        assert engine.explain("d", steep, analyze=True)[
            "per_shard"][0]["scanned"] == "outside_domain"
        assert engine.explain("d", everything, analyze=True)[
            "per_shard"][0]["scanned"] == "no_layer"
        answered = engine.explain("d", inside, analyze=True)["per_shard"][0]
        assert answered["scanned"] is None and answered["layer"] >= 8
        assert answered["ios"] == answered["blocks_read"] \
            >= answered["probes"] + answered["list_blocks"] > 0
        scraped = dict(
            line.split(" ") for line
            in render_prometheus(engine.stats.registry).splitlines()
            if line.startswith("engine_halfspace3d_queries_total"))
        assert scraped == {
            'engine_halfspace3d_queries_total{dataset="d",outcome="%s"}'
            % outcome: "2" for outcome in ("layer", "outside_domain",
                                           "no_layer")}
    finally:
        engine.close()


#: The step counts each engine kind's account holds (its ``last_query``
#: but for ``halfspace3d``'s ``layer`` and ``scanned``, which say how it
#: answered); a kind that keeps no account has none.
ACCOUNT_STEPS = {
    "halfplane2d": {"layers_probed"},
    "halfspace3d": {"probes", "list_blocks"},
    "hybrid3d": {"nodes_crossed", "leaves_queried", "leaf_scans"},
    "partition_tree": {"nodes_crossed"},
    "shallow_tree": {"nodes_crossed", "secondary_walks"},
    "rtree": {"nodes_crossed"},
    "quadtree": {"nodes_crossed"},
    "dynamic": {"nodes_crossed"},
    "full_scan": set(),
    "kdb_tree": set(),
    "paged_cgl": set(),
}


def scraped_steps(engine):
    """``engine_index_steps_total`` as ``{(index, step): count}``."""
    steps = {}
    for line in render_prometheus(engine.stats.registry).splitlines():
        if line.startswith("engine_index_steps_total{"):
            labels, value = line[len("engine_index_steps_total{"):].split(
                "} ")
            fields = dict(part.split("=") for part in labels.split(","))
            key = (fields["index"].strip('"'), fields["step"].strip('"'))
            steps[key] = float(value)
    return steps


@pytest.mark.parametrize("backend", ["memory", "file"])
@pytest.mark.parametrize("kind", sorted(ACCOUNT_STEPS))
def test_every_kind_publishes_the_account_its_shards_report(kind, backend,
                                                            tmp_path):
    """One record read two ways: the step counts in
    ``explain(analyze=True)``'s per-shard entries sum to the
    ``engine_index_steps_total`` delta, for every engine kind, on two
    shards.  The worker mode is the suite's."""
    import numpy as np
    from repro import ConstraintConjunction, LinearConstraint, QueryEngine
    from repro.engine.catalog import INDEX_KINDS
    assert set(ACCOUNT_STEPS) == set(INDEX_KINDS)
    dimension = 3 if INDEX_KINDS[kind].supports(3) else 2
    points = np.random.default_rng(11).uniform(-1.0, 1.0, (800, dimension))
    engine = QueryEngine(block_size=16, seed=4, backend=backend,
                         data_dir=str(tmp_path))
    try:
        engine.register_sharded_dataset("d", points, num_shards=2,
                                        kinds=[kind])
        flat = (0.0,) * (dimension - 1)
        queries = [LinearConstraint(flat, offset) for offset in (-0.9, 0.1)]
        queries += [LinearConstraint((0.3,) + flat[1:], -0.2),
                    ConstraintConjunction.of(
                        LinearConstraint((0.2,) + flat[1:], 0.4),
                        LinearConstraint((-0.4,) + flat[1:], 0.3))]
        reported = {}
        for query in queries:
            before = scraped_steps(engine)
            report = engine.explain("d", query, analyze=True)
            grown = {key[1]: count - before.get(key, 0.0)
                     for key, count in scraped_steps(engine).items()
                     if count != before.get(key)}
            assert report["index"] == kind
            assert len(report["per_shard"]) == 2
            for entry in report["per_shard"]:
                assert set(entry) >= ACCOUNT_STEPS[kind]
            steps = {step: sum(entry[step] for entry in report["per_shard"])
                     for step in ACCOUNT_STEPS[kind]}
            assert grown == {step: count for step, count in steps.items()
                             if count}
            for step, count in steps.items():
                reported[step] = reported.get(step, 0) + count
        assert all(reported.values())      # every step was taken
    finally:
        engine.close()

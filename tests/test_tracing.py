"""Request-scoped tracing: span trees, retention, exposition, plumbing.

Covers the observability tentpole end to end:

* the no-op singleton fast path (tracing disabled allocates nothing);
* span-tree structure, attributes, error capture and thread-safety;
* propagation through the engine — planner, executor fan-out, store
  attributes — and ``EXPLAIN ANALYZE``'s exact per-shard I/O parity on
  a K=4 sharded dataset;
* trace isolation under concurrent async waves (two tenants' spans
  never land in each other's trees) and admission spans with budget
  state on degraded requests;
* ``EngineStats.reset()`` / ``snapshot_delta()`` windowing;
* the ``MetricsRegistry`` under threads and its Prometheus text
  rendering, validated by a simple line-format checker (no new deps);
* the HTTP surface: ``trace_id`` in responses and SSE events,
  ``GET /trace/<id>``, ``GET /debug/slow``, ``GET /metrics``, chunked
  request bodies, and the 411/400/413 framing errors.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import re
import threading

import pytest

from repro import ConstraintConjunction, LinearConstraint, QueryEngine
from repro.engine import ServingRequest, TenantBudget
from repro.engine import tracing
from repro.engine.obs import MetricsRegistry, render_prometheus
from repro.engine.server import ApiKey, ServerClient
from repro.engine.server.protocol import HTTPError, read_request
from repro.engine.tracing import NULL_SPAN, NULL_TRACE, Tracer, activate
from repro.io.store import BlockStore
from repro.workloads import uniform_points

from conftest import rows

BLOCK_SIZE = 32

#: A halfspace every point of a [-1, 1]^2 cloud satisfies — it
#: intersects every shard's bounding box, so nothing is pruned and a
#: K=4 dataset really fans out to 4 shards.
EVERYTHING = LinearConstraint(coeffs=(0.0,), offset=2.0)


@pytest.fixture
def traced_engine():
    """A K=4 sharded engine with request tracing enabled."""
    points = uniform_points(1024, seed=47)
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=47, tracing=True)
    engine.register_sharded_dataset("grid", points, num_shards=4,
                                    sharding="range", kinds=["full_scan"])
    yield engine
    engine.close()


def served_request(engine, constraint=EVERYTHING):
    """One traced request exactly as the serving layer issues it."""
    trace = engine.tracer.start_trace("request", dataset="grid")
    try:
        with activate(trace.root):
            answer = engine.query("grid", constraint, clear_cache=True)
    finally:
        trace.finish()
    return trace, answer


def walk(node):
    """Every node of a serialized span tree, depth-first."""
    yield node
    for child in node["children"]:
        yield from walk(child)


# ----------------------------------------------------------------------
# the disabled fast path
# ----------------------------------------------------------------------
def test_disabled_tracer_hands_back_shared_noop_singletons():
    tracer = Tracer(enabled=False)
    trace = tracer.start_trace("request", tenant="t")
    assert trace is NULL_TRACE
    assert trace.trace_id == ""
    assert trace.root is NULL_SPAN
    # Arbitrarily deep instrumentation chains collapse onto the one
    # shared object — nothing is allocated per call.
    assert trace.root.child("a").child("b").child("c") is NULL_SPAN
    NULL_SPAN.set("k", 1)
    NULL_SPAN.set_many({"k": 1})
    assert NULL_SPAN.attributes == {}
    trace.finish()
    assert len(tracer.registry) == 0
    assert tracer.slow() == []


def test_span_helper_reuses_one_null_context_when_no_trace_is_active():
    first = tracing.span("anything", attr=1)
    second = tracing.span("else")
    assert first is second  # the shared null context, not a new object
    with first as node:
        assert node is NULL_SPAN
    assert tracing.current_span() is NULL_SPAN
    assert tracing.current_trace_id() == ""


# ----------------------------------------------------------------------
# span trees
# ----------------------------------------------------------------------
def test_span_tree_records_structure_attributes_and_timing():
    tracer = Tracer(enabled=True)
    trace = tracer.start_trace("request", tenant="t")
    assert trace.trace_id
    with activate(trace.root):
        with tracing.span("stage", step=1) as stage:
            assert tracing.current_span() is stage
            assert tracing.current_trace_id() == trace.trace_id
            with tracing.span("inner") as inner:
                inner.set("blocks", 3)
        assert stage.ended_s is not None  # finished on block exit
    trace.finish()
    assert trace.finished and trace.duration_s >= 0.0
    assert [node.name for node in trace.spans()] == \
        ["request", "stage", "inner"]
    assert trace.spans("inner")[0].attributes == {"blocks": 3}
    # Finished traces are fetchable from the registry by id.
    fetched = tracer.get(trace.trace_id)
    assert fetched is not None and fetched["trace_id"] == trace.trace_id
    names = [node["name"] for node in walk(fetched["root"])]
    assert names == ["request", "stage", "inner"]
    for node in walk(fetched["root"]):
        assert node["duration_ms"] >= 0.0
    json.dumps(fetched, allow_nan=False)


def test_exceptions_land_in_the_error_attribute():
    tracer = Tracer(enabled=True)
    trace = tracer.start_trace("request")
    with pytest.raises(ValueError):
        with activate(trace.root):
            with tracing.span("stage"):
                raise ValueError("boom")
    trace.finish()
    stage = trace.spans("stage")[0]
    assert stage.attributes["error"] == "ValueError: boom"


def test_child_appends_are_thread_safe():
    tracer = Tracer(enabled=True)
    trace = tracer.start_trace("request")
    per_thread = 200

    def add(worker):
        for index in range(per_thread):
            trace.root.child("w%d" % worker, index=index).finish()

    threads = [threading.Thread(target=add, args=(worker,))
               for worker in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    trace.finish()
    assert len(trace.root.children) == 8 * per_thread
    assert all(node.trace_id == trace.trace_id
               for node in trace.spans())


def test_trace_registry_bounds_retention_and_lists_ids():
    tracer = Tracer(enabled=True, max_traces=4)
    ids = [tracer.start_trace("r%d" % index).finish().trace_id
           for index in range(10)]
    assert len(tracer.registry) == 4
    assert tracer.registry.ids() == ids[-4:]  # newest kept, oldest first
    assert tracer.get(ids[0]) is None         # evicted
    assert tracer.get(ids[-1])["name"] == "r9"


# ----------------------------------------------------------------------
# propagation through the engine
# ----------------------------------------------------------------------
def test_engine_query_produces_planner_executor_store_spans(traced_engine):
    trace, answer = served_request(traced_engine)
    plan_spans = trace.spans("planner.plan")
    assert len(plan_spans) == 1
    assert plan_spans[0].attributes["dataset"] == "grid"
    assert plan_spans[0].attributes["estimated_ios"] > 0
    fanout = trace.spans("executor.fanout")
    assert len(fanout) == 1
    assert fanout[0].attributes["ios"] == answer.ios.total
    shards = trace.spans("executor.shard")
    assert len(shards) == 4  # EVERYTHING prunes nothing on K=4
    for node in shards:
        attrs = node.attributes
        # Cost-model attribution and store-level counters per shard.
        assert {"shard_id", "replica_id", "index", "ios", "model_ios",
                "observed_cold_ios", "q_error", "blocks_read", "cache_hits",
                "block_size"} <= set(attrs)
        assert "calibration" not in attrs
    assert sum(node.attributes["ios"] for node in shards) \
        == answer.ios.total


def test_tracing_observes_the_data_path_and_never_steers_it(traced_engine):
    # Bare, under a disabled tracer's no-op trace, and fully traced: the
    # same ordered points and the same value in every I/O counter.
    constraints = [LinearConstraint(coeffs=(0.31,), offset=-0.5 + 0.2 * i)
                   for i in range(5)]

    def served(mode):
        traced_engine.tracer.enabled = mode == "on"
        answers = [traced_engine.query("grid", constraint, clear_cache=True)
                   if mode == "bare"
                   else served_request(traced_engine, constraint)[1]
                   for constraint in constraints]
        return [(rows(answer), answer.ios) for answer in answers]

    assert served("on") == served("off") == served("bare")
    assert sum(ios.total for __, ios in served("on")) > 0


def test_explain_analyze_per_shard_io_parity_on_k4(traced_engine):
    # One execution path, one span vocabulary: the register_dataset
    # dataset is the one-shard case, for constraints and conjunctions.
    traced_engine.register_dataset("plain", uniform_points(1024, seed=47),
                                   kinds=["partition_tree", "full_scan"])
    wedge = ConstraintConjunction.of(
        LinearConstraint(coeffs=(0.3,), offset=0.5),
        LinearConstraint(coeffs=(-0.2,), offset=0.4))
    for dataset, query, shard_ids, planner_stage in (
            ("grid", EVERYTHING, [0, 1, 2, 3], "planner.plan"),
            ("plain", EVERYTHING, [0], "planner.plan"),
            ("plain", wedge, [0], "planner.plan")):
        marker = traced_engine.stats.snapshot()
        report = traced_engine.explain(dataset, query, analyze=True)
        assert report["analyze"] is True
        assert [entry["shard_id"] for entry in report["per_shard"]] \
            == shard_ids
        assert report["shards_queried"] == len(shard_ids)
        per_shard = sum(entry["ios"] for entry in report["per_shard"])
        # The acceptance criterion: per-shard span I/Os reconcile
        # *exactly* with both the report's actuals and the EngineStats
        # delta.
        assert per_shard == report["actual_ios"] > 0
        assert per_shard == report["stats_delta"]["total_ios"]
        assert report["stats_delta"] == \
            traced_engine.stats.snapshot_delta(marker)
        assert {stage["name"] for stage in report["stages"]} >= \
            {planner_stage, "executor.fanout"}
        # The trace landed in the shared registry and is refetchable.
        assert traced_engine.tracer.get(report["trace_id"]) is not None
        json.dumps(report, allow_nan=False)


def test_explain_analyze_works_when_engine_tracing_is_off():
    points = uniform_points(512, seed=48)
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=48, tracing=False)
    engine.register_sharded_dataset("grid", points, num_shards=4,
                                    sharding="range", kinds=["full_scan"])
    try:
        report = engine.explain("grid", EVERYTHING, analyze=True)
        assert report["trace_id"]  # a private tracer minted one
        per_shard = sum(entry["ios"] for entry in report["per_shard"])
        assert per_shard == report["actual_ios"] \
            == report["stats_delta"]["total_ios"]
        # ... but nothing lands in the engine's (disabled) registry.
        assert engine.tracer.get(report["trace_id"]) is None
    finally:
        engine.close()


# ----------------------------------------------------------------------
# build phases
# ----------------------------------------------------------------------
def build_spans(engine, operation):
    """The ``catalog.build_index`` spans of the newest ``operation`` trace,
    by (shard, replica, kind)."""
    trees = [engine.tracer.get(trace_id)
             for trace_id in engine.tracer.registry.ids()]
    root = [tree["root"] for tree in trees
            if tree["root"]["name"] == "catalog.register"
            and tree["root"]["attributes"]["operation"] == operation][-1]
    spans = {}
    for node in root["children"]:
        assert node["name"] == "catalog.build_index"
        attributes = node["attributes"]
        key = (attributes["shard"], attributes["replica"], attributes["kind"])
        assert key not in spans
        spans[key] = node
    return spans


def write_runs(records):
    """The backend writes the builds of ``records`` make: one per run of
    up to ``BlockStore._RUN_BLOCKS`` blocks."""
    return sum(-(-record.space_blocks // BlockStore._RUN_BLOCKS)
               for record in records)


def test_registration_is_one_trace_with_a_span_per_build():
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=5)
    try:
        engine.register_sharded_dataset("planar", uniform_points(2400, seed=5),
                                        num_shards=2, replicas=2)
        [trace_id] = engine.tracer.registry.ids()
        # One hierarchy cut per shard (partition_tree's; the replicas
        # share it) and one backend write per run of a build's blocks.
        records = engine.catalog.build_records("planar").values()
        assert engine.tracer.get(trace_id)["root"]["attributes"] == {
            "dataset": "planar", "operation": "register",
            "partitions_computed": 2, "write_runs": write_runs(records)}
        for operation in ("register", "resplit"):
            if operation == "resplit":
                engine.rebalance("planar")
            spans = build_spans(engine, operation)
            shards = engine.catalog.sharded("planar").shards
            assert sorted(spans) == sorted(
                (shard, replica, kind) for shard in range(2)
                for replica in range(2)
                for kind in ("halfplane2d", "partition_tree", "full_scan"))
            for (shard, replica, kind), node in spans.items():
                dataset = shards[shard].replicas[replica]
                record = dataset.build_records[kind]
                attributes = node["attributes"]
                assert (attributes["points"], attributes["space_blocks"],
                        attributes["build_ios"], attributes["build_s"]) == (
                    record.num_points, record.space_blocks,
                    record.build_ios.total, record.build_seconds)
                assert attributes["partition"] == (
                    "none" if kind != "partition_tree"
                    else "shared" if replica else "computed")
                layers = [child["attributes"] for child in node["children"]]
                assert all(child["name"] == "halfplane2d.layer"
                           for child in node["children"])
                if kind != "halfplane2d":
                    assert layers == []
                    continue
                index = dataset.indexes[kind]
                assert len(layers) == index.num_layers > 1
                assert [layer["lam"] for layer in layers] \
                    == [built.lam for built in index.layer_builds]
                assert sum(layer["vertices"] for layer in layers) \
                    == sum(built.vertices for built in index.layer_builds) > 0
                assert all(layer["run_vertices"] + layer["exact_steps"]
                           == layer["vertices"] for layer in layers)
    finally:
        engine.close()


def test_a_mixed_layout_cuts_one_hierarchy_per_shard():
    """Two replicas x {dynamic, partition_tree} over one chunk build one
    tree a replica: the first replica's cuts the shard's median cuts, the
    second reads them, no partition_tree build runs, and a build's blocks
    reach the backend in runs."""
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=5, backend="file")
    try:
        engine.register_sharded_dataset(
            "mixed", uniform_points(2400, seed=5), num_shards=2,
            replicas=2, kinds=["dynamic", "partition_tree", "full_scan"])
        for operation in ("register", "resplit"):
            if operation == "resplit":
                engine.rebalance("mixed")
            spans = build_spans(engine, operation)
            for shard in range(2):
                uses = sorted(spans[(shard, replica, "dynamic")]
                              ["attributes"]["partition"]
                              for replica in range(2))
                assert uses == ["computed", "shared"]
                assert not any(key[2] == "partition_tree" for key in spans)
                assert {spans[(shard, replica, "full_scan")]["attributes"]
                        ["partition"] for replica in range(2)} == {"none"}
            root = [engine.tracer.get(trace_id)["root"]
                    for trace_id in engine.tracer.registry.ids()][-1]
            assert root["attributes"]["operation"] == operation
            records = engine.catalog.build_records("mixed").values()
            assert (root["attributes"]["partitions_computed"],
                    root["attributes"]["write_runs"]) \
                == (2, write_runs(records))
    finally:
        engine.close()


def test_registration_with_tracing_off_allocates_no_span(monkeypatch):
    class NoSpan(tracing.Span):
        def __init__(self, *args, **kwargs):
            raise AssertionError("a span was allocated with tracing off")

    monkeypatch.setattr(tracing, "Span", NoSpan)
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=5, tracing=False)
    try:
        engine.register_dataset("flat", uniform_points(1200, seed=5))
        engine.register_sharded_dataset("planar", uniform_points(1200, seed=6),
                                        num_shards=2)
        engine.rebalance("planar")
        assert len(engine.tracer.registry) == 0
    finally:
        engine.close()


# ----------------------------------------------------------------------
# concurrent serving
# ----------------------------------------------------------------------
def test_concurrent_wave_spans_never_interleave(traced_engine):
    # Two tenants, interleaved submissions, distinct constraints (so no
    # request attaches to another's in-flight twin or result-cache hit).
    requests = []
    for index in range(10):
        for tenant in ("alpha", "beta"):
            sign = 1.0 if tenant == "alpha" else -1.0
            requests.append(ServingRequest(
                tenant=tenant, dataset="grid",
                constraint=LinearConstraint(
                    coeffs=(sign * 0.31,), offset=0.01 * index)))
    result = traced_engine.serve_async(requests, max_concurrency=4)
    assert all(item.outcome == "served" for item in result.requests)

    trees = [traced_engine.tracer.get(trace_id)
             for trace_id in traced_engine.tracer.registry.ids()]
    # The registration is a trace of its own, older than every request's.
    assert trees[0]["root"]["name"] == "catalog.register"
    trees = trees[1:]
    assert len(trees) == len(requests)
    tenants = []
    for tree in trees:
        root = tree["root"]
        assert root["name"] == "serving.request"
        tenants.append(root["attributes"]["tenant"])
        # Exactly one request's execution per tree: were spans from a
        # concurrently-served request to land in the wrong trace, that
        # trace would show a second plan/fan-out (and its victim none).
        names = [node["name"] for node in walk(root)]
        assert names.count("planner.plan") == 1
        assert names.count("executor.fanout") == 1
        assert names.count("serving.request") == 1
    assert sorted(tenants) == ["alpha"] * 10 + ["beta"] * 10


def test_degraded_requests_carry_admission_spans_with_budget_state(
        traced_engine):
    # Distinct constraints: identical ones would attach to the first
    # request's in-flight twin (or its cached result) and be "served"
    # without ever facing admission.
    requests = [ServingRequest(tenant="capped", dataset="grid",
                               constraint=LinearConstraint(
                                   coeffs=(0.0,), offset=2.0 + index))
                for index in range(3)]
    budget = TenantBudget(ios_per_s=1.0, burst=1.0, policy="degrade")
    result = traced_engine.serve_async(requests,
                                       budgets={"capped": budget})
    degraded = [item for item in result.requests
                if item.outcome == "degraded"]
    assert degraded, "a 1 I/O-per-second budget must degrade full scans"

    degraded_trees = [
        tree for tree in (traced_engine.tracer.get(trace_id)
                          for trace_id in
                          traced_engine.tracer.registry.ids())
        if tree["root"]["attributes"].get("outcome") == "degraded"]
    assert len(degraded_trees) == len(degraded)
    for tree in degraded_trees:
        admissions = [node for node in walk(tree["root"])
                      if node["name"] == "admission"]
        assert admissions, "every scheduler decision leaves a span"
        final = admissions[-1]["attributes"]
        assert final["decision"] == "degrade"
        # The budget state at decision time: the *why*, not just the what.
        assert final["budget"]["budgeted"] is True
        assert final["budget"]["policy"] == "degrade"
        assert "tokens" in final["budget"]
        assert any(node["name"] == "serving.degraded_sample"
                   for node in walk(tree["root"]))
    # Degraded requests are retained in the slow log regardless of
    # latency, so /debug/slow can explain them after the fact.
    slow = traced_engine.tracer.slow()
    assert len([entry for entry in slow if entry["degraded"]]) \
        == len(degraded)


# ----------------------------------------------------------------------
# EngineStats windowing
# ----------------------------------------------------------------------
def test_engine_stats_reset_and_snapshot_delta(traced_engine):
    traced_engine.query("grid", EVERYTHING, clear_cache=True)
    marker = traced_engine.stats.snapshot()
    for offset in (0.1, 0.2):
        traced_engine.query("grid",
                            LinearConstraint(coeffs=(0.4,),
                                             offset=offset),
                            clear_cache=True)
    delta = traced_engine.stats.snapshot_delta(marker)
    assert delta["num_queries"] == 2
    assert delta["total_ios"] > 0
    assert delta["latency_s"]["p50"] <= delta["latency_s"]["p99"]
    # reset() drops history; an old marker yields an empty window.
    traced_engine.stats.reset()
    empty = traced_engine.stats.snapshot_delta(marker)
    assert empty["num_queries"] == 0 and empty["total_ios"] == 0


# ----------------------------------------------------------------------
# metrics registry + Prometheus text
# ----------------------------------------------------------------------
#: One Prometheus text-format line: comment/HELP/TYPE, or a sample
#: ``name{labels} value`` with a float-parsable value.
PROM_COMMENT = re.compile(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .*$")
PROM_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\")*\})? "
    r"[^ ]+$")


def check_prometheus_text(text):
    """Assert every line parses; return the sample metric names."""
    names = set()
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            assert PROM_COMMENT.match(line), "bad comment line: %r" % line
            continue
        match = PROM_SAMPLE.match(line)
        assert match, "bad sample line: %r" % line
        name, __, rest = line.partition("{")
        if "{" not in line:
            name = line.split(" ", 1)[0]
        float(line.rsplit(" ", 1)[1])  # the value must parse
        names.add(name)
    return names


def test_metrics_registry_merges_across_threads():
    registry = MetricsRegistry()
    hits = registry.counter("hits_total", "Hits", ("worker",))
    depth = registry.gauge("depth", "Depth")

    def work(worker):
        for __ in range(500):
            hits.inc(worker=worker)
        depth.max(float(worker))

    threads = [threading.Thread(target=work, args=(str(w),))
               for w in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert sum(hits.value(worker=str(w)) for w in range(6)) == 3000
    assert depth.value() == 5.0


def test_engine_metrics_render_as_valid_prometheus_text(traced_engine):
    traced_engine.query("grid", EVERYTHING, clear_cache=True)
    text = render_prometheus(traced_engine.stats.registry)
    names = check_prometheus_text(text)
    assert {"engine_queries_total", "engine_ios_total"} <= names
    # Histograms expose the full _bucket/_sum/_count family.
    assert {"engine_query_latency_seconds_bucket",
            "engine_query_latency_seconds_sum",
            "engine_query_latency_seconds_count"} <= names


# ----------------------------------------------------------------------
# the HTTP surface
# ----------------------------------------------------------------------
@pytest.fixture
def traced_server():
    points = uniform_points(1024, seed=49)
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=49, tracing=True)
    engine.register_sharded_dataset("grid", points, num_shards=4,
                                    sharding="range", kinds=["full_scan"])
    keys = [ApiKey(key="k", tenant="t"),
            ApiKey(key="k-capped", tenant="capped",
                   budget=TenantBudget(ios_per_s=1.0, burst=1.0,
                                       policy="degrade"))]
    with engine.serve_http(keys) as server:
        yield engine, server
    engine.close()


def raw_request(server, method, path, body=None, headers=()):
    """One request over a raw connection; returns the full response."""
    host, port = server.address
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        header_map = {"X-Api-Key": "k"}
        header_map.update(dict(headers))
        conn.request(method, path, body=body, headers=header_map)
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), \
            response.read()
    finally:
        conn.close()


def test_http_responses_carry_trace_id_and_trace_route(traced_server):
    __, server = traced_server
    status, headers, raw = raw_request(
        server, "POST", "/query",
        body=json.dumps({"dataset": "grid",
                         "constraint": {"coeffs": [0.0],
                                        "offset": 2.0}}))
    assert status == 200
    body = json.loads(raw)
    trace_id = body["trace_id"]
    assert trace_id and headers.get("X-Trace-Id") == trace_id

    client = ServerClient(*server.address, api_key="k")
    status, tree = client.request("GET", "/trace/%s" % trace_id)
    assert status == 200
    assert tree["trace_id"] == trace_id
    names = [node["name"] for node in walk(tree["root"])]
    assert "serving.request" in names and "executor.fanout" in names

    status, body = client.request("GET", "/trace/not-a-trace")
    assert status == 404
    assert body["error"]["code"] == "trace_not_found"


def test_sse_events_carry_the_stream_trace_id(traced_server):
    __, server = traced_server
    client = ServerClient(*server.address, api_key="k")
    status, events = client.query_stream("grid", [0.0], 2.0)
    assert status == 200
    assert [event.name for event in events][:1] == ["estimate"]
    ids = {event.data.get("trace_id") for event in events}
    assert len(ids) == 1 and None not in ids


def test_debug_slow_surfaces_degraded_requests(traced_server):
    __, server = traced_server
    capped = ServerClient(*server.address, api_key="k-capped")
    outcomes = []
    # Distinct offsets: identical queries would be answered from the
    # result cache without facing admission again.
    for offset in (2.0, 3.0, 4.0):
        status, body = capped.query("grid", [0.0], offset)
        assert status == 200
        outcomes.append(body["outcome"] == "degraded")
    assert any(outcomes), "the capped tenant must degrade"
    client = ServerClient(*server.address, api_key="k")
    status, body = client.request("GET", "/debug/slow?n=5")
    assert status == 200
    assert body["threshold_s"] > 0
    degraded = [entry for entry in body["slow"] if entry["degraded"]]
    assert degraded
    # The HTTP layer owns the root ("http.request"); the tenant lives on
    # the serving.request child span.
    tenants = {span["attributes"].get("tenant")
               for span in walk(degraded[0]["root"])} - {None}
    assert tenants == {"capped"}
    status, body = client.request("GET", "/debug/slow?n=frog")
    assert status == 400 and body["error"]["code"] == "bad_count"


def test_metrics_endpoint_serves_parsable_prometheus_text(traced_server):
    __, server = traced_server
    ServerClient(*server.address, api_key="k").query("grid", [0.0], 2.0)
    status, headers, raw = raw_request(server, "GET", "/metrics")
    assert status == 200
    assert headers.get("Content-Type", "").startswith("text/plain")
    names = check_prometheus_text(raw.decode("utf-8"))
    assert {"engine_queries_total", "engine_http_requests_total"} <= names


def test_stats_endpoint_mirrors_metrics_as_json(traced_server):
    __, server = traced_server
    client = ServerClient(*server.address, api_key="k")
    client.query("grid", [0.0], 2.0)
    status, summary = client.stats()
    assert status == 200
    json.dumps(summary, allow_nan=False)
    metrics = summary["metrics"]
    assert any(name.startswith("engine_queries_total")
               for name in metrics["counters"])
    assert any(name.startswith("engine_query_latency_seconds")
               for name in metrics["histograms"])


# ----------------------------------------------------------------------
# chunked request bodies (protocol level)
# ----------------------------------------------------------------------
def parse_wire(raw):
    """Run the async request parser over literal wire bytes."""
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)
    return asyncio.run(go())


def test_chunked_body_is_decoded_transparently():
    payload = json.dumps({"dataset": "grid"}).encode()
    half = len(payload) // 2
    raw = (b"POST /query HTTP/1.1\r\n"
           b"Transfer-Encoding: chunked\r\n\r\n"
           + b"%x\r\n%s\r\n" % (half, payload[:half])
           + b"%x;ext=1\r\n%s\r\n" % (len(payload) - half, payload[half:])
           + b"0\r\nX-Trailer: ignored\r\n\r\n")
    request = parse_wire(raw)
    assert request.body == payload
    assert request.json() == {"dataset": "grid"}


def test_post_without_framing_gets_411():
    with pytest.raises(HTTPError) as excinfo:
        parse_wire(b"POST /query HTTP/1.1\r\n\r\n")
    assert excinfo.value.status == 411
    assert excinfo.value.code == "length_required"


def test_double_framing_is_refused_as_smuggling_vector():
    with pytest.raises(HTTPError) as excinfo:
        parse_wire(b"POST /query HTTP/1.1\r\n"
                   b"Content-Length: 2\r\n"
                   b"Transfer-Encoding: chunked\r\n\r\n"
                   b"2\r\n{}\r\n0\r\n\r\n")
    assert excinfo.value.status == 400
    assert excinfo.value.code == "ambiguous_length"


def test_unsupported_transfer_encoding_gets_501():
    with pytest.raises(HTTPError) as excinfo:
        parse_wire(b"POST /query HTTP/1.1\r\n"
                   b"Transfer-Encoding: gzip\r\n\r\n")
    assert excinfo.value.status == 501


def test_malformed_chunk_sizes_get_400():
    with pytest.raises(HTTPError) as excinfo:
        parse_wire(b"POST /query HTTP/1.1\r\n"
                   b"Transfer-Encoding: chunked\r\n\r\n"
                   b"frog\r\n")
    assert excinfo.value.status == 400
    assert excinfo.value.code == "bad_chunk_size"
    with pytest.raises(HTTPError) as excinfo:
        parse_wire(b"POST /query HTTP/1.1\r\n"
                   b"Transfer-Encoding: chunked\r\n\r\n"
                   b"2\r\n{}XX")  # chunk data not CRLF-terminated
    assert excinfo.value.status == 400
    assert excinfo.value.code == "bad_chunk"


def test_chunked_bodies_respect_the_size_cap_incrementally():
    from repro.engine.server.protocol import MAX_BODY_BYTES
    chunk = b"x" * 4096
    framed = b"%x\r\n%s\r\n" % (len(chunk), chunk)
    count = MAX_BODY_BYTES // len(chunk) + 1
    with pytest.raises(HTTPError) as excinfo:
        parse_wire(b"POST /query HTTP/1.1\r\n"
                   b"Transfer-Encoding: chunked\r\n\r\n"
                   + framed * count + b"0\r\n\r\n")
    assert excinfo.value.status == 413
    assert excinfo.value.code == "body_too_large"


def test_chunked_query_end_to_end_over_the_wire(traced_server):
    __, server = traced_server
    payload = json.dumps({"dataset": "grid",
                          "constraint": {"coeffs": [0.0],
                                         "offset": 2.0}}).encode()
    host, port = server.address
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.putrequest("POST", "/query", skip_accept_encoding=True)
        conn.putheader("X-Api-Key", "k")
        conn.putheader("Transfer-Encoding", "chunked")
        conn.endheaders()
        conn.send(b"%x\r\n%s\r\n0\r\n\r\n" % (len(payload), payload))
        response = conn.getresponse()
        body = json.loads(response.read())
    finally:
        conn.close()
    assert response.status == 200
    assert body["outcome"] == "served"
    assert body["answer"]["count"] == 1024  # the whole cloud
    assert body["trace_id"]


def test_framing_errors_land_under_their_real_endpoint_in_stats(
        traced_server):
    """The runner's catch-all must attribute a refused body (411) to the
    endpoint that refused it, with a real elapsed time — not to a
    zeroed-out wildcard."""
    engine, server = traced_server
    # http.client always sends Content-Length; drive the 411 by hand.
    host, port = server.address
    import socket
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(b"POST /query HTTP/1.1\r\nX-Api-Key: k\r\n\r\n")
        response = sock.recv(65536)
    assert b"411" in response.split(b"\r\n", 1)[0]
    assert b"length_required" in response
    summary = engine.summary()
    endpoint = summary["http"]["/query"]
    assert endpoint["status"].get("411", 0) >= 1
    assert endpoint["latency_s"]["p99"] >= 0.0

"""The traced run: one workload's requests replayed at every layer.

Engines are built here, in the benchmark's process, exactly as the
workload's launcher builds them.  A fixed sample of the workload's
measured queries is then replayed bottom-up through each layer's *public*
calls -- storage backend, buffer pool, scan kernels, index structures,
planner, executor, worker processes, scheduler, HTTP -- and every call is
wrapped in a benchmark-side span.  Nothing inside the program is patched,
so the rungs keep measuring the same thing while the program changes
underneath them.

``self_ms`` of a rung is the median, over the sample, of its time for a
request minus the time of what it calls for the same request, the two
always measured back to back: the planner and chosen index beside
``engine.query``; ``engine.query`` over worker processes beside
in-process; a scheduler submit, and an HTTP round trip, each beside a
bare ``engine.query`` on the same engine (the round trip's self time is
what it adds beyond the scheduler's).

Every per-layer metric is produced for every workload.  Where a workload
does not itself use a layer, the layer is measured on the workload's own
points under the layout that does (see ``sharded_layout``), which says
what switching that layer on would cost there.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import socket
import statistics
from statistics import median
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import LinearConstraint, QueryEngine
from repro.core.kernels import filter_constraint, matrix_rows
from repro.engine.catalog import Catalog
from repro.engine.cluster import protocol
from repro.engine.server import ApiKey
from repro.engine.serving import ServingRequest
from repro.io import BlockStore, DiskArray
from repro.io.backend import make_backend

from sysbench import loadgen, metrics, procfs, workloads
from sysbench.workloads import DatasetSpec, Op, Sizing, Stream, WorkloadSpec

#: Constraints each index kind answers for the ``core.index`` table.
INDEX_QUERIES = 100
#: Sample requests whose every candidate index is also run cold.
REGRET_SAMPLE = 100
#: Insert/requery/delete rounds of the writes rung.
WRITE_ROUNDS = 60
_INDEX_STREAM = 2
_MS, _US = 1e3, 1e6


class Spans:
    """Benchmark-side spans, kept in memory until the run ends."""

    def __init__(self) -> None:
        self._origin = time.perf_counter()
        self.rows: List[dict] = []

    def timed(self, request: int, name: str, parent: Optional[str],
              call: Callable[[], object], **counts) -> Tuple[object, float]:
        """Run ``call`` inside a span; returns its result and seconds."""
        started = time.perf_counter()
        result = call()
        ended = time.perf_counter()
        self.add(request, name, parent, started, ended, **counts)
        return result, ended - started

    def add(self, request: int, name: str, parent: Optional[str],
            started: float, ended: float, **counts) -> None:
        self.rows.append({
            "request": request, "name": name, "parent": parent,
            "start_ms": (started - self._origin) * _MS,
            "end_ms": (ended - self._origin) * _MS, "counts": counts})

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for row in self.rows:
                handle.write(json.dumps(row, separators=(",", ":")) + "\n")


def constraint_of(op: Op) -> LinearConstraint:
    return LinearConstraint(coeffs=op.coeffs, offset=op.offset)


def paired_self(outer: Sequence[float], inner: Sequence[float]) -> float:
    """Median over requests of a rung's time minus what it calls."""
    return median([a - b for a, b in zip(outer, inner)])


def sharded_layout(spec: WorkloadSpec) -> Tuple[DatasetSpec, Dict[str, object]]:
    """The dataset and layout the cluster and writes rungs run on.

    A workload's own sharded dataset if it has one.  ``embedded_suite``
    has none (and its default suites take no writes), so its 2-D points
    are laid out as ``http_selective`` lays them out.
    """
    for dataset in spec.datasets:
        if dataset.layout is not None:
            return dataset, dataset.layout
    return spec.datasets[0], workloads.BY_NAME["http_selective"] \
        .datasets[0].layout


class Rig:
    """The engines one traced run needs, and their teardown."""

    def __init__(self, spec: WorkloadSpec, points: Dict[str, np.ndarray],
                 seed: int, data_dir: str) -> None:
        self.spec = spec
        self.points = points
        self._engines: List[QueryEngine] = []
        self._data_dir = data_dir
        self._seed = seed
        #: Seconds each ``register`` call took, by engine role.
        self.register_s: Dict[str, float] = {}

        self.main = self._build("main", spec.engine_options, spec.datasets)
        layout_dataset, layout = sharded_layout(spec)
        self.sharded_name = layout_dataset.name
        rig_dataset = (DatasetSpec(layout_dataset.name,
                                   layout_dataset.dimension,
                                   layout_dataset.num_points, layout),)
        main_is_process = spec.engine_options.get("workers") == "process"
        backend = {key: value for key, value in spec.engine_options.items()
                   if key != "workers"}
        # The in-process and the worker-process engine over one layout:
        # the workload's own engine is one of them when it is sharded.
        if layout_dataset.layout is not None and not main_is_process:
            self.inproc = self.main
        else:
            self.inproc = self._build("inproc", backend, rig_dataset)
        if main_is_process:
            self.process = self.main
        else:
            self.process = self._build(
                "process", dict(backend, workers="process"), rig_dataset)

    def _build(self, role: str, options: Dict[str, object],
               datasets: Sequence[DatasetSpec]) -> QueryEngine:
        directory = os.path.join(self._data_dir, role)
        os.makedirs(directory, exist_ok=True)
        engine = QueryEngine(**workloads.engine_keywords(
            options, self._seed, directory))
        self._engines.append(engine)
        started = time.perf_counter()
        workloads.register(engine, datasets, self.points)
        self.register_s[role] = time.perf_counter() - started
        return engine

    def close(self) -> None:
        for engine in self._engines:
            engine.close()


# ----------------------------------------------------------------------
# storage and kernels: a scratch store of the workload's backend kind
# ----------------------------------------------------------------------
def storage_rungs(spec: WorkloadSpec, stream: Stream, sample: List[Op],
                  data_dir: str, out: Dict[str, float]) -> None:
    dataset = spec.datasets[0]
    points = stream.points[dataset.name][:16384]
    records = [tuple(row) for row in points.tolist()]
    kind = spec.engine_options.get("backend", "memory")
    backend = make_backend(kind, path=os.path.join(data_dir, "scratch.blocks")
                           if kind != "memory" else None)
    store = BlockStore(workloads.BLOCK_SIZE, backend=backend)
    try:
        array = DiskArray(store, records)
        blocks = array.block_ids
        held = {block: backend.get(block) for block in blocks}
        puts, gets = [], []
        for block in blocks:
            started = time.perf_counter()
            backend.put(block, held[block])
            puts.append(time.perf_counter() - started)
        for block in blocks:
            started = time.perf_counter()
            backend.get_payload(block)
            gets.append(time.perf_counter() - started)
        info = backend.info()
        logical = workloads.BLOCK_SIZE * dataset.dimension * 8
        out["io.backend.put_us"] = _US * median(puts)
        out["io.backend.get_us"] = _US * median(gets)
        # A memory backend moves references: its figures are the logical
        # payload, and a put stores exactly what it was given.
        out["io.backend.bytes_per_block"] = \
            info["live_bytes"] / len(blocks) if "live_bytes" in info \
            else float(logical)
        out["io.backend.write_amplification"] = \
            info["file_bytes"] / info["live_bytes"] \
            if "live_bytes" in info else 1.0

        misses, hits = [], []
        store.clear_cache()
        for block in blocks:                 # the 4-block pool misses all
            started = time.perf_counter()
            store.read_payload(block)
            misses.append(time.perf_counter() - started)
        store.resize_cache(len(blocks))
        for block in blocks:
            store.read_payload(block)
        for block in blocks:
            started = time.perf_counter()
            store.read_payload(block)
            hits.append(time.perf_counter() - started)
        out["io.store.read_miss_us"] = _US * median(misses)
        out["io.store.read_hit_us"] = _US * median(hits)

        # Kernels over a resident array, so the scan itself is timed.
        scans = []
        for op in [op for op in sample if op.dataset == dataset.name][:30]:
            started = time.perf_counter()
            len(filter_constraint(array, constraint_of(op)))
            scans.append((time.perf_counter() - started) / len(records))
        out["core.kernels.filter_ns_per_record"] = 1e9 * median(scans)
        rows = []
        matrix = np.ascontiguousarray(points[:4096])
        for __ in range(15):
            started = time.perf_counter()
            matrix_rows(matrix)
            rows.append(time.perf_counter() - started)
        out["core.kernels.matrix_rows_us_per_kpoint"] = \
            _US * median(rows) / (len(matrix) / 1000.0)
    finally:
        store.close()


# ----------------------------------------------------------------------
# index structures: every kind, on the embedded_suite datasets
# ----------------------------------------------------------------------
class IndexTable:
    """Every index kind over the ``embedded_suite`` datasets."""

    def __init__(self, seed: int, sizing: Sizing) -> None:
        self._seed = seed
        self._embedded = workloads.BY_NAME["embedded_suite"]
        flat, solid = self._embedded.datasets
        self._home = {kind: solid if kind in ("halfspace3d", "hybrid3d")
                      else flat for kind in metrics.INDEX_KINDS}
        self._points = workloads.all_points(self._embedded, seed, sizing)
        self._catalog = Catalog(block_size=workloads.BLOCK_SIZE, seed=seed)

    def build(self, out: Dict[str, float]) -> None:
        """``build_s``, ``build_ios``, ``space_blocks`` of every kind."""
        for name, points in self._points.items():
            self._catalog.register_dataset(name, points)
        for kind in metrics.INDEX_KINDS:
            record = self._catalog.build_index(self._home[kind].name, kind)
            prefix = "core.index.%s." % kind
            out[prefix + "build_s"] = record.build_seconds
            out[prefix + "build_ios"] = float(
                record.build_ios.total if record.build_ios else 0)
            out[prefix + "space_blocks"] = float(record.space_blocks)

    def query(self, spans: Spans, out: Dict[str, float]) -> Tuple[int, int]:
        """Cold queries of every kind; returns (attempted, failed)."""
        prepared = {}
        for dataset in self._embedded.datasets:
            rng = np.random.default_rng([self._seed, _INDEX_STREAM,
                                         dataset.dimension])
            selectivities = np.exp(rng.uniform(
                np.log(self._embedded.selectivity[0]),
                np.log(self._embedded.selectivity[1]), INDEX_QUERIES))
            prepared[dataset.name] = workloads.make_constraints(
                self._points[dataset.name], selectivities, rng)
        attempted = failed = 0
        for kind in metrics.INDEX_KINDS:
            name = self._home[kind].name
            index = self._catalog.indexes(name)[kind]
            times, ios, per_block = [], [], []
            coeffs, offsets, counts = prepared[name]
            for order in range(INDEX_QUERIES):
                constraint = LinearConstraint(
                    coeffs=tuple(float(c) for c in coeffs[order]),
                    offset=float(offsets[order]))
                result, seconds = spans.timed(
                    order, "core.index." + kind, None,
                    lambda: index.query_with_stats(constraint,
                                                   clear_cache=True))
                attempted += 1
                failed += result.count != int(counts[order])
                times.append(seconds)
                ios.append(result.total_ios)
                per_block.append(result.total_ios / max(
                    1.0, result.count / workloads.BLOCK_SIZE))
            prefix = "core.index.%s." % kind
            out[prefix + "query_ms"] = _MS * median(times)
            out[prefix + "ios_per_query"] = statistics.fmean(ios)
            out[prefix + "ios_per_out_block"] = statistics.fmean(per_block)
        return attempted, failed

    def close(self) -> None:
        self._catalog.close()


# ----------------------------------------------------------------------
# the ladder: planner and index, executor, scheduler, HTTP
# ----------------------------------------------------------------------
class Ladder:
    """Per-request seconds at every rung, for one workload's sample."""

    def __init__(self, names: Sequence[str], warm: bool,
                 sample: List[Tuple[int, Op]], spans: Spans,
                 out: Dict[str, float]) -> None:
        #: The datasets the sample touches.
        self._names = list(names)
        #: HTTP workloads serve from the 64-block warm pool, as the server
        #: keeps it for its lifetime; the embedded caller gets the default
        #: 4-block pool.  Every rung of a workload runs under its regime.
        self.warm = warm
        self.sample = sample
        self.spans = spans
        self.out = out
        self.attempted = 0
        self.failed = 0

    def _pool(self, engine: QueryEngine):
        return engine.executor.core.warm_stores(
            self._names if self.warm else [],
            engine.executor.warm_cache_blocks)

    def _check(self, op: Op, count: int) -> None:
        self.attempted += 1
        self.failed += count != op.expected

    # -- planner, chosen index and engine.query, request by request ----
    def in_process(self, engine: QueryEngine,
                   parent: Optional[str]) -> None:
        """The rungs inside one process.

        For each request the planner and the index it chose are called
        directly, and ``engine.query`` fresh and repeated, back to back:
        the planner recalibrates from every query it serves, so replays
        made one pass after the other would not plan alike.  Which of
        the two goes first alternates; buffer-pool counts are taken where
        ``engine.query`` went first, on a pool the direct calls for the
        same request have not yet touched.
        """
        catalog = engine.catalog
        estimates, errors, plans, below = [], [], [], []
        fresh, repeats, ios, fanout = [], [], [], []
        planned: List[Tuple[LinearConstraint, list]] = []
        pruned = shards = counted = reads = accesses = 0
        stores = [store for dataset in self._names
                  for store in catalog.stores(dataset)]

        def direct(request: int, op: Op,
                   constraint: LinearConstraint) -> None:
            nonlocal pruned, shards
            entry = catalog.entry(op.dataset)
            started = time.perf_counter()
            estimate = entry.estimate_output(constraint)
            estimates.append(time.perf_counter() - started)
            errors.append(max(estimate, op.expected, 1)
                          / max(min(estimate, op.expected), 1))
            plan, plan_s = self.spans.timed(
                request, "engine.planner", "engine.executor",
                lambda: engine.planner.plan(op.dataset, constraint))
            plans.append(plan_s)
            if catalog.is_sharded(op.dataset):
                by_id = {shard.shard_id: shard for shard in
                         catalog.sharded(op.dataset).shards}
                parts = [(by_id[shard_id].planning_dataset(), part)
                         for shard_id, part in plan.shard_plans]
                pruned += plan.shards_pruned
                shards += plan.num_shards
            else:
                parts = [(entry, plan)]
                shards += 1
            # The executor fans shards out on threads, so the slowest
            # shard, not their sum, is what it waits for.
            count, slowest = 0, (0.0, 0.0)
            for dataset, part in parts:
                started = time.perf_counter()
                count += len(dataset.indexes[part.index_name]
                             .query(constraint))
                ended = time.perf_counter()
                if ended - started >= slowest[1] - slowest[0]:
                    slowest = (started, ended)
            self.spans.add(request, "core.index", "engine.executor",
                           slowest[0], slowest[1], shards=len(parts))
            self._check(op, count)
            below.append(plan_s + slowest[1] - slowest[0])
            if len(planned) < REGRET_SAMPLE:
                planned.append((constraint, parts))

        def through(request: int, op: Op, constraint: LinearConstraint,
                    first: bool) -> None:
            nonlocal counted, reads, accesses
            engine.executor.invalidate_dataset(op.dataset)
            before = [store.stats.snapshot() for store in stores] \
                if first else []
            answer, seconds = self.spans.timed(
                request, "engine.executor", parent,
                lambda: engine.query(op.dataset, constraint))
            for store, marker in zip(stores, before):
                delta = store.stats.delta(marker)
                reads += delta.reads
                accesses += delta.reads + delta.cache_hits
            counted += first
            self._check(op, answer.count)
            fresh.append(seconds)
            ios.append(answer.total_ios)
            fanout.append(max(1, answer.shards_queried))
            again, seconds = self.spans.timed(
                request, "engine.executor.cache_hit", "engine.executor",
                lambda: engine.query(op.dataset, constraint))
            self._check(op, again.count)
            if again.from_result_cache:
                repeats.append(seconds)

        with self._pool(engine):
            for order, (request, op) in enumerate(self.sample):
                constraint = constraint_of(op)
                if order % 2:
                    through(request, op, constraint, True)
                    direct(request, op, constraint)
                else:
                    direct(request, op, constraint)
                    through(request, op, constraint, False)
        # Regret: every candidate's cold cost beside the chosen one's.
        # Cold runs empty the pools, so they come after the timed pass.
        chosen_ios = best_ios = 0
        ratios = []
        for constraint, parts in planned:
            for dataset, part in parts:
                cold = {name: index.query_with_stats(
                    constraint, clear_cache=True).total_ios
                    for name, index in dataset.indexes.items()}
                chosen_ios += cold[part.index_name]
                best_ios += min(cold.values())
                ratios.append(part.estimated_ios
                              / max(1, cold[part.index_name]))
        out = self.out
        out["engine.stats.estimate_us"] = _US * median(estimates)
        out["engine.stats.qerror_p50"] = np.percentile(errors, 50)
        out["engine.stats.qerror_p90"] = np.percentile(errors, 90)
        out["engine.planner.plan_us"] = _US * median(plans)
        out["engine.planner.regret"] = chosen_ios / max(1, best_ios)
        out["engine.planner.est_over_observed_p50"] = median(ratios)
        out["engine.planner.shards_pruned_share"] = pruned / shards
        out["engine.executor.query_ms"] = _MS * median(fresh)
        out["engine.executor.self_ms"] = _MS * paired_self(fresh, below)
        out["engine.executor.ios_per_query"] = statistics.fmean(ios)
        out["engine.executor.cache_hit_us"] = _US * median(repeats)
        out["engine.executor.shards_per_query"] = statistics.fmean(fanout)
        out["io.store.reads_per_query"] = reads / counted
        out["io.store.accesses_per_query"] = accesses / counted
        out["io.store.hit_rate"] = 1.0 - reads / max(1, accesses)

    # -- the upper rungs, each beside a bare engine.query ---------------
    # The host's speed wanders by tens of percent within seconds, so a
    # rung is never compared with one replayed in another pass: each call
    # of an upper rung has a bare ``engine.query`` of the same request
    # next to it, in alternating order, and the rung's self time is the
    # median of those paired differences.
    def bare(self, engine: QueryEngine, op: Op) -> float:
        """Seconds of one fresh ``engine.query``, checked, no span."""
        constraint = constraint_of(op)
        engine.executor.invalidate_dataset(op.dataset)
        started = time.perf_counter()
        answer = engine.query(op.dataset, constraint)
        seconds = time.perf_counter() - started
        self._check(op, answer.count)
        return seconds

    def across_processes(self, workers: QueryEngine, threads: QueryEngine,
                         parent: Optional[str]) -> None:
        """``engine.query`` over worker processes against in-process."""
        remote, beside = [], []

        def far(request: int, op: Op) -> None:
            constraint = constraint_of(op)
            workers.executor.invalidate_dataset(op.dataset)
            answer, seconds = self.spans.timed(
                request, "engine.cluster", parent,
                lambda: workers.query(op.dataset, constraint))
            self._check(op, answer.count)
            remote.append(seconds)

        with self._pool(workers), self._pool(threads):
            for order, (request, op) in enumerate(self.sample):
                if order % 2:
                    beside.append(self.bare(threads, op))
                    far(request, op)
                else:
                    far(request, op)
                    beside.append(self.bare(threads, op))
        self.out["engine.cluster.query_ms"] = _MS * median(remote)
        self.out["engine.cluster.self_ms"] = \
            _MS * paired_self(remote, beside)

    def span_overhead(self, engine: QueryEngine) -> float:
        """What recording a span adds to the executor rung, as a share.

        The same fresh query inside a span and with two bare clock reads,
        back to back, in alternating order (passes made one after the
        other would differ by what the planner learnt in between).
        """
        scratch = Spans()
        extra, bare = [], []
        with self._pool(engine):
            for order, (request, op) in enumerate(self.sample):
                constraint = constraint_of(op)
                seconds = {}
                for spanned in (order % 2 == 0, order % 2 != 0):
                    engine.executor.invalidate_dataset(op.dataset)
                    if spanned:
                        __, seconds[True] = scratch.timed(
                            request, "engine.executor", None,
                            lambda: engine.query(op.dataset, constraint))
                    else:
                        started = time.perf_counter()
                        engine.query(op.dataset, constraint)
                        seconds[False] = time.perf_counter() - started
                extra.append(seconds[True] - seconds[False])
                bare.append(seconds[False])
        return median(extra) / median(bare)

    # -- the engine-owned scheduler, as HTTP uses it -------------------
    def serving(self, engine: QueryEngine) -> None:
        executor = engine.serving_executor()
        turnarounds, waits, outcomes, tracing, below = [], [], [], [], []

        async def submit(op: Op) -> Tuple[object, float, float]:
            engine.executor.invalidate_dataset(op.dataset)
            serving = ServingRequest(tenant="bench", dataset=op.dataset,
                                     constraint=constraint_of(op))
            started = time.perf_counter()
            served = await executor.submit(serving)
            ended = time.perf_counter()
            self._check(op, served.answer.count
                        if served.answer is not None else -1)
            return served, started, ended

        async def scheduled(request: int, op: Op) -> None:
            served, started, ended = await submit(op)
            self.spans.add(request, "engine.serving", "engine.server",
                           started, ended, outcome=served.outcome)
            turnarounds.append(ended - started)
            waits.append(served.queue_wait_s)
            outcomes.append(served.outcome)

        async def drive() -> None:
            await executor.start()
            try:
                for order, (request, op) in enumerate(self.sample):
                    if order % 2:
                        below.append(self.bare(engine, op))
                        await scheduled(request, op)
                    else:
                        await scheduled(request, op)
                        below.append(self.bare(engine, op))
                # Request tracing is paid under the scheduler (a bare
                # engine.query starts no trace): the same request with
                # the tracer on and off, back to back, in alternating
                # order so that neither always finds the warmer pool.
                for order, (__, op) in enumerate(self.sample):
                    seconds = {}
                    for enabled in (order % 2 == 0, order % 2 != 0):
                        engine.tracer.enabled = enabled
                        __, started, ended = await submit(op)
                        seconds[enabled] = ended - started
                    tracing.append(seconds[True] - seconds[False])
            finally:
                engine.tracer.enabled = True
                await executor.stop()

        with self._pool(engine):
            asyncio.run(drive())
        out = self.out
        out["engine.serving.turnaround_ms"] = _MS * median(turnarounds)
        out["engine.serving.self_ms"] = _MS * paired_self(turnarounds, below)
        out["engine.serving.queue_wait_ms"] = _MS * median(waits)
        out["engine.serving.non_served_share"] = \
            sum(outcome != "served" for outcome in outcomes) / len(outcomes)
        out["engine.tracing.enabled_us_per_query"] = _US * median(tracing)
        now = time.monotonic()
        decisions = []
        for __ in range(2000):
            started = time.perf_counter()
            executor.admission.decide("bench", 8.0, now)
            decisions.append(time.perf_counter() - started)
        out["engine.serving.admission_decide_us"] = _US * median(decisions)

    # -- HTTP: keep-alive round trips against an otherwise idle server --
    def server(self, engine: QueryEngine) -> None:
        server = engine.serve_http(
            [ApiKey(key=workloads.API_KEY, tenant="bench")],
            warm_cache=self.warm)
        trips, below, sizes, points = [], [], 0, 0
        out = self.out
        try:
            client = loadgen.HttpClient(server.address)

            def trip(request: int, op: Op) -> None:
                nonlocal sizes, points
                engine.executor.invalidate_dataset(op.dataset)
                route, body = loadgen.encode(op)
                (status, reply), seconds = self.spans.timed(
                    request, "engine.server", None,
                    lambda: client.post(route, body))
                outcome = loadgen.Outcome(request, 0.0, 0.0)
                loadgen.read_answer(outcome, "query", status, reply)
                self._check(op, outcome.count if outcome.ok else -1)
                trips.append(seconds)
                sizes += len(reply)
                points += max(0, outcome.count)

            try:
                for order, (request, op) in enumerate(self.sample):
                    if order % 2:
                        below.append(self.bare(engine, op))
                        trip(request, op)
                    else:
                        trip(request, op)
                        below.append(self.bare(engine, op))
                probes = []
                for __ in range(200):
                    started = time.perf_counter()
                    client.get("/healthz")
                    probes.append(time.perf_counter() - started)
                renders = []
                for __ in range(10):
                    started = time.perf_counter()
                    client.get("/metrics")
                    renders.append(time.perf_counter() - started)
            finally:
                client.close()
            connects = []
            for __ in range(100):
                started = time.perf_counter()
                fresh = loadgen.HttpClient(server.address)
                fresh.get("/healthz")
                fresh.close()
                connects.append(time.perf_counter() - started)
        finally:
            server.stop()
        out["engine.server.roundtrip_ms"] = _MS * median(trips)
        # Over a bare query the round trip adds the scheduler and HTTP.
        out["engine.server.self_ms"] = _MS * paired_self(trips, below) \
            - out["engine.serving.self_ms"]
        out["engine.server.healthz_us"] = _US * median(probes)
        out["engine.server.connect_us"] = \
            _US * (median(connects) - median(probes))
        out["engine.server.response_bytes_per_point"] = \
            sizes / max(1, points)
        out["engine.server.metrics_render_ms"] = _MS * median(renders)


# ----------------------------------------------------------------------
# worker processes: RPC floor, codec, spawn
# ----------------------------------------------------------------------
def cluster_rungs(rig: Rig, out: Dict[str, float]) -> None:
    engine, name = rig.process, rig.sharded_name
    coordinator = engine.cluster
    shard = engine.catalog.sharded(name).nonempty_shards()[0]
    client = coordinator.worker(name, shard.shard_id, 0).client
    pings = []
    for __ in range(200):
        started = time.perf_counter()
        client.ping()
        pings.append(time.perf_counter() - started)
    out["engine.cluster.ping_us"] = _US * median(pings)

    # The codec: 4096 points across a socket pair and back into tuples.
    points = [tuple(row) for row in rig.points[name][:4096].tolist()]
    near, far = socket.socketpair()
    received: List[object] = []

    def receive_one() -> None:
        received.append(protocol.points_from_wire(
            protocol.recv_message(far)["points"]))

    try:
        codec = []
        for __ in range(10):
            reader = threading.Thread(target=receive_one)
            reader.start()
            started = time.perf_counter()
            protocol.send_message(
                near, {"points": protocol.points_to_wire(points)})
            reader.join()
            codec.append(time.perf_counter() - started)
        out["engine.cluster.codec_us_per_kpoint"] = \
            _US * median(codec) / (len(points) / 1000.0)
        # One more frame, read raw, for its size on the wire.
        sizes: List[int] = []

        def drain() -> None:
            header = far.recv(4, socket.MSG_WAITALL)
            length = int.from_bytes(header, "big")
            remaining = length
            while remaining:
                remaining -= len(far.recv(min(remaining, 1 << 20)))
            sizes.append(4 + length)

        reader = threading.Thread(target=drain)
        reader.start()
        protocol.send_message(near,
                              {"points": protocol.points_to_wire(points)})
        reader.join()
        out["engine.cluster.wire_bytes_per_point"] = sizes[0] / len(points)
    finally:
        near.close()
        far.close()

    workers = coordinator.describe()["workers"][name]
    out["engine.cluster.worker_peak_rss_mb"] = max(
        procfs.peak_rss_mb(worker["pid"]) for worker in workers)
    coordinator.stop_dataset(name)
    started = time.perf_counter()
    coordinator.start_dataset(name)
    out["engine.cluster.spawn_s"] = time.perf_counter() - started


# ----------------------------------------------------------------------
# the stream in order (result cache), then writes
# ----------------------------------------------------------------------
def replay_in_order(engine: QueryEngine, stream: Stream, length: int,
                    warm_names: Sequence[str], out: Dict[str, float]
                    ) -> Tuple[int, int]:
    """Consecutive measured operations, writes included: cache hit rate."""
    queries = hits = failed = 0
    extra = np.empty((0, stream.spec.datasets[0].dimension))
    with engine.executor.core.warm_stores(list(warm_names),
                                          engine.executor.warm_cache_blocks):
        for op in stream.ops[stream.warmup:stream.warmup + length]:
            if op.kind == "query":
                answer = engine.query(op.dataset, constraint_of(op))
                queries += 1
                hits += bool(answer.from_result_cache)
                expected = op.expected + int(np.count_nonzero(
                    workloads.satisfied(extra, op))) if len(extra) \
                    else op.expected
                failed += answer.count != expected
            elif op.kind == "insert":
                failed += not engine.insert(op.dataset, op.point).applied
                extra = np.vstack([extra, op.point])
            else:
                applied = engine.delete(op.dataset, op.point).applied
                gone = np.flatnonzero((extra == op.point).all(axis=1))
                # A delete whose insert lies before the replayed window
                # finds nothing to remove, and says so.
                failed += applied != bool(len(gone))
                if len(gone):
                    extra = np.delete(extra, gone[0], axis=0)
    out["engine.executor.cache_hit_rate"] = hits / max(1, queries)
    return queries, failed


def writes_rung(engine: QueryEngine, name: str, probes: List[Op],
                seed: int, spans: Spans, out: Dict[str, float]
                ) -> Tuple[int, int]:
    """Insert, requery a cached constraint, later delete: engine calls."""
    dimension = engine.catalog.entry(name).dimension
    rng = np.random.default_rng([seed, _INDEX_STREAM, 99])
    fresh = [tuple(float(c) for c in row)
             for row in rng.random((WRITE_ROUNDS, dimension))]
    inserts, deletes, requeries, ios, replicas = [], [], [], [], []
    failed = 0
    for order, point in enumerate(fresh):
        constraint = constraint_of(probes[order % len(probes)])
        engine.query(name, constraint)          # now cached
        result, seconds = spans.timed(
            order, "engine.writes.insert", None,
            lambda: engine.insert(name, point))
        failed += not result.applied
        inserts.append(seconds)
        ios.append(result.ios)
        replicas.append(result.replicas)
        __, seconds = spans.timed(
            order, "engine.writes.requery", None,
            lambda: engine.query(name, constraint))
        requeries.append(seconds)
    for order, point in enumerate(fresh):
        result, seconds = spans.timed(
            order, "engine.writes.delete", None,
            lambda: engine.delete(name, point))
        failed += not result.applied
        deletes.append(seconds)
        ios.append(result.ios)
        replicas.append(result.replicas)
    out["engine.writes.insert_ms"] = _MS * median(inserts)
    out["engine.writes.delete_ms"] = _MS * median(deletes)
    out["engine.writes.requery_ms"] = _MS * median(requeries)
    out["engine.writes.ios_per_write"] = statistics.fmean(ios)
    out["engine.writes.replicas_per_write"] = statistics.fmean(replicas)
    return 2 * WRITE_ROUNDS, failed


def run(spec: WorkloadSpec, seed: int, sizing: Sizing,
        out_dir: str) -> Dict[str, object]:
    """The traced run of one workload: every per-layer metric."""
    out: Dict[str, float] = {}
    spans = Spans()
    data_dir = os.path.join(out_dir, "trace_data_%d_%s"
                            % (os.getpid(), spec.name))
    os.makedirs(data_dir, exist_ok=True)
    rig: Optional[Rig] = None
    table: Optional[IndexTable] = None
    try:
        # Indexes, then engines, are built before anything else, in a
        # process that has so far only imported and drawn its points, as
        # the launcher's has.  Build times depend on what the allocator
        # did before: once something has freed a block larger than any
        # before it (the first halfplane2d build does; so does drawing the
        # request stream below) glibc stops trimming the heap, and the
        # same build runs in about half the time.  So the index table's
        # figures are a fresh process's, and for embedded_suite, which
        # builds halfplane2d a second time here, register_s is not.
        table = IndexTable(seed, sizing)
        table.build(out)
        rig = Rig(spec, workloads.all_points(spec, seed, sizing), seed,
                  data_dir)
        main = rig.main
        out["engine.catalog.register_s"] = rig.register_s["main"]
        built = sum(record.build_seconds
                    for dataset in spec.datasets
                    for record in main.catalog.build_records(
                        dataset.name).values())
        out["engine.catalog.build_share"] = built / rig.register_s["main"]

        stream = workloads.build_stream(spec, seed, sizing)
        positions = workloads.trace_sample(stream, sizing.trace_sample(spec))
        sample = [(position, stream.ops[position]) for position in positions]
        storage_rungs(spec, stream, [op for __, op in sample], data_dir, out)
        attempted, failed = table.query(spans, out)

        warm = spec.entry == "http"
        ladder = Ladder([dataset.name for dataset in spec.datasets], warm,
                        sample, spans, out)
        on_workers = main is rig.process
        local = rig.inproc if on_workers else main
        ladder.in_process(
            local, "engine.cluster" if on_workers else "engine.serving")
        out["trace.overhead_share"] = ladder.span_overhead(local)
        # Only where the workload itself runs on workers is the cluster
        # rung part of its ladder; elsewhere it stands beside it.
        sharded = [(position, op) for position, op in sample
                   if op.dataset == rig.sharded_name]
        side = Ladder([rig.sharded_name], warm, sharded, spans, out)
        side.across_processes(rig.process, rig.inproc,
                              "engine.serving" if on_workers else None)
        ladder.serving(main)
        ladder.server(main)

        replayed, wrong = replay_in_order(
            local, stream, 2 * len(sample),
            [dataset.name for dataset in spec.datasets] if warm else [], out)
        written, lost = writes_rung(
            rig.inproc, rig.sharded_name,
            [op for __, op in sharded][:WRITE_ROUNDS], seed, spans, out)
        # Last: it restarts the worker fleet to time the spawn.
        cluster_rungs(rig, out)
        attempted += ladder.attempted + side.attempted + replayed + written
        failed += ladder.failed + side.failed + wrong + lost
    finally:
        if table is not None:
            table.close()
        if rig is not None:
            rig.close()
        shutil.rmtree(data_dir, ignore_errors=True)
    trace_file = os.path.join(out_dir, "trace_%s.jsonl" % spec.name)
    spans.write(trace_file)
    return {"metrics": {name: out[name] for name in metrics.PER_LAYER_UNITS},
            "attempted": attempted, "failed": failed,
            "trace_file": trace_file}

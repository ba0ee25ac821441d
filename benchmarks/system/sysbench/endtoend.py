"""The untraced run of one workload: set up, load, check, measure."""

from __future__ import annotations

import json
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from sysbench import hostspeed, loadgen, workloads
from sysbench.loadgen import Outcome
from sysbench.workloads import Sizing, Stream, WorkloadSpec

#: The measured phase is sized to take about ``--seconds``; a host slow
#: enough to need this many times longer stops early and says so.
OVERRUN_FACTOR = 4.0
_SETUP_TIMEOUT_S = 300.0
#: Further set-up measurements are taken until this much time went into
#: set-up: five of a 0.2 s set-up, four of a 0.5 s one, two of a 1.7 s
#: one, and an 8 s build, steady enough as it is, once.
SETUP_BUDGET_S = 2.0


@dataclass
class RunResult:
    workload: str
    seed: int
    #: End-to-end metrics by name; times are corrected for host speed.
    metrics: Dict[str, float]
    #: The generator's own figures, and ungated extras (p99, writes, the
    #: host-speed factor and the uncorrected median).
    loadgen: Dict[str, float]
    attempted: int
    failed: int
    #: Why the figures should not be used, if they should not.
    invalid: List[str] = field(default_factory=list)
    #: The first few failures, for the log.
    failures: List[str] = field(default_factory=list)


def _time_limit(sizing: Sizing) -> float:
    """Seconds after which a phase is cut short and the run invalid."""
    return max(30.0, OVERRUN_FACTOR * sizing.seconds)


def _check_queries(stream: Stream, outcomes: Dict[int, Outcome]) -> None:
    """Every answered query's count against the oracle; marks the wrong.

    Without writes the count must equal the oracle's.  Beside writes it
    must lie between the count implied by the writes acknowledged before
    the query was sent and the one implied by those sent before it
    returned.
    """
    ops = stream.ops
    inserts = [position for position, op in enumerate(ops)
               if op.kind == "insert"]
    never = float("inf")
    column = {position: order for order, position in enumerate(inserts)}
    inserted = np.array([ops[position].point for position in inserts])
    ins_sent = np.full(len(inserts), never)
    ins_done = np.full(len(inserts), never)
    del_sent = np.full(len(inserts), never)
    del_done = np.full(len(inserts), never)
    for position, outcome in outcomes.items():
        op = ops[position]
        if op.kind == "insert":
            ins_sent[column[position]] = outcome.sent
            if outcome.ok:
                ins_done[column[position]] = outcome.done
        elif op.kind == "delete":
            del_sent[column[op.target]] = outcome.sent
            if outcome.ok:
                del_done[column[op.target]] = outcome.done
    for position, outcome in sorted(outcomes.items()):
        op = ops[position]
        if op.kind != "query" or not outcome.ok:
            continue
        low = high = op.expected
        if len(inserts):
            hit = workloads.satisfied(inserted, op)
            low += int(np.count_nonzero(
                hit & (ins_done < outcome.sent) & (del_sent > outcome.done)))
            high += int(np.count_nonzero(
                hit & (ins_sent < outcome.done) & (del_done > outcome.sent)))
        if not low <= outcome.count <= high:
            outcome.ok = False
            outcome.error = "count %d, oracle %s" % (
                outcome.count, low if low == high else "%d..%d" % (low, high))


def _final_check(stream: Stream, outcomes: Dict[int, Outcome],
                 client: loadgen.HttpClient) -> Optional[str]:
    """A full-range query must return exactly the tracked live multiset."""
    dataset = stream.spec.datasets[0]
    live = [stream.points[dataset.name]]
    deleted = {stream.ops[position].target
               for position, outcome in outcomes.items()
               if stream.ops[position].kind == "delete" and outcome.ok}
    kept = [stream.ops[position].point
            for position, outcome in sorted(outcomes.items())
            if stream.ops[position].kind == "insert" and outcome.ok
            and position not in deleted]
    if kept:
        live.append(np.array(kept))
    expected = np.concatenate(live)
    coeffs, offset = workloads.full_range_query(dataset)
    status, body = client.post(*loadgen.encode(workloads.Op(
        kind="query", dataset=dataset.name, coeffs=coeffs, offset=offset)))
    if status != 200:
        return "final full-range query: status %d" % status
    answer = np.array(json.loads(body)["answer"]["points"]) \
        .reshape(-1, dataset.dimension)
    if len(answer) != len(expected):
        return "final full-range query: %d points, tracked %d" \
            % (len(answer), len(expected))
    order = np.lexsort(answer.T[::-1])
    wanted = np.lexsort(expected.T[::-1])
    if not np.array_equal(answer[order], expected[wanted]):
        return "final full-range query: multiset differs from tracked one"
    return None


def _figures(latencies: Sequence[float], samples: Sequence[float],
             is_query: Sequence[bool], ok: Sequence[bool], cpu_s: float,
             result: RunResult) -> Dict[str, float]:
    """The timing metrics of one measured phase, host speed taken out.

    One entry per measured operation in each sequence.  With one caller
    the program works only between ``sent`` and ``done``, so work per
    second is operations over the sum of their latencies; the
    generator's own time between operations is in neither.
    """
    raw = np.asarray(latencies)
    corrected = raw / hostspeed.factors(samples)
    asked = np.asarray(is_query, dtype=bool)
    queries, writes = corrected[asked], corrected[~asked]
    slowdown = raw.sum() / corrected.sum()
    result.loadgen.update({
        "sent": len(raw),
        "ok": int(np.count_nonzero(ok)),
        "failed": len(raw) - int(np.count_nonzero(ok)),
        "query_samples": len(queries),
        "query_p90_ms": 1e3 * np.percentile(queries, 90),
        "query_p99_ms": 1e3 * np.percentile(queries, 99),
        "host_slowdown": slowdown,
        "uncorrected_query_p50_ms": 1e3 * np.percentile(raw[asked], 50),
    })
    if len(writes):
        result.loadgen["write_p50_ms"] = 1e3 * np.percentile(writes, 50)
        result.loadgen["write_p95_ms"] = 1e3 * np.percentile(writes, 95)
    return {
        "query_p50_ms": 1e3 * np.percentile(queries, 50),
        "query_p95_ms": 1e3 * np.percentile(queries, 95),
        "queries_per_s": np.count_nonzero(np.asarray(ok, dtype=bool) & asked)
        / corrected.sum(),
        "cpu_ms_per_op": 1e3 * cpu_s / slowdown / len(raw),
    }


def _serve_http(stream: Stream, child: loadgen.Child, address,
                sizing: Sizing, result: RunResult) -> Dict[str, float]:
    """Warm-up phase, measured phase, checks; returns the timings."""
    spec = stream.spec
    client = loadgen.HttpClient(address)
    try:
        limit = _time_limit(sizing)
        warm, __ = loadgen.run_phase(client, stream.ops[:stream.warmup], 0,
                                     limit)
        cpu_started = child.call({"cmd": "cpu"}, 30.0)["cpu_s"]
        started = time.perf_counter()
        measured, samples = loadgen.run_phase(
            client, stream.ops[stream.warmup:], stream.warmup, limit)
        wall = time.perf_counter() - started
        cpu_s = child.call({"cmd": "cpu"}, 30.0)["cpu_s"] - cpu_started
        outcomes = {outcome.position: outcome for outcome in warm + measured}
        _check_queries(stream, outcomes)
        checks_final = bool(spec.insert_share or spec.delete_share)
        final_error = _final_check(stream, outcomes, client) \
            if checks_final else None
    finally:
        client.close()
    if len(outcomes) < len(stream.ops):
        result.invalid.append("stopped after %.0f s with %d of %d operations "
                              "sent" % (limit, len(outcomes),
                                        len(stream.ops)))
    bad = [outcome for outcome in outcomes.values() if not outcome.ok]
    result.attempted = len(outcomes) + checks_final
    result.failed = len(bad) + (1 if final_error else 0)
    result.failures = ["op %d (%s): %s" % (
        outcome.position, stream.ops[outcome.position].kind, outcome.error)
        for outcome in bad[:5]] + ([final_error] if final_error else [])

    asked = [stream.ops[outcome.position].kind == "query"
             for outcome in measured]
    figures = _figures([outcome.latency_s for outcome in measured], samples,
                       asked, [outcome.ok for outcome in measured], cpu_s,
                       result)
    queries = [outcome for outcome, query in zip(measured, asked) if query]
    result.loadgen.update({
        "measured_s": wall,
        "ios_per_query": statistics.fmean(outcome.ios
                                          for outcome in queries),
        "result_cache_hit_share": statistics.fmean(
            outcome.cached for outcome in queries),
    })
    return figures


def _serve_embedded(stream: Stream, child: loadgen.Child, sizing: Sizing,
                    result: RunResult) -> Dict[str, float]:
    """The launcher's own single caller runs the stream; we check it."""
    limit = _time_limit(sizing)
    reply = child.call({
        "cmd": "run", "warmup": stream.warmup, "max_seconds": limit,
        "requests": [[op.dataset, list(op.coeffs), op.offset]
                     for op in stream.ops]}, limit + 60.0)
    done = len(reply["latencies"])
    if done < len(stream.ops):
        result.invalid.append("stopped after %.0f s with %d of %d requests "
                              "made" % (limit, done, len(stream.ops)))
    wrong = [position for position in range(done)
             if reply["counts"][position] != stream.ops[position].expected]
    result.attempted = done
    result.failed = len(wrong)
    result.failures = ["op %d (query): count %d, oracle %d" % (
        position, reply["counts"][position], stream.ops[position].expected)
        for position in wrong[:5]]
    measured = slice(stream.warmup, done)
    right = [reply["counts"][position] == stream.ops[position].expected
             for position in range(stream.warmup, done)]
    figures = _figures(reply["latencies"][measured],
                       reply["samples"][measured], [True] * len(right),
                       right, reply["cpu_s"], result)
    result.loadgen.update({
        "measured_s": reply["wall_s"],
        "ios_per_query": statistics.fmean(reply["ios"][measured]),
        "result_cache_hit_share": statistics.fmean(
            reply["cached"][measured]),
    })
    return figures


def _set_up(child: loadgen.Child) -> Tuple[dict, float]:
    """Wait for a launcher to be ready; returns its report and its
    ``setup_s`` with the host's speed while it set up taken out."""
    with hostspeed.Sampler() as speed:
        ready = child.read(_SETUP_TIMEOUT_S)
    return ready, ready["setup_s"] / speed.factor()


def run(spec: WorkloadSpec, seed: int, sizing: Sizing,
        out_dir: str) -> RunResult:
    """One untraced run: every end-to-end metric of one workload."""
    result = RunResult(workload=spec.name, seed=seed, metrics={},
                       loadgen={}, attempted=0, failed=0)
    data_dir = os.path.join(out_dir, "data_%d_%s" % (os.getpid(), spec.name))
    setups: List[float] = []
    stream = workloads.build_stream(spec, seed, sizing)
    child: Optional[loadgen.Child] = None
    try:
        # The first launcher goes on to serve.  While it idles, set-up is
        # measured again in further fresh processes, as long as that
        # stays cheap; setup_s is the median.
        child = loadgen.Child(spec.name, seed, sizing.points_scale, data_dir)
        ready, setup_s = _set_up(child)
        setups.append(setup_s)
        while len(setups) < sizing.setup_reps \
                and sum(setups) < SETUP_BUDGET_S:
            extra_dir = "%s_setup%d" % (data_dir, len(setups))
            extra = loadgen.Child(spec.name, seed, sizing.points_scale,
                                  extra_dir, setup_only=True)
            try:
                setups.append(_set_up(extra)[1])
                extra.wait_stopped(60.0)
            finally:
                extra.kill()
                shutil.rmtree(extra_dir, ignore_errors=True)
        if spec.entry == "http":
            figures = _serve_http(stream, child, ready["address"], sizing,
                                  result)
        else:
            figures = _serve_embedded(stream, child, sizing, result)
        stopped = child.stop()
    finally:
        if child is not None:
            child.kill()
        shutil.rmtree(data_dir, ignore_errors=True)
    result.metrics = {"setup_s": statistics.median(setups), **figures,
                      "peak_rss_mb": stopped["peak_rss_mb"]}
    result.loadgen["setup_s_each"] = setups
    return result

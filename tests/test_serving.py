"""Tests for the async serving subsystem: queue, admission, replicas.

Covers the :mod:`repro.engine.serving` package (token buckets, admission
policies, the prioritized deadline queue, the asyncio executor) plus the
replication layer it drives (least-loaded picking, per-replica metrics,
write-fanout consistency) and the concurrency regressions the async path
must not reintroduce (lost metric updates).
"""

from __future__ import annotations

import sys
import threading

import pytest

from conftest import (assert_sample_is_live, brute_force_halfspace,
                      wave_answers)

from repro import LinearConstraint, QueryEngine
from repro.engine import ServingRequest, TenantBudget
from repro.engine import overlay as overlay_module
from repro.engine.catalog import Catalog
from repro.engine.obs.registry import view_to_json
from repro.engine.obs import render_prometheus
from repro.engine.serving.admission import (
    AdmissionController,
    TokenBucket,
)
from repro.engine.serving.executor import AsyncExecutor
from repro.engine.serving.queue import PriorityRequestQueue, QueuedRequest
from repro.engine.serving.replicas import LeastLoadedReplicaPicker
from repro.workloads import (
    halfspace_queries_with_selectivity,
    uniform_points,
)

BLOCK_SIZE = 32


@pytest.fixture(scope="module")
def points2d():
    return uniform_points(2048, seed=77)


def _request(constraint, tenant="t", dataset="d", priority=0,
             deadline_s=None):
    return ServingRequest(tenant=tenant, dataset=dataset,
                          constraint=constraint, priority=priority,
                          deadline_s=deadline_s)


@pytest.fixture(autouse=True)
def checked_scheduler(monkeypatch):
    """Every wave and every stop() in this file, ``serve_async``'s
    included, ends with the scheduler's invariants checked."""
    serve, stop = AsyncExecutor.serve, AsyncExecutor.stop

    async def checked_serve(self, *args, **kwargs):
        result = await serve(self, *args, **kwargs)
        self.check_invariants()
        return result

    async def checked_stop(self, *args, **kwargs):
        try:
            await stop(self, *args, **kwargs)
        finally:
            self.check_invariants()

    monkeypatch.setattr(AsyncExecutor, "serve", checked_serve)
    monkeypatch.setattr(AsyncExecutor, "stop", checked_stop)


# ----------------------------------------------------------------------
# token buckets
# ----------------------------------------------------------------------
def test_token_bucket_starts_full_and_refills_from_clock():
    bucket = TokenBucket(rate=10.0, burst=20.0)
    assert bucket.tokens == 20.0
    assert bucket.try_consume(15.0, now=0.0)
    assert not bucket.try_consume(10.0, now=0.0)     # only 5 left
    assert bucket.try_consume(10.0, now=0.5)         # +5 refilled
    assert bucket.tokens == pytest.approx(0.0)
    bucket.refill(now=10.0)
    assert bucket.tokens == 20.0                     # capped at burst

def test_token_bucket_seconds_until_and_settle():
    bucket = TokenBucket(rate=10.0, burst=20.0)
    assert bucket.try_consume(20.0, now=0.0)
    assert bucket.seconds_until(10.0, now=0.0) == pytest.approx(1.0)
    bucket.settle(estimated=20.0, observed=30.0)     # cost 10 more than predicted
    assert bucket.tokens == pytest.approx(-10.0)
    assert bucket.seconds_until(10.0, now=0.0) == pytest.approx(2.0)
    bucket.settle(estimated=0.0, observed=-0.0)
    assert bucket.tokens == pytest.approx(-10.0)


def test_token_bucket_oversized_request_admitted_from_full_bucket():
    # A request bigger than the whole bucket must not starve forever: it
    # is admitted once the bucket is full and drives the balance negative.
    bucket = TokenBucket(rate=10.0, burst=20.0)
    assert bucket.try_consume(50.0, now=0.0)
    assert bucket.tokens == pytest.approx(-30.0)
    assert not bucket.try_consume(50.0, now=0.0)
    assert bucket.seconds_until(50.0, now=0.0) == pytest.approx(5.0)


def test_token_bucket_rejects_bad_parameters():
    with pytest.raises(ValueError):
        TokenBucket(rate=0.0, burst=1.0)
    with pytest.raises(ValueError):
        TokenBucket(rate=1.0, burst=0.0)


# ----------------------------------------------------------------------
# admission controller
# ----------------------------------------------------------------------
def test_admission_unbudgeted_tenant_always_admitted():
    controller = AdmissionController()
    decision = controller.decide("anyone", 1e9, now=0.0)
    assert decision.action == "admit"
    assert controller.tokens("anyone") is None


def test_admission_policies_dispatch():
    controller = AdmissionController({
        "q": TenantBudget(ios_per_s=10.0, burst=10.0, policy="queue"),
        "r": TenantBudget(ios_per_s=10.0, burst=10.0, policy="reject"),
        "g": TenantBudget(ios_per_s=10.0, burst=10.0, policy="degrade"),
    })
    for tenant in "qrg":
        assert controller.decide(tenant, 10.0, now=0.0).action == "admit"
    queued = controller.decide("q", 5.0, now=0.0)
    assert queued.action == "queue"
    assert queued.retry_after_s == pytest.approx(0.5)
    assert controller.decide("r", 5.0, now=0.0).action == "reject"
    assert controller.decide("g", 5.0, now=0.0).action == "degrade"


def test_admission_settle_charges_observed_cost():
    controller = AdmissionController(
        {"t": TenantBudget(ios_per_s=10.0, burst=100.0)})
    assert controller.decide("t", 10.0, now=0.0).action == "admit"
    controller.settle("t", estimated_ios=10.0, observed_ios=60.0)
    assert controller.tokens("t") == pytest.approx(40.0)
    controller.settle("unbudgeted", 1.0, 100.0)      # no-op, no crash


def test_tenant_budget_validates_policy():
    with pytest.raises(ValueError):
        TenantBudget(ios_per_s=1.0, policy="drop")


# ----------------------------------------------------------------------
# priority queue
# ----------------------------------------------------------------------
def test_queue_orders_by_priority_deadline_then_arrival():
    constraint = LinearConstraint(coeffs=(0.0,), offset=0.0)
    queue = PriorityRequestQueue()
    items = [
        QueuedRequest(_request(constraint, priority=1), seq=0,
                      enqueued_at=0.0),
        QueuedRequest(_request(constraint, priority=0, deadline_s=9.0),
                      seq=1, enqueued_at=0.0),
        QueuedRequest(_request(constraint, priority=0, deadline_s=2.0),
                      seq=2, enqueued_at=0.0),
        QueuedRequest(_request(constraint, priority=0, deadline_s=2.0),
                      seq=3, enqueued_at=0.0),
    ]
    for item in items:
        queue.push(item)
    order = [queue.pop_ready(0.0).seq for __ in range(4)]
    assert order == [2, 3, 1, 0]
    assert queue.pop_ready(0.0) is None


def test_queue_parks_and_promotes_deferred_requests():
    constraint = LinearConstraint(coeffs=(0.0,), offset=0.0)
    queue = PriorityRequestQueue()
    parked = QueuedRequest(_request(constraint), seq=0, enqueued_at=0.0,
                           not_before=5.0)
    queue.push(parked)
    assert queue.pop_ready(1.0) is None
    assert queue.next_ready_delay(1.0) == pytest.approx(4.0)
    ready = QueuedRequest(_request(constraint), seq=1, enqueued_at=2.0)
    queue.push(ready)
    assert queue.next_ready_delay(2.0) == 0.0
    assert queue.pop_ready(2.0).seq == 1
    assert queue.pop_ready(6.0).seq == 0             # promoted after 5.0
    assert queue.next_ready_delay(7.0) is None       # empty


# ----------------------------------------------------------------------
# async executor end to end
# ----------------------------------------------------------------------
def test_serve_async_answers_match_brute_force(points2d):
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=5)
    engine.register_dataset("d", points2d)
    constraints = halfspace_queries_with_selectivity(points2d, 6, 0.05,
                                                     seed=11)
    requests = [_request(c, tenant="t%d" % (i % 3))
                for i, c in enumerate(constraints)]
    result = engine.serve_async(requests, max_concurrency=4)
    assert result.outcomes() == {"served": len(requests)}
    for constraint, item in zip(constraints, result.requests):
        assert item.answer is not None
        assert {tuple(p) for p in item.answer.points} == \
            brute_force_halfspace(points2d, constraint)
        assert item.turnaround_s >= item.queue_wait_s >= 0.0
    tenants = engine.summary()["tenants"]
    assert set(tenants) == {"t0", "t1", "t2"}
    assert sum(payload["queries"] for payload in tenants.values()) == 6


def test_serve_async_shares_result_cache_with_sync_path(points2d):
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=5)
    engine.register_dataset("d", points2d)
    constraint = halfspace_queries_with_selectivity(points2d, 1, 0.03,
                                                    seed=13)[0]
    first = engine.query("d", constraint)            # sync fills the cache
    assert not first.from_result_cache
    result = engine.serve_async([_request(constraint, tenant="async")])
    answer = result.requests[0].answer
    assert answer.from_result_cache
    assert answer.total_ios == 0
    assert {tuple(p) for p in answer.points} == {
        tuple(p) for p in first.points}


def test_serve_async_expires_requests_past_deadline(points2d):
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=5)
    engine.register_dataset("d", points2d)
    constraint = halfspace_queries_with_selectivity(points2d, 1, 0.05,
                                                    seed=17)[0]
    requests = [
        _request(constraint, tenant="live"),
        # A deadline strictly before submission can never be met.
        _request(constraint, tenant="dead", deadline_s=-1.0),
    ]
    result = engine.serve_async(requests)
    assert result.requests[0].outcome == "served"
    assert result.requests[1].outcome == "expired"
    assert result.requests[1].answer is None
    assert engine.summary()["admission"].get("expired") == 1


def test_serve_async_reject_policy_drops_over_budget(points2d):
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=5)
    engine.register_dataset("d", points2d)
    constraints = halfspace_queries_with_selectivity(points2d, 4, 0.2,
                                                     seed=19)
    requests = [_request(c, tenant="capped") for c in constraints]
    # The burst covers roughly one query; the trickle refill cannot clear
    # another before the run ends, so later requests are rejected.
    plan = engine.explain("d", constraints[0])
    budget = TenantBudget(ios_per_s=0.001, burst=plan.estimated_ios + 1.0,
                          policy="reject")
    result = engine.serve_async(requests, budgets={"capped": budget},
                                max_concurrency=1)
    outcomes = result.outcomes()
    assert outcomes.get("served", 0) >= 1
    assert outcomes.get("rejected", 0) >= 1
    admission = engine.summary()["admission"]
    assert admission["reject"] == outcomes["rejected"]


def test_serve_async_degrade_policy_serves_sample_subset(points2d):
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=5)
    engine.register_dataset("d", points2d)
    constraints = halfspace_queries_with_selectivity(points2d, 3, 0.3,
                                                     seed=23)
    requests = [_request(c, tenant="soft") for c in constraints]
    plan = engine.explain("d", constraints[0])
    budget = TenantBudget(ios_per_s=0.001, burst=plan.estimated_ios + 1.0,
                          policy="degrade")
    result = engine.serve_async(requests, budgets={"soft": budget},
                                max_concurrency=1)
    degraded = [item for item in result.requests
                if item.outcome == "degraded"]
    assert degraded
    for item, constraint in zip(result.requests, constraints):
        if item.outcome != "degraded":
            continue
        assert item.answer.degraded
        assert item.answer.total_ios == 0
        truth = brute_force_halfspace(points2d, constraint)
        assert {tuple(p) for p in item.answer.points} <= truth
    # Degraded answers must never be cached as exact results.
    exact = engine.query("d", degraded[0].request.constraint)
    assert not exact.from_result_cache


def test_serve_async_queue_policy_throttles_but_serves_all(points2d):
    import asyncio
    import itertools
    from repro.engine.serving import AsyncExecutor
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=5)
    engine.register_dataset("d", points2d)
    constraints = halfspace_queries_with_selectivity(points2d, 4, 0.1,
                                                     seed=29)
    requests = [_request(c, tenant="throttled") for c in constraints]
    plan = engine.explain("d", constraints[0])
    # Enough rate that deferrals clear in milliseconds, small enough burst
    # that back-to-back requests must wait.
    budget = TenantBudget(ios_per_s=20_000.0,
                          burst=plan.estimated_ios + 1.0, policy="queue")
    # The clock steps 0.1 ms (2 I/Os of refill) per reading, and the
    # first two admissions are one reading apart: the second always
    # finds the bucket short, however slow the host.
    ticks = itertools.count()
    executor = AsyncExecutor(
        engine.executor.core,
        admission=AdmissionController({"throttled": budget}),
        max_concurrency=2, clock=lambda: next(ticks) * 1e-4)
    result = asyncio.run(executor.serve(requests))
    assert result.outcomes() == {"served": len(requests)}
    assert sum(item.deferrals for item in result.requests) > 0
    assert engine.summary()["admission"].get("queue", 0) > 0
    for constraint, item in zip(constraints, result.requests):
        assert {tuple(p) for p in item.answer.points} == \
            brute_force_halfspace(points2d, constraint)


def test_serve_async_coalesces_duplicate_in_flight_requests(points2d):
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=5)
    engine.register_dataset("d", points2d)
    constraint = halfspace_queries_with_selectivity(points2d, 1, 0.1,
                                                    seed=47)[0]
    plan = engine.explain("d", constraint)
    requests = [_request(constraint, tenant="hot") for __ in range(6)]
    # The budget covers exactly one execution: only dedup (not six
    # admissions) can serve the whole wave.
    budget = TenantBudget(ios_per_s=0.001, burst=plan.estimated_ios + 1.0,
                          policy="reject")
    result = engine.serve_async(requests, budgets={"hot": budget},
                                max_concurrency=6)
    assert result.outcomes() == {"served": 6}
    executed = [item for item in result.requests
                if not item.answer.from_result_cache]
    assert len(executed) == 1                         # one leader paid I/O
    truth = brute_force_halfspace(points2d, constraint)
    for item in result.requests:
        assert {tuple(p) for p in item.answer.points} == truth
    assert engine.summary()["admission"]["admit"] == 1


def test_follower_whose_deadline_passed_during_leader_is_expired(points2d):
    # A deduped follower never re-enters the queue, so _complete itself
    # must enforce its deadline: a follower that the leader outlived is
    # dropped as "expired", not reported "served" late.
    from concurrent.futures import Future
    from repro.engine.executor import ExecutionCore
    from repro.engine.executor import ExecutedQuery
    from repro.engine.serving.executor import AsyncExecutor
    from repro.io.store import IOStats

    engine = QueryEngine(block_size=BLOCK_SIZE, seed=5)
    engine.register_dataset("d", points2d)
    constraint = halfspace_queries_with_selectivity(points2d, 1, 0.05,
                                                    seed=61)[0]
    executor = AsyncExecutor(engine.executor.core, clock=lambda: 100.0)
    leader = QueuedRequest(_request(constraint, tenant="a"), seq=0,
                           enqueued_at=0.0, dispatched_at=0.0)
    timely = QueuedRequest(_request(constraint, tenant="b",
                                    deadline_s=200.0), seq=1,
                           enqueued_at=0.0)
    doomed = QueuedRequest(_request(constraint, tenant="c",
                                    deadline_s=1.0), seq=2,
                           enqueued_at=0.0)
    key = ("d", constraint)
    # The scheduler state start() would create, with the followers
    # already attached to the in-flight leader.
    executor._keys = {key}
    executor._followers = {key: [timely, doomed]}
    future = Future()
    future.set_result(ExecutedQuery(dataset="d", index_name="halfplane2d",
                                    points=[(0.0, 0.0)], ios=IOStats(),
                                    latency_s=0.01, estimated_ios=3.0,
                                    tenant="a"))
    outcomes = dict(executor._complete(leader, future))
    assert outcomes[0].outcome == "served"
    assert outcomes[1].outcome == "served"           # deadline 200 > 100
    assert outcomes[1].answer.from_result_cache
    assert outcomes[1].answer.tenant == "b"
    assert outcomes[2].outcome == "expired"          # deadline 1 < 100
    assert outcomes[2].answer is None
    assert engine.summary()["admission"] == {"expired": 1}


def test_queue_policy_expiry_counts_once_and_never_parks(points2d):
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=5)
    engine.register_dataset("d", points2d)
    constraints = halfspace_queries_with_selectivity(points2d, 2, 0.1,
                                                     seed=53)
    plan = engine.explain("d", constraints[0])
    # Trickle refill: the second request's wait is far past its deadline,
    # so it must expire at admission — one recorded outcome, no deferral.
    # Priorities pin the admission order (a deadline would otherwise sort
    # the doomed request first and let it drain the bucket).
    budget = TenantBudget(ios_per_s=0.001, burst=plan.estimated_ios + 1.0,
                          policy="queue")
    requests = [_request(constraints[0], tenant="t", priority=0),
                _request(constraints[1], tenant="t", priority=1,
                         deadline_s=0.5)]
    result = engine.serve_async(requests, budgets={"t": budget},
                                max_concurrency=1)
    assert result.requests[0].outcome == "served"
    expired = result.requests[1]
    assert expired.outcome == "expired"
    assert expired.deferrals == 0
    admission = engine.summary()["admission"]
    assert admission == {"admit": 1, "expired": 1}    # no "queue" count


def test_deferred_request_replans_after_mutation(points2d):
    # A request parked by admission control must not execute the plan it
    # was costed with if the dataset mutated meanwhile: the fresh plan
    # sees the inserted point.
    import threading as _threading
    import time as _time
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=5)
    engine.register_dataset("d", points2d, kinds=["dynamic", "full_scan"])
    constraints = halfspace_queries_with_selectivity(points2d, 2, 0.2,
                                                     seed=59)
    drain, deferred = constraints
    inserted = (0.0, -2.0)
    assert deferred.below(inserted)
    e_drain = engine.explain("d", drain).estimated_ios
    e_deferred = engine.explain("d", deferred).estimated_ios
    # First request empties the bucket; the second defers for ~0.5s while
    # a background insert lands (at ~50ms) in the dataset.
    budget = TenantBudget(ios_per_s=2.0 * e_deferred,
                          burst=e_drain + 1.0, policy="queue")

    def mutate():
        _time.sleep(0.05)
        engine.insert("d", inserted)

    mutator = _threading.Thread(target=mutate)
    mutator.start()
    try:
        result = engine.serve_async(
            [_request(drain, tenant="t"), _request(deferred, tenant="t")],
            budgets={"t": budget}, max_concurrency=1)
    finally:
        mutator.join()
    late = result.requests[1]
    assert late.outcome == "served"
    assert late.deferrals > 0
    assert late.answer.index_name == "dynamic"
    assert tuple(inserted) in {tuple(p) for p in late.answer.points}
    # And the result cache holds the fresh answer, not a stale one.
    again = engine.query("d", deferred)
    assert again.from_result_cache
    assert tuple(inserted) in {tuple(p) for p in again.points}


def test_serve_async_isolates_per_request_failures(points2d):
    # One bad request (wrong constraint dimension fails planning) must not
    # discard the rest of the wave's outcomes.
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=5)
    engine.register_dataset("d", points2d)
    good = halfspace_queries_with_selectivity(points2d, 2, 0.05, seed=67)
    bad = LinearConstraint(coeffs=(0.1, 0.2), offset=0.0)   # 3-D vs 2-D data
    result = engine.serve_async([_request(good[0]), _request(bad),
                                 _request(good[1])])
    assert result.outcomes() == {"served": 2, "failed": 1}
    failed = result.requests[1]
    assert failed.outcome == "failed" and failed.answer is None
    assert "dimension" in failed.error
    for index in (0, 2):
        item = result.requests[index]
        assert {tuple(p) for p in item.answer.points} == \
            brute_force_halfspace(points2d, item.request.constraint)


def test_serve_async_isolates_unknown_dataset_with_warm_cache(points2d):
    # An unknown dataset name must fail its own request at planning time,
    # not crash the whole run in the warm-cache pre-pass.
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=5)
    engine.register_dataset("d", points2d)
    constraint = halfspace_queries_with_selectivity(points2d, 1, 0.05,
                                                    seed=71)[0]
    result = engine.serve_async(
        [_request(constraint, dataset="typo"),
         _request(constraint, dataset="d")],
        warm_cache=True)
    assert result.outcomes() == {"failed": 1, "served": 1}
    assert "unknown dataset" in result.requests[0].error
    assert {tuple(p) for p in result.requests[1].answer.points} == \
        brute_force_halfspace(points2d, constraint)


def test_serve_async_priorities_run_urgent_tenant_first(points2d):
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=5)
    engine.register_dataset("d", points2d)
    constraints = halfspace_queries_with_selectivity(points2d, 8, 0.05,
                                                     seed=31)
    # Background tenant submits first but with a worse priority class.
    requests = [_request(c, tenant="background", priority=5)
                for c in constraints[:4]]
    requests += [_request(c, tenant="urgent", priority=0)
                 for c in constraints[4:]]
    result = engine.serve_async(requests, max_concurrency=1)
    dispatch_order = sorted(result.requests,
                            key=lambda item: item.queue_wait_s)
    first_tenants = [item.request.tenant for item in dispatch_order[:4]]
    assert first_tenants == ["urgent"] * 4


# ----------------------------------------------------------------------
# one scheduler: serve() is a wave on the loop submit() feeds
# ----------------------------------------------------------------------
def _mixed_workload(points2d):
    """Reads and writes, two priorities, a duplicate, a deferral, a typo."""
    constraints = halfspace_queries_with_selectivity(points2d, 4, 0.05,
                                                     seed=83)
    heavy = halfspace_queries_with_selectivity(points2d, 1, 0.5, seed=83)[0]
    inserted = (0.25, -3.0)
    sees_insert = LinearConstraint(coeffs=(0.0,), offset=-2.5)
    return [
        _request(constraints[0], tenant="background", priority=1),
        ServingRequest(tenant="writer", dataset="d", op="insert",
                       point=inserted),
        _request(constraints[1], tenant="urgent"),
        _request(constraints[1], tenant="other"),          # duplicate
        _request(constraints[2], tenant="urgent", dataset="typo"),
        _request(sees_insert, tenant="urgent"),
        ServingRequest(tenant="writer", dataset="d", op="delete",
                       point=inserted, priority=1),
        _request(sees_insert, tenant="background", priority=1),
        # The heavy read overdraws its tenant's one-token bucket; the
        # next one parks until that is paid back.  They sort last, so the
        # deferral reorders nothing.
        _request(heavy, tenant="throttled", priority=1),
        _request(constraints[3], tenant="throttled", priority=1),
    ]


def _served_through(points2d, mode):
    """The mixed workload on a fresh engine; per-request facts + counts."""
    import asyncio
    from repro.engine.serving import AsyncExecutor
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=5)
    engine.register_dataset("d", points2d, kinds=["dynamic", "full_scan"])
    requests = _mixed_workload(points2d)
    budget = TenantBudget(ios_per_s=300.0, burst=1.0, policy="queue")
    admission = AdmissionController({"throttled": budget})
    # max_concurrency=1: one query at a time touches the buffer pool, so
    # the I/O counters are a function of the dispatch order alone.
    executor = AsyncExecutor(engine.executor.core, admission=admission,
                             max_concurrency=1)

    async def wave():
        return (await executor.serve(requests, warm_cache=False)).requests

    async def submissions():
        await executor.start()
        try:
            return await asyncio.gather(*[executor.submit(request)
                                          for request in requests])
        finally:
            await executor.stop()

    try:
        served = asyncio.run(wave() if mode == "wave" else submissions())
        assert not executor.running
        facts = [(item.outcome, item.deferrals > 0,
                  item.answer.total_ios if item.answer is not None
                  else item.mutation.ios if item.mutation is not None
                  else None,
                  sorted(map(tuple, item.answer.points))
                  if item.answer is not None else None)
                 for item in served]
        counts = dict(engine.summary()["admission"])
        counts.pop("queue")          # how often it re-parked is timing
        return facts, counts
    finally:
        engine.close()


def test_wave_and_submissions_are_the_same_scheduler(points2d):
    wave_facts, wave_counts = _served_through(points2d, "wave")
    live_facts, live_counts = _served_through(points2d, "submit")
    assert wave_facts == live_facts
    assert wave_counts == live_counts
    outcomes = [outcome for outcome, __, __, __ in wave_facts]
    assert outcomes == ["served"] * 4 + ["failed"] + ["served"] * 5
    assert [deferred for __, deferred, __, __ in wave_facts] == \
        [False] * 9 + [True]
    assert (0.25, -3.0) in wave_facts[5][3]       # read after the insert
    assert (0.25, -3.0) not in wave_facts[7][3]   # and after the delete


def test_serve_on_a_running_scheduler_leaves_it_running(points2d):
    import asyncio
    from repro.engine.serving import AsyncExecutor
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=5)
    engine.register_dataset("d", points2d)
    constraints = halfspace_queries_with_selectivity(points2d, 3, 0.05,
                                                     seed=89)
    executor = AsyncExecutor(engine.executor.core)

    async def scenario():
        await executor.start()
        try:
            result = await executor.serve([_request(c)
                                           for c in constraints[:2]])
            assert executor.running            # not the wave's to stop
            later = await executor.submit(_request(constraints[2]))
            return result, later
        finally:
            await executor.stop()

    result, later = asyncio.run(scenario())
    assert result.outcomes() == {"served": 2}
    assert later.outcome == "served"
    assert {tuple(p) for p in later.answer.points} == \
        brute_force_halfspace(points2d, constraints[2])


def test_stalled_clock_fails_submitters_instead_of_hanging(points2d):
    # An injected clock that never advances cannot un-park anything: the
    # wave raised, but submitters to the long-lived loop hung forever.
    import asyncio
    from repro.engine.serving import AsyncExecutor
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=5)
    engine.register_dataset("d", points2d)
    requests = [_request(c) for c in halfspace_queries_with_selectivity(
        points2d, 2, 0.05, seed=97)]
    budget = TenantBudget(ios_per_s=1000.0, burst=20.0, policy="queue")

    def stalled_executor():
        admission = AdmissionController({"t": budget})
        admission.decide("t", 20.0, 100.0)     # drained: both must park
        return AsyncExecutor(engine.executor.core, admission=admission,
                             clock=lambda: 100.0)

    async def submissions(executor):
        await executor.start()
        errors = await asyncio.wait_for(asyncio.gather(
            *[executor.submit(request) for request in requests],
            return_exceptions=True), 3.0)
        assert not executor.running
        with pytest.raises(RuntimeError, match="clock did not advance"):
            await executor.stop()
        return errors

    errors = asyncio.run(submissions(stalled_executor()))
    assert len(errors) == 2
    for error in errors:
        assert isinstance(error, RuntimeError)
        assert "clock did not advance" in str(error)
    with pytest.raises(RuntimeError, match="clock did not advance"):
        asyncio.run(stalled_executor().serve(requests))


def test_scheduler_fault_reaches_every_submitter(points2d):
    # Whatever kills the scheduler fails the requests pending on it, refuses
    # later ones, and still surfaces at stop().
    import asyncio
    from repro.engine.serving import AsyncExecutor

    class Exploding(AdmissionController):
        def decide(self, *args, **kwargs):
            raise ZeroDivisionError("admission blew up")

    engine = QueryEngine(block_size=BLOCK_SIZE, seed=5)
    engine.register_dataset("d", points2d)
    requests = [_request(c) for c in halfspace_queries_with_selectivity(
        points2d, 2, 0.05, seed=101)]
    executor = AsyncExecutor(engine.executor.core, admission=Exploding())

    async def scenario():
        await executor.start()
        errors = await asyncio.wait_for(asyncio.gather(
            *[executor.submit(request) for request in requests],
            return_exceptions=True), 3.0)
        assert not executor.running
        with pytest.raises(RuntimeError, match="not running"):
            await executor.submit(requests[0])
        with pytest.raises(ZeroDivisionError):
            await executor.stop()
        return errors

    errors = asyncio.run(scenario())
    assert [type(error) for error in errors] == [ZeroDivisionError] * 2


def test_check_invariants_bites_on_each_broken_book(points2d):
    # The checker the fixture above runs after every wave and stop()
    # must fail on each kind of broken bookkeeping it claims to check.
    import asyncio
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=5)
    engine.register_dataset("d", points2d)
    constraints = halfspace_queries_with_selectivity(points2d, 2, 0.05,
                                                     seed=103)
    executor = AsyncExecutor(engine.executor.core, max_concurrency=1)
    stray = ("d", "stray")

    def bites(match, damage, repair):
        damage()
        with pytest.raises(AssertionError, match=match):
            executor.check_invariants()
        repair()
        executor.check_invariants()

    async def scenario():
        await executor.start()
        loop = asyncio.get_running_loop()
        waiters = [executor._enqueue(_request(c), 0.0)
                   for c in (constraints[0], constraints[0], constraints[1])]
        executor.check_invariants()
        books = executor._waiters
        bites("an awaited outcome", lambda: books.update({99: waiters[0]}),
              lambda: books.pop(99))
        bites("more requests in flight than max_concurrency",
              lambda: setattr(executor, "_max_concurrency", -1),
              lambda: setattr(executor, "_max_concurrency", 1))
        bites("leader keys", lambda: executor._keys.add(stray),
              lambda: executor._keys.discard(stray))
        bites("a follower waits on no in-flight read",
              lambda: executor._followers.update({stray: []}),
              lambda: executor._followers.pop(stray))
        outcomes = await asyncio.gather(*waiters)
        await executor.stop()
        bites("a stopped scheduler",
              lambda: setattr(executor, "_timer",
                              loop.call_later(60.0, print)),
              lambda: executor._clear())
        return outcomes

    outcomes = asyncio.run(scenario())
    assert [item.outcome for item in outcomes] == ["served"] * 3


# ----------------------------------------------------------------------
# replicated shards
# ----------------------------------------------------------------------
def test_replicated_shard_registration_builds_per_replica(points2d):
    catalog = Catalog(block_size=BLOCK_SIZE, seed=3)
    sharded = catalog.register_sharded_dataset("sh", points2d, num_shards=2,
                                               replicas=2)
    assert sharded.recipe.replicas == 2
    assert sharded.describe()["replicas"] == 2
    records = catalog.build_suite("sh", kinds=["full_scan"])
    assert len(records) == 2 * 2                      # shards x replicas
    assert len(catalog.stores("sh")) == 4
    keys = set(catalog.indexes("sh"))
    assert keys == {"0/full_scan", "0@r1/full_scan",
                    "1/full_scan", "1@r1/full_scan"}
    assert set(catalog.build_records("sh")) == keys
    with pytest.raises(ValueError):
        catalog.register_sharded_dataset("bad", points2d, num_shards=2,
                                         replicas=0)


def test_replicated_answers_match_brute_force(points2d):
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=5)
    engine.register_sharded_dataset("sh", points2d, num_shards=2,
                                    replicas=2)
    constraints = halfspace_queries_with_selectivity(points2d, 5, 0.08,
                                                     seed=37)
    batch = engine.serve_batch("sh", constraints)
    for constraint, answer in zip(constraints, wave_answers(batch)):
        assert {tuple(p) for p in answer.points} == brute_force_halfspace(
            points2d, constraint)


def test_replica_picker_prefers_idle_then_balances():
    picker = LeastLoadedReplicaPicker()

    class FakeShard:
        shard_id = 0

        @staticmethod
        def replicas_for_query():
            return [0, 1]

    first = picker.acquire("d", FakeShard, 10.0)
    second = picker.acquire("d", FakeShard, 10.0)    # 0 busy -> picks 1
    assert {first, second} == {0, 1}
    assert picker.in_flight("d", 0, first) == 10.0
    picker.release("d", 0, first, 10.0)
    picker.release("d", 0, second, 10.0)
    assert picker.in_flight("d", 0, 0) == 0.0
    # Idle ties round-robin on cumulative load instead of hammering 0.
    third = picker.acquire("d", FakeShard, 5.0)
    fourth = picker.acquire("d", FakeShard, 5.0)
    assert {third, fourth} == {0, 1}
    assert picker.snapshot() == {"d/0/0": 5.0, "d/0/1": 5.0}


def test_replicated_serving_attributes_load_to_both_replicas(points2d):
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=5)
    engine.register_sharded_dataset("sh", points2d, num_shards=2,
                                    replicas=2)
    constraints = halfspace_queries_with_selectivity(points2d, 6, 0.05,
                                                     seed=41)
    requests = [_request(c, tenant="t%d" % (i % 2), dataset="sh")
                for i, c in enumerate(constraints)]
    result = engine.serve_async(requests, max_concurrency=4)
    assert result.outcomes() == {"served": len(requests)}
    load = engine.stats.summary()["replica_load"]
    for shard_id in (0, 1):
        replicas_used = {key for key, ios in load.items()
                         if key.startswith("sh/%d/" % shard_id) and ios > 0}
        assert replicas_used == {"sh/%d/0" % shard_id,
                                 "sh/%d/1" % shard_id}, (
            "shard %d load should spread over both replicas" % shard_id)


# ----------------------------------------------------------------------
# mutations through a replicated shard (write-fanout regression)
# ----------------------------------------------------------------------
def test_engine_insert_fans_out_and_defeats_stale_box(points2d):
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=5)
    engine.register_sharded_dataset("sh", points2d, num_shards=2,
                                    replicas=2, kinds=["dynamic"])
    sharded = engine.catalog.sharded("sh")
    last_shard = sharded.shards[-1]
    outlier = (10.0, 0.0)                            # far outside [-1, 1]^2
    result = engine.insert("sh", outlier)
    # Routed by the shard attribute to the top range shard, applied to
    # *both* replicas, so reads stay free to use either copy.
    assert result.shard_id == last_shard.shard_id
    assert result.replicas == 2
    assert last_shard.written
    assert last_shard.replicas_for_query() == [0, 1]
    for replica in last_shard.replicas:
        assert replica.overlay.size == last_shard.size + 1
    # Satisfied by the outlier alone: y <= 5x - 40.  The build-time box
    # would prune the shard; the stale flag must defeat that.
    constraint = LinearConstraint(coeffs=(5.0,), offset=-40.0)
    answer = engine.query("sh", constraint)
    assert tuple(outlier) in {tuple(p) for p in answer.points}
    # Repeated cold queries spread over both replicas: the least-loaded
    # picker's choices stay open after the mutation (no pinning).
    for __ in range(4):
        engine.query("sh", constraint, clear_cache=True)
    load = engine.stats.summary()["replica_load"]
    assert "sh/%d/0" % last_shard.shard_id in load
    assert "sh/%d/1" % last_shard.shard_id in load


def test_fanout_rollback_when_one_replica_vetoes(points2d, monkeypatch):
    # A replica that fails mid-fanout must roll back the copies already
    # written: afterwards every replica is byte-identical to before, and
    # the statistics/skew hooks never saw the failed logical mutation.
    # The sample holds every point of a shard (below capacity), so a
    # stray feed of the aborted write would show as an extra row.
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=5,
                         sample_size=len(points2d))
    engine.register_sharded_dataset("sh", points2d, num_shards=2,
                                    replicas=3, kinds=["dynamic"])
    sharded = engine.catalog.sharded("sh")
    shard = sharded.shards[0]
    target = shard.replicas[0]          # the primary is applied *last*
    boom = RuntimeError("replica out of space")

    def veto(point):
        raise boom

    target.overlay.insert = veto        # the primary's overlay fails
    probe = (float(shard.lows[0]), 0.0)  # routes to shard 0
    stats_before = (target.stats.sample.rows.tolist(), sharded.live_size)
    mutations_before = engine.rebalancer.mutations("sh")
    # Prime the result cache so the rollback's invalidation is visible.
    everything = LinearConstraint(coeffs=(0.0,), offset=1e9)
    engine.query("sh", everything)
    assert engine.query("sh", everything).from_result_cache
    with pytest.raises(RuntimeError, match="replica out of space") as info:
        engine.insert("sh", probe)
    # The aborted attempt's real apply+rollback I/Os ride the exception
    # so async admission can charge them instead of refunding in full.
    assert getattr(info.value, "write_ios_observed", 0) > 0
    # Every replica (the secondaries were written before the failure) was
    # rolled back via the inverse op: identical sizes, no probe point.
    inside_all = LinearConstraint(coeffs=(0.0,), offset=1e9)
    for replica in shard.replicas:
        assert replica.overlay.size == shard.size
        assert probe not in {
            tuple(p) for p in replica.run_query("dynamic", inside_all)[0]}
    # The failed write took none of its once-per-write effects.
    assert (target.stats.sample.rows.tolist(), sharded.live_size) \
        == stats_before
    assert_sample_is_live(shard)
    assert engine.rebalancer.mutations("sh") == mutations_before
    # The shard was not flagged written (the flag waits for the
    # commit), and the rollback flushed the result cache (a concurrent
    # read may have cached a mid-fanout secondary's answer).
    assert not shard.written
    sharded.check_invariants()
    assert not engine.query("sh", everything).from_result_cache
    # The shard still accepts writes afterwards (lock released, no pin).
    del target.overlay.insert
    result = engine.insert("sh", probe)
    assert result.applied and result.replicas == 3
    sharded.check_invariants()
    engine.close()

    # A write that makes a rebuild due: the secondary takes it before
    # the primary fails, and no replica rebuilds for the aborted write,
    # so the copies stay equal block for block and read alike.
    monkeypatch.setattr(overlay_module, "BUFFER_FRACTION", 0.0)
    engine = QueryEngine(block_size=16, seed=5)
    engine.register_sharded_dataset("due", uniform_points(256, seed=6),
                                    num_shards=1, replicas=2)
    sharded = engine.catalog.sharded("due")
    shard = sharded.shards[0]
    shard.replicas[0].overlay.insert = veto
    with pytest.raises(RuntimeError, match="replica out of space"):
        engine.insert("due", (0.25, 0.25))
    assert [replica.overlay.rebuilds for replica in shard.replicas] == [0, 0]
    sharded.check_invariants()
    constraint = LinearConstraint(coeffs=(0.5,), offset=0.0)
    for name in shard.replicas[0].indexes:
        (first, ios, __), (second, again, __) = (
            replica.run_query(name, constraint, clear_cache=True)
            for replica in shard.replicas)
        assert ios.total == again.total
        assert first.tobytes() == second.tobytes()
    # Once the primary takes writes again, both replicas rebuild.
    del shard.replicas[0].overlay.insert
    engine.insert("due", (0.25, 0.25))
    assert [replica.overlay.rebuilds for replica in shard.replicas] == [1, 1]
    sharded.check_invariants()


def test_stale_answer_is_not_cached_past_concurrent_invalidation(points2d):
    # An answer computed before an invalidation must not be written back
    # into the result cache after it: the put is generation-guarded.
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=5)
    engine.register_dataset("d", points2d, kinds=["full_scan"])
    constraint = halfspace_queries_with_selectivity(points2d, 1, 0.1,
                                                    seed=73)[0]
    index = engine.catalog.dataset("d").indexes["full_scan"]
    original_query = index.query

    def racing_query(c):
        points = original_query(c)
        # The invalidation lands after the answer was computed but before
        # the executor caches it — the async interleaving this guards.
        engine.executor.core.invalidate_dataset("d")
        return points

    index.query = racing_query
    try:
        engine.query("d", constraint)
    finally:
        index.query = original_query
    after = engine.query("d", constraint)
    assert not after.from_result_cache        # stale put was dropped
    assert engine.query("d", constraint).from_result_cache  # fresh one lands


def test_delete_of_absent_point_is_noop_even_on_a_replicated_shard(points2d):
    # A delete that would write nothing writes nothing: the documented
    # contract is "returns False if not present".
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=5)
    engine.register_sharded_dataset("sh", points2d, num_shards=2,
                                    replicas=2, kinds=["dynamic"])
    shard = engine.catalog.sharded("sh").shards[0]
    for replica in shard.replicas:
        assert replica.overlay.delete((123.0, 456.0)) is False
        assert replica.overlay.size == shard.size
    # The engine-level route reports the no-op without raising too.
    result = engine.delete("sh", (123.0, 456.0))
    assert result.applied is False
    assert not shard.written


def test_async_serving_after_engine_insert_stays_fresh(points2d):
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=5)
    engine.register_sharded_dataset("sh", points2d, num_shards=2,
                                    replicas=2, kinds=["dynamic"])
    constraint = halfspace_queries_with_selectivity(points2d, 1, 0.9,
                                                    seed=43)[0]
    before = engine.serve_async([_request(constraint, dataset="sh")])
    count_before = before.requests[0].answer.count
    inside = (0.0, -2.0)
    assert constraint.below(inside)
    engine.insert("sh", inside)
    after = engine.serve_async([_request(constraint, dataset="sh")])
    answer = after.requests[0].answer
    assert not answer.from_result_cache              # cache invalidated
    assert tuple(inside) in {tuple(p) for p in answer.points}
    assert answer.count == count_before + 1


# ----------------------------------------------------------------------
# the cost-model ratio: one sample per executed shard plan, no lock
# ----------------------------------------------------------------------
def cost_model_ratios(engine):
    """``engine_cost_model_ratio`` as JSON, by series."""
    histograms = view_to_json(engine.stats.registry.collect())["histograms"]
    return {key: value for key, value in histograms.items()
            if key.startswith("engine_cost_model_ratio")}


def test_concurrent_queries_lose_no_cost_model_sample(points2d):
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=5)
    engine.register_dataset("d", points2d, kinds=["full_scan"])
    constraints = halfspace_queries_with_selectivity(points2d, 40, 0.1,
                                                     seed=53)
    num_threads = 8
    barrier = threading.Barrier(num_threads, timeout=30)

    def hammer(offset):
        barrier.wait()
        for constraint in constraints[offset::num_threads]:
            engine.query("d", constraint, clear_cache=True)

    threads = [threading.Thread(target=hammer, args=(t,))
               for t in range(num_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)     # switch threads as often as possible
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    series, = cost_model_ratios(engine).items()
    assert series[0] == \
        'engine_cost_model_ratio{dataset="d",index="full_scan"}'
    # Every sample counted, and the scan's model is exact: all in the
    # bucket ending at 1.0, none below it.
    assert series[1]["count"] == len(constraints)
    by_bound = {bucket["le"]: bucket["count"]
                for bucket in series[1]["buckets"]}
    assert by_bound[0.9] == 0 and by_bound[1.0] == len(constraints)
    assert "engine_cost_model_ratio_bucket" in render_prometheus(
        engine.stats.registry)


def test_cost_model_ratio_samples_each_executed_shard_plan(points2d):
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=5)
    engine.register_sharded_dataset("sh", points2d, num_shards=4)
    constraints = halfspace_queries_with_selectivity(points2d, 6, 0.3,
                                                     seed=59)
    shard_plans = 0
    for constraint in constraints:
        shard_plans += engine.query("sh", constraint).shards_queried
        assert engine.query("sh", constraint).from_result_cache
    assert shard_plans > len(constraints)
    assert sum(series["count"] for series
               in cost_model_ratios(engine).values()) == shard_plans

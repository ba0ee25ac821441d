"""The asyncio executor: per-request scheduling for multi-tenant serving.

:class:`AsyncExecutor` runs every multi-query workload the engine
serves: an async tenant stream, an HTTP server's requests, and a batch
(:meth:`~repro.engine.engine.QueryEngine.serve_batch` is a wave with no
budgets and one request at a time).  It schedules *per request*, so one
tenant issuing expensive queries does not head-of-line-block the others:

* requests wait in a :class:`~repro.engine.serving.queue.
  PriorityRequestQueue` ordered by (priority, deadline, arrival) —
  **mutations included**: an ``op="insert"``/``"delete"`` request rides
  the same queue and executes through the engine's routed write-fanout
  path (:class:`~repro.engine.writes.WritePath`), so writes obey the
  same priorities, deadlines and budgets as reads;
* before dispatch each request passes **admission control** — a
  token-bucket I/O budget per tenant with queue/reject/degrade policies
  (see :mod:`repro.engine.serving.admission`; an over-budget *write*
  under the degrade policy is rejected — there is no approximate
  insert);
* admitted requests execute on worker threads (up to ``max_concurrency``
  at once) through the *same*
  :class:`~repro.engine.executor.ExecutionCore` a single synchronous
  query uses, so planning, result caching and metrics cannot diverge
  between the two;
* observed I/Os are settled back into the tenant's bucket, and queue
  depth / admission decisions / per-replica load land in
  :class:`~repro.engine.metrics.EngineStats`.

Scheduling (queue pops, admission, settling) runs entirely on the event
loop; only plan execution leaves it.  The clock is injectable so tests
drive budgets deterministically.

There is one scheduler, and no task runs it: a submission schedules one
pop/admit pass for the loop's next turn (so a wave is wholly queued
before the first pop), a worker future's done-callback settles its
request and runs the same pass, and a parked request is a timer.
:meth:`AsyncExecutor.start` binds it to the running event loop, any
number of coroutines (the network front-end's connection handlers)
:meth:`AsyncExecutor.submit` requests to it, sharing one queue, one
admission controller and one concurrency cap, and
:meth:`AsyncExecutor.stop` drains it.  :meth:`AsyncExecutor.serve` is a
*wave* on it — it starts the scheduler if nobody has, enqueues the whole
request sequence under one submission timestamp, gathers the outcomes
in request order and stops only a scheduler it started.  Every request,
read or write, takes the one admit -> dispatch -> settle path
(``_admit_one`` / ``_complete``).  A fault in any pass (an admission
controller that raises, an injected clock that never advances past a
parked request) fails every pending submitter with that exception and
re-raises from :meth:`AsyncExecutor.stop`.
"""

from __future__ import annotations

import asyncio
import time
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import repro.engine.tracing as tracing
from repro.core.kernels import answer_matrix
from repro.engine.executor import (WARM_CACHE_BLOCKS, ExecutedQuery,
                                   ExecutionCore)
from repro.engine.metrics import percentile
from repro.engine.planner import ShardedPlan
from repro.engine.serving.admission import (
    AdmissionController,
    scaled_count_estimate,
)
from repro.engine.serving.queue import (
    PriorityRequestQueue,
    QueuedRequest,
    ServingRequest,
)
from repro.engine.writes import MutationResult
from repro.io.store import IOStats

#: Floor on admission-deferral waits so a drained bucket cannot spin-loop.
_MIN_RETRY_S = 1e-3


@dataclass
class ServedRequest:
    """One request's outcome in an async serving run."""

    request: ServingRequest
    #: "served", "degraded", "rejected", "expired" or "failed".
    outcome: str
    answer: Optional[ExecutedQuery]
    #: Submission-to-completion wall time (what a client experiences).
    turnaround_s: float
    #: Time spent waiting in the queue (turnaround minus execution).
    queue_wait_s: float
    #: How many times admission control parked the request.
    deferrals: int = 0
    #: The exception message when ``outcome`` is "failed".
    error: Optional[str] = None
    #: The applied mutation when the request was an insert/delete
    #: (``answer`` stays None for mutations).
    mutation: Optional[MutationResult] = None


@dataclass(repr=False)
class ServeResult:
    """Outcome of one async serving run, in request order."""

    requests: List[ServedRequest]
    wall_seconds: float

    def __repr__(self) -> str:
        # Short on purpose: asyncio.run formats its finished main task,
        # result included, when it restores the SIGINT handler, and the
        # default repr would print every answer matrix of the wave.
        return "ServeResult(%r, wall_seconds=%.6f)" % (self.outcomes(),
                                                       self.wall_seconds)

    @property
    def total_ios(self) -> int:
        """Block transfers charged across every served request (writes
        included)."""
        return sum(item.answer.total_ios for item in self.requests
                   if item.answer is not None) \
            + sum(item.mutation.ios for item in self.requests
                  if item.mutation is not None)

    def outcomes(self) -> Dict[str, int]:
        """How many requests ended in each outcome."""
        return dict(Counter(item.outcome for item in self.requests))

    def for_tenant(self, tenant: str) -> List[ServedRequest]:
        """The subset of outcomes belonging to one tenant, in order."""
        return [item for item in self.requests
                if item.request.tenant == tenant]

    def turnaround_percentile(self, tenant: Optional[str] = None,
                              fraction: float = 0.95) -> float:
        """Turnaround percentile over (one tenant's) *completed* requests.

        Only requests that produced an answer ("served" / "degraded")
        participate: a rejected or expired request returns near-instantly
        precisely because it was dropped, and mixing those zeros in would
        make a mostly-shed tenant look fast.
        """
        chosen = self.requests if tenant is None else self.for_tenant(tenant)
        ordered = sorted(item.turnaround_s for item in chosen
                         if item.outcome in ("served", "degraded"))
        return percentile(ordered, fraction)


class AsyncExecutor:
    """Serve multi-tenant request streams with per-request scheduling.

    Parameters
    ----------
    core:
        The shared :class:`~repro.engine.executor.ExecutionCore` to run
        plans through (the engine facade passes its executor's core, so
        sync and async traffic share one result cache and one metrics
        sink).
    admission:
        Per-tenant budgets; an empty controller (admit everything) when
        omitted.
    max_concurrency:
        Requests executing at once; the rest wait in the queue.
    clock:
        Monotonic time source for deadlines and bucket refills; tests
        inject synthetic clocks.
    """

    def __init__(self, core: ExecutionCore,
                 admission: Optional[AdmissionController] = None,
                 max_concurrency: int = 8,
                 clock=time.monotonic):
        if max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1, got %r"
                             % max_concurrency)
        self._core = core
        self._admission = admission if admission is not None \
            else AdmissionController()
        self._max_concurrency = max_concurrency
        self._clock = clock
        #: The loop start() bound to (None: stopped), the fault stop()
        #: re-raises, the scheduled pass, the parked requests' timer (and,
        #: set by _clear(), the future a draining stop() awaits).
        self._loop = self._fault = self._pass = self._timer = None
        self._clear()

    @property
    def admission(self) -> AdmissionController:
        """The admission controller (token balances are inspectable)."""
        return self._admission

    @property
    def core(self):
        """The shared execution core (same object as the sync executor's)."""
        return self._core

    def rebind_admission(self, admission: AdmissionController) -> None:
        """Swap the admission controller while the scheduler is stopped.

        A restarted server binds a fresh key set (and therefore fresh
        budgets); swapping budget state out from under a *live*
        scheduler would silently reset every tenant's balance, so that
        raises instead.
        """
        if self.running:
            raise ValueError(
                "cannot rebind the admission controller of a running "
                "executor; stop it first (or reuse executor.admission)")
        self._admission = admission

    # ------------------------------------------------------------------
    # serving: one long-lived scheduler, fed waves or single requests
    # ------------------------------------------------------------------
    async def serve(self, requests: Sequence[ServingRequest],
                    warm_cache: bool = True) -> ServeResult:
        """Serve a request wave; returns outcomes in request order.

        The wave rides the long-lived scheduler: it is started here when
        nobody has (and then stopped again on the way out), every
        request is enqueued under one submission timestamp before the
        scheduler's first pop — so priority/deadline order holds over the
        whole wave — and an over-budget or low-priority tenant's
        requests wait while everyone else's keep flowing.  A scheduler
        fault raises out of this call.
        """
        started = time.perf_counter()
        if not requests:
            return ServeResult(requests=[], wall_seconds=0.0)
        warmed = sorted({request.dataset for request in requests}) \
            if warm_cache else []
        with self._core.warm_stores(warmed, WARM_CACHE_BLOCKS):
            owned = not self.running
            await self.start()
            try:
                submitted = self._clock()
                outcomes = await asyncio.gather(*[
                    self._enqueue(request, submitted)
                    for request in requests])
            finally:
                if owned:
                    await self.stop()
        return ServeResult(requests=outcomes,
                           wall_seconds=time.perf_counter() - started)

    @property
    def running(self) -> bool:
        """True from :meth:`start` until :meth:`stop` or a fault."""
        return self._loop is not None and self._fault is None

    async def start(self) -> None:
        """Bind the scheduler to the running event loop.

        Idempotent while running.  The scheduler owns no buffer-pool
        warming (a server warms stores for its whole lifetime, a
        :meth:`serve` wave for its own).
        """
        if self.running:
            return
        self._clear()
        self._loop = asyncio.get_running_loop()
        self._fault = None

    def _clear(self) -> None:
        """Forget every request and handle: a fresh or stopped scheduler."""
        for handle in (self._pass, self._timer):
            if handle is not None:
                handle.cancel()
        self._pass = self._timer = self._drained = None
        self._draining = False
        self._seq = 0
        self._queue = PriorityRequestQueue()
        #: Worker futures currently executing, with their queue items.
        self._in_flight: Dict[asyncio.Future, QueuedRequest] = {}
        #: The (dataset, constraint) keys currently executing (leaders).
        self._keys = set()
        #: Identical requests attached to an in-flight leader: later
        #: arrivals wait for the leader's answer instead of re-executing
        #: (and without re-charging their tenant's budget).
        self._followers: Dict[Tuple, List[QueuedRequest]] = {}
        #: One future per request not yet handed back, keyed by seq.
        self._waiters: Dict[int, asyncio.Future] = {}

    async def submit(self, request: ServingRequest) -> ServedRequest:
        """Enqueue one request on the scheduler and await its outcome.

        Any number of coroutines may submit concurrently; their requests
        share the priority queue, the admission controller's budgets,
        the follower dedup and the concurrency cap exactly as a
        :meth:`serve` wave does.  Raises :class:`RuntimeError` when the
        scheduler is not running or is draining, and whatever killed the
        scheduler when it dies with this request pending.
        """
        return await self._enqueue(request, self._clock())

    def _enqueue(self, request: ServingRequest,
                 now: float) -> asyncio.Future:
        """Queue one request submitted at ``now``; its outcome's future."""
        if not self.running:
            raise RuntimeError(
                "the long-lived scheduler is not running; await start() "
                "before submitting requests")
        if self._draining:
            raise RuntimeError(
                "the executor is draining; new requests are refused")
        item = QueuedRequest(request=request, seq=self._seq, enqueued_at=now)
        self._seq += 1
        item.span, item.trace, item.owns_trace = \
            self._open_request_span(request)
        waiter = self._loop.create_future()
        self._waiters[item.seq] = waiter
        self._queue.push(item)
        if self._pass is None:
            self._pass = self._loop.call_soon(self._pump, None)
        return waiter

    async def stop(self) -> None:
        """Drain the scheduler, then shut it down: every queued and
        in-flight request finishes and reaches its submitter, new ones
        are refused.  A fault that killed the scheduler re-raises here."""
        if self._loop is None:
            return
        self._draining = True
        try:
            if self._queue or self._in_flight:
                self._drained = self._loop.create_future()
                await self._drained
            if self._fault is not None:
                raise self._fault
        finally:        # only a cancelled stop() leaves a request behind
            self._die(RuntimeError("the executor was stopped"))
            self._loop = self._fault = None

    def check_invariants(self) -> None:
        """Raise AssertionError unless the scheduler's books agree (its
        own state is all it reads: no I/O)."""
        in_flight = list(self._in_flight.values())
        held = [*self._queue, *in_flight, *(
            item for items in self._followers.values() for item in items)]
        reads = [(item.request.dataset, item.request.constraint)
                 for item in in_flight if not item.request.is_mutation]
        for holds, message in (
                (sorted(item.seq for item in held) == sorted(self._waiters),
                 "an awaited outcome is not one queued, in-flight or "
                 "follower request's"),
                (len(in_flight) <= self._max_concurrency,
                 "more requests in flight than max_concurrency"),
                (Counter(reads) == Counter(self._keys),
                 "leader keys are not the in-flight reads' keys"),
                (self._followers.keys() <= self._keys,
                 "a follower waits on no in-flight read"),
                (self.running or not (held or self._pass or self._timer),
                 "a stopped scheduler holds a request or a handle")):
            if not holds:
                raise AssertionError("%s (awaited %r, leader keys %r)" % (
                    message, sorted(self._waiters), self._keys))

    def estimate(self, request: ServingRequest) -> ExecutedQuery:
        """The degraded sample answer of the request's plan, outside the
        scheduler.

        The SSE streaming path sends this (estimate + confidence
        interval, zero I/Os) before the exact answer arrives, so it must
        not wait in the queue and must not land in the metrics as a
        second served query — hence ``record=False``.
        """
        plan = self._core.planner.plan(request.dataset, request.constraint)
        return self._degraded_answer(request, plan, record=False)

    def _pump(self, done: Optional[asyncio.Future]) -> None:
        """One pass: settle ``done`` (as a worker future's done-callback),
        pop and admit up to the concurrency cap, then time the parked
        requests' wake-up — or end a drain once nothing is left."""
        self._pass = None
        queue, in_flight = self._queue, self._in_flight
        try:
            item = in_flight.pop(done, None)    # None: not settling one
            if item is not None:
                for seq, outcome in self._complete(item, done):
                    self._resolve(seq, outcome)
            if queue:
                self._core.stats.note_queue_depth(len(queue))
            while len(in_flight) < self._max_concurrency:
                now = self._clock()
                item = queue.pop_ready(now)
                if item is None:
                    break
                outcome = self._admit_one(item, now)
                if outcome is not None:
                    self._resolve(item.seq, outcome)
            if self._timer is not None:
                self._timer.cancel()
                self._timer = None
            if queue and len(in_flight) < self._max_concurrency:
                # Everything queued is parked, and may become runnable
                # before any in-flight request completes.
                now = self._clock()
                delay = queue.next_ready_delay(now)
                self._timer = self._loop.call_later(delay, self._wake, now,
                                                    delay)
            elif self._drained is not None and not queue and not in_flight:
                self._drained.set_result(None)
                self._drained = None
        except Exception as exc:
            self._die(exc)

    def _wake(self, slept_from: float, delay: float) -> None:
        """The parked requests' timer: the first of them may run now."""
        self._timer = None
        if delay and self._clock() <= slept_from:   # a stalled clock
            self._die(RuntimeError(
                "AsyncExecutor clock did not advance across a %.3fs "
                "scheduler sleep; an injected clock must move forward for "
                "parked requests to become runnable" % delay))
        else:
            self._pump(None)

    def _die(self, error: Exception) -> None:
        """Fail every pending outcome (a draining stop() too), clear."""
        self._fault = error
        for waiter in (*self._waiters.values(), self._drained):
            if waiter is not None and not waiter.done():
                waiter.set_exception(error)
        self._clear()

    def _resolve(self, seq: int, outcome: ServedRequest) -> None:
        """Hand one finished request back to its awaiting submitter."""
        waiter = self._waiters.pop(seq)
        if not waiter.done():  # a cancelled submitter stopped listening
            waiter.set_result(outcome)

    # ------------------------------------------------------------------
    # tracing seams
    # ------------------------------------------------------------------
    def _open_request_span(self, request: ServingRequest):
        """The request's span: a child of the caller's trace, or a new one.

        The HTTP front-end opens a trace per connection-level request and
        activates its root before awaiting :meth:`submit`, so when a trace
        is already current the request span nests under it (the HTTP layer
        finishes that trace).  With no surrounding trace (a :meth:`serve`
        wave) each request gets its own, which the scheduler finishes at
        completion.
        Returns ``(span, trace, owns_trace)``; everything degrades to the
        null singletons when tracing is off.
        """
        parent = tracing.current_span()
        if parent.enabled:
            span = parent.child("serving.request", tenant=request.tenant,
                                dataset=request.dataset, op=request.op,
                                priority=request.priority)
            return span, parent.trace, False
        trace = self._core.tracer.start_trace(
            "serving.request", tenant=request.tenant,
            dataset=request.dataset, op=request.op,
            priority=request.priority)
        return trace.root, trace, True

    def _run_traced(self, span, fn, *args):
        """Run ``fn`` on a worker thread under the request's span.

        ``loop.run_in_executor`` does not copy contextvars into the
        worker, so the span is handed across the thread seam explicitly —
        the executor/store spans opened inside ``fn`` then nest under the
        right request.
        """
        with tracing.activate(span):
            return fn(*args)

    def _finish_span(self, item: QueuedRequest, outcome: str,
                     **attrs) -> None:
        """Stamp the request span with its outcome and close owned traces.

        The ``outcome`` attribute lands on the span (the trace *root* for
        scheduler-owned traces), which is what the tracer's slow-query
        log keys degraded-request retention off.
        """
        span = item.span
        if span.enabled:
            span.set("outcome", outcome)
            if item.deferrals:
                span.set("deferrals", item.deferrals)
            if attrs:
                span.set_many(attrs)
            span.finish()
        if item.owns_trace and item.trace is not None:
            item.trace.finish()

    def _note_decision(self, item: QueuedRequest, decision: str,
                       **attrs) -> None:
        """Record one admission attempt as a child of the request span.

        Every pop through the scheduler leaves one ``admission`` span
        carrying the verdict *and* the tenant's budget state at decision
        time, so a trace explains why a request was parked, shed or
        degraded instead of just showing the wait.
        """
        span = item.span
        if not span.enabled:
            return
        child = span.child("admission", decision=decision,
                           attempt=item.deferrals, **attrs)
        child.set("budget", self._admission.describe(item.request.tenant))
        child.finish()

    # ------------------------------------------------------------------
    # scheduler steps (all on the event loop)
    # ------------------------------------------------------------------
    def _admit_one(self, item: QueuedRequest,
                   now: float) -> Optional[ServedRequest]:
        """Decide one popped request: dispatch, park, or finish it now.

        Returns a terminal :class:`ServedRequest` (cache hit, rejection,
        degraded answer, expiry, pricing failure) or None when the
        request was dispatched to a worker, attached to an identical
        in-flight request, or parked back into the queue.  Reads and
        writes share the path; the result cache, follower dedup,
        degraded answer and re-plan after a deferral are its read-only
        branches — two identical writes are two writes, and there is no
        approximate insert.
        """
        request = item.request
        span = item.span
        if now > item.deadline_at:
            self._core.stats.note_admission("expired")
            self._note_decision(item, "expired")
            return self._finished(item, "expired", None, now)
        cache_key = None
        if not request.is_mutation:
            cache_key = (request.dataset, request.constraint)
            cached = self._core.result_cache_get(cache_key,
                                                 tenant=request.tenant)
            if cached is not None:
                self._note_decision(item, "cache_hit")
                return self._finished(item, "served", cached, now)
            if cache_key in self._keys:
                # An identical constraint is already executing: follow it
                # and share its answer instead of paying the I/O (and the
                # budget charge) again.
                self._note_decision(item, "follow")
                self._followers.setdefault(cache_key, []).append(item)
                return None

        # Price the request in estimated block I/Os: the write path's
        # fan-out estimate, or the plan's.  A read is planned once and
        # the plan kept on the queue item: admission deferrals would
        # otherwise re-run the planner (sample scans over every relevant
        # shard) on the event loop at every retry.  A pricing failure
        # (unknown dataset, wrong dimension) fails this one request,
        # never the scheduler.
        try:
            if request.is_mutation:
                estimate = self._core.writes.estimate_ios(request.dataset)
            else:
                if item.plan is None:
                    with tracing.activate(span):
                        item.plan = self._core.planner.plan(
                            request.dataset, request.constraint)
                estimate = item.plan.estimated_ios
        except Exception as exc:
            self._note_decision(item, "failed")
            return self._failed(item, exc, now)
        decision = self._admission.decide(request.tenant, estimate, now,
                                          write=request.is_mutation)
        estimated_ios = round(estimate, 2)
        if decision.action == "admit":
            self._core.stats.note_admission("admit")
            self._note_decision(item, "admit", estimated_ios=estimated_ios)
            # The bucket was just debited *this* estimate; settle must
            # use the same figure or every deferral-admit cycle leaks the
            # difference.
            item.dispatched_at = now
            item.admitted_estimate = estimate
            if request.is_mutation:
                work = (self._core.run_write, request.dataset, request.op,
                        request.point)
            else:
                plan = item.plan
                if item.deferrals:
                    # The cached plan only fed admission estimates while
                    # the request was parked; the world may have moved
                    # since (a mutation re-pins replicas and disqualifies
                    # static indexes), so execute a freshly-made plan.  A
                    # failure here must refund the bucket debit and fail
                    # only this request.
                    try:
                        with tracing.activate(span):
                            plan = self._core.planner.plan(
                                request.dataset, request.constraint)
                    except Exception as exc:
                        self._admission.settle(request.tenant, estimate, 0.0)
                        return self._failed(item, exc, now)
                work = (self._core.dispatch, request.dataset,
                        request.constraint, plan, cache_key, False,
                        request.tenant)
                self._keys.add(cache_key)
            future = self._loop.run_in_executor(None, self._run_traced,
                                                span, *work)
            future.add_done_callback(self._pump)
            self._in_flight[future] = item
            return None
        if decision.action == "degrade":
            # Reads only: admission turns an over-budget write under the
            # degrade policy into a reject.
            self._core.stats.note_admission("degrade")
            self._note_decision(item, "degrade", estimated_ios=estimated_ios)
            with tracing.activate(span):
                answer = self._degraded_answer(request, item.plan)
            return self._finished(item, "degraded", answer, now)
        if decision.action != "queue":
            self._core.stats.note_admission("reject")
            self._note_decision(item, "reject", estimated_ios=estimated_ios)
            return self._finished(item, "rejected", None, now)
        not_before = now + max(decision.retry_after_s, _MIN_RETRY_S)
        if not_before > item.deadline_at:
            # The budget cannot clear before the deadline: expire now
            # instead of parking a request that is already dead (one
            # admission outcome per attempt — this is an expiry, not a
            # deferral).
            self._core.stats.note_admission("expired")
            self._note_decision(item, "expired", estimated_ios=estimated_ios)
            return self._finished(item, "expired", None, now)
        self._core.stats.note_admission("queue")
        self._note_decision(item, "queue",
                            estimated_ios=estimated_ios,
                            retry_after_s=round(decision.retry_after_s, 4))
        item.not_before = not_before
        item.deferrals += 1
        self._queue.push(item)
        return None

    def _complete(self, item: QueuedRequest, future: asyncio.Future
                  ) -> List[Tuple[int, ServedRequest]]:
        """Settle one finished worker future (and a read's followers)
        into (seq, outcome) pairs."""
        now = self._clock()
        request = item.request
        cache_key = None if request.is_mutation else \
            (request.dataset, request.constraint)
        self._keys.discard(cache_key)
        try:
            result = future.result()
        except Exception as exc:
            # Settle against what the aborted attempt really spent: a
            # failed read observed nothing (a full refund), while the
            # write path annotates the exception with its apply+rollback
            # I/Os, so a tenant retrying failing writes still pays for
            # the block traffic they cause instead of looping for free.
            # Fail this request alone, and send its followers back
            # through the queue to execute independently.
            observed = float(getattr(exc, "write_ios_observed", 0.0))
            self._admission.settle(request.tenant, item.admitted_estimate,
                                   observed)
            for follower in self._followers.pop(cache_key, ()):
                self._queue.push(follower)
            return [(item.seq, self._failed(item, exc, now))]
        served = ServedRequest(
            request=request, outcome="served", answer=None,
            turnaround_s=now - item.enqueued_at,
            queue_wait_s=item.dispatched_at - item.enqueued_at,
            deferrals=item.deferrals)
        if request.is_mutation:
            served.mutation = result
            observed = float(result.ios)
            self._finish_span(item, "served", ios=result.ios,
                              applied=result.applied)
        else:
            served.answer = result
            # Settle against the cold cost, what the estimate the bucket
            # was charged with predicts.
            observed = result.ios.total + result.ios.cache_hits
            self._finish_span(item, "served", ios=result.ios.total,
                              reported=result.count)
        self._admission.settle(request.tenant, item.admitted_estimate,
                               observed)
        results = [(item.seq, served)]
        for follower in self._followers.pop(cache_key, ()):
            if now > follower.deadline_at:
                # The leader outlived this follower's deadline: the
                # contract says expired requests are dropped, even though
                # an answer happens to be at hand.
                self._core.stats.note_admission("expired")
                results.append((follower.seq,
                                self._finished(follower, "expired", None,
                                               now)))
                continue
            shared = self._core.share_answer(result,
                                             follower.request.tenant)
            self._finish_span(follower, "served", follower=True)
            results.append((follower.seq, ServedRequest(
                request=follower.request, outcome="served", answer=shared,
                turnaround_s=now - follower.enqueued_at,
                queue_wait_s=now - follower.enqueued_at,
                deferrals=follower.deferrals)))
        return results

    def _finished(self, item: QueuedRequest, outcome: str,
                  answer: Optional[ExecutedQuery],
                  now: float) -> ServedRequest:
        waited = now - item.enqueued_at
        self._finish_span(item, outcome)
        return ServedRequest(request=item.request, outcome=outcome,
                             answer=answer, turnaround_s=waited,
                             queue_wait_s=waited, deferrals=item.deferrals)

    def _failed(self, item: QueuedRequest, exc: Exception,
                now: float) -> ServedRequest:
        """One request's planning/execution error, isolated to it."""
        message = "%s: %s" % (type(exc).__name__, exc)
        item.span.set("error", message)
        outcome = self._finished(item, "failed", None, now)
        outcome.error = message
        return outcome

    def _degraded_answer(self, request: ServingRequest, plan: ShardedPlan,
                         record: bool = True) -> ExecutedQuery:
        """A zero-I/O approximate answer from the samples of the plan's
        shards — the rows their selectivity models estimate from.

        The samples' points are real stored points, kept by the
        constraint's ``below_many`` (the rule every index and the
        selectivity estimate decide membership by), so the answer is a
        *subset* of the exact one — marked ``degraded``
        and kept out of the result cache so it can never masquerade as an
        exact answer.  The answer carries its ``sample_rate`` (the rows
        scanned over those shards' live points) plus the plan's expected
        output with an interval, so callers can turn the subset into a
        qualified count instead of mistaking it for the whole truth.

        The interval is the sum of the shards' conformal bands around
        their plans' expected outputs once the dataset's calibration
        window is warm — calibrated on the residuals of the same shard
        models whose estimates it wraps — and the sum of the shards'
        normal approximations (:func:`scaled_count_estimate`) only
        before then; ``interval_source`` says which (``"conformal"`` /
        ``"normal_fallback"``) on every degraded answer.  This is the
        one site a band is made: a plan carries its point estimate
        alone.
        """
        with tracing.span("serving.degraded_sample",
                          dataset=request.dataset) as sample_span:
            plan, items = self._core.lower(request.dataset,
                                           request.constraint, plan)
            dimension = self._core.catalog.sharded(request.dataset).dimension
            conformal = self._core.stats.conformal
            hits, sample_size, population, low, high = [], 0, 0, 0, 0
            bands = []
            for item in items:
                replica = item.shard.planning_dataset()
                sample = replica.stats.sample.rows
                hits.append(sample.compress(
                    request.constraint.below_many(sample), axis=0))
                size = max(int(replica.live_size), len(sample))
                __, band = scaled_count_estimate(len(hits[-1]), len(sample),
                                                 size)
                sample_size += len(sample)
                population += size
                low, high = low + band[0], high + band[1]
                # Residuals are calibrated per *dataset* (its shards feed
                # one window through note_estimation), so every shard is
                # banded by the dataset's key.
                bands.append(conformal.interval(
                    request.dataset, item.plan.expected_output,
                    population=replica.live_size))
            count = sum(map(len, hits))
            source = "normal_fallback"
            if bands and None not in bands:
                # The sample hits are real stored points, so the true
                # count can never sit below them — the conformal band is
                # clipped to the same invariant the fallback obeys.
                low = max(sum(band[0] for band in bands), count)
                high = max(sum(band[1] for band in bands), low)
                source = "conformal"
            estimate = min(max(plan.expected_output, low), high)
            if sample_span.enabled:
                sample_span.set_many({
                    "sample_size": sample_size, "hits": count,
                    "estimated_count": estimate,
                    "interval_source": source})
        answer = ExecutedQuery(
            dataset=request.dataset, index_name="degraded_sample",
            points=answer_matrix(hits, dimension), ios=IOStats(),
            latency_s=0.0, estimated_ios=0.0, tenant=request.tenant,
            degraded=True,
            sample_rate=(sample_size / population if population else 1.0),
            estimated_count=estimate, count_interval=(low, high),
            interval_source=source)
        if record:
            self._core.stats.record(answer)
        return answer

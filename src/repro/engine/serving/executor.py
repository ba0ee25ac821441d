"""The asyncio executor: per-request scheduling for multi-tenant serving.

:class:`AsyncExecutor` is the asyncio twin of
:class:`~repro.engine.executor.BatchExecutor`.  The batch path serializes
each dataset's requests in arrival order, so one tenant issuing expensive
queries head-of-line-blocks every other tenant of that dataset.  This
executor instead schedules *per request*:

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
  :class:`~repro.engine.executor.ExecutionCore` the synchronous path
  uses, so planning, calibration feedback, result caching and metrics
  cannot diverge between the two;
* observed I/Os are settled back into the tenant's bucket, and queue
  depth / admission decisions / per-replica load land in
  :class:`~repro.engine.metrics.EngineStats`.

Scheduling (queue pops, admission, settling) runs entirely on the event
loop; only plan execution leaves it.  The clock is injectable so tests
drive budgets deterministically.

The executor serves in two modes sharing the same scheduler steps:

* :meth:`AsyncExecutor.serve` — the original *wave* mode: one call takes
  a whole request sequence, runs it to completion and returns the
  outcomes in request order;
* the *long-lived* mode — :meth:`AsyncExecutor.start` spawns a
  persistent scheduler task on the running event loop, after which any
  number of concurrently-executing coroutines (the network front-end's
  connection handlers) :meth:`AsyncExecutor.submit` single requests and
  await their outcomes, all sharing one queue, one admission controller
  and one concurrency cap.  :meth:`AsyncExecutor.stop` drains: queued
  and in-flight requests finish, new submissions are refused.
"""

from __future__ import annotations

import asyncio
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import repro.engine.tracing as tracing
from repro.engine.executor import ExecutedQuery, ExecutionCore, constraint_key
from repro.engine.metrics import percentile
from repro.engine.serving.admission import (
    AdmissionController,
    scaled_count_estimate,
)
from repro.engine.sharding import sample_hits
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
class _RunState:
    """Mutable scheduling state of one :meth:`AsyncExecutor.serve` run."""

    #: Worker futures currently executing, with their queue items.
    in_flight: Dict[asyncio.Future, QueuedRequest] = field(
        default_factory=dict)
    #: The (dataset, constraint) keys currently executing (leaders).
    keys: Set[Tuple] = field(default_factory=set)
    #: Identical requests attached to an in-flight leader: later arrivals
    #: wait for the leader's answer instead of re-executing (and without
    #: re-charging their tenant's budget) — the async mirror of the batch
    #: path's constraint dedup.
    followers: Dict[Tuple, List[QueuedRequest]] = field(default_factory=dict)


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


@dataclass
class ServeResult:
    """Outcome of one async serving run, in request order."""

    requests: List[ServedRequest]
    wall_seconds: float

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
    warm_cache_blocks:
        Buffer-pool size applied to the touched datasets' stores for the
        duration of a :meth:`serve` run (original sizes are restored).
    clock:
        Monotonic time source for deadlines and bucket refills; tests
        inject synthetic clocks.
    """

    def __init__(self, core: ExecutionCore,
                 admission: Optional[AdmissionController] = None,
                 max_concurrency: int = 8,
                 warm_cache_blocks: int = 64,
                 clock=time.monotonic):
        if max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1, got %r"
                             % max_concurrency)
        self._core = core
        self._admission = admission if admission is not None \
            else AdmissionController()
        self._max_concurrency = max_concurrency
        self._warm_cache_blocks = warm_cache_blocks
        self._clock = clock
        # Long-lived mode state (None until start() is awaited).
        self._live_queue: Optional[PriorityRequestQueue] = None
        self._live_state: Optional[_RunState] = None
        self._live_task: Optional[asyncio.Task] = None
        self._live_futures: Dict[int, asyncio.Future] = {}
        self._live_seq = 0
        self._wakeup: Optional[asyncio.Event] = None
        self._draining = False

    @property
    def admission(self) -> AdmissionController:
        """The admission controller (token balances are inspectable)."""
        return self._admission

    @property
    def stats(self):
        """The shared metrics sink (same object as the sync executor's)."""
        return self._core.stats

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

    @property
    def warm_cache_blocks(self) -> int:
        """Buffer-pool size the serving paths warm touched stores to."""
        return self._warm_cache_blocks

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    async def serve(self, requests: Sequence[ServingRequest],
                    warm_cache: bool = True) -> ServeResult:
        """Serve a request stream; returns outcomes in request order.

        The scheduler loop pops the best runnable request, applies its
        tenant's admission policy, and dispatches admitted work to worker
        threads — so an over-budget or low-priority tenant's requests wait
        while everyone else's keep flowing.
        """
        started = time.perf_counter()
        if not requests:
            return ServeResult(requests=[], wall_seconds=0.0)
        queue = PriorityRequestQueue()
        submitted = self._clock()
        for seq, request in enumerate(requests):
            item = QueuedRequest(request=request, seq=seq,
                                 enqueued_at=submitted)
            item.span, item.trace, item.owns_trace = \
                self._open_request_span(request)
            queue.push(item)
        outcomes: List[Optional[ServedRequest]] = [None] * len(requests)
        state = _RunState()
        in_flight = state.in_flight
        loop = asyncio.get_running_loop()

        warmed = sorted({request.dataset for request in requests}) \
            if warm_cache else []
        with self._core.warm_stores(warmed, self._warm_cache_blocks):
            while queue or in_flight:
                self._core.stats.note_queue_depth(len(queue))
                while len(in_flight) < self._max_concurrency:
                    now = self._clock()
                    item = queue.pop_ready(now)
                    if item is None:
                        break
                    outcome = self._admit_one(loop, queue, state, item, now)
                    if outcome is not None:
                        outcomes[item.seq] = outcome
                if in_flight:
                    timeout = None
                    if len(in_flight) < self._max_concurrency:
                        # A parked request may become runnable before any
                        # in-flight query completes.
                        timeout = queue.next_ready_delay(self._clock())
                    done, __ = await asyncio.wait(
                        set(in_flight), timeout=timeout,
                        return_when=asyncio.FIRST_COMPLETED)
                    for future in done:
                        item = in_flight.pop(future)
                        for seq, outcome in self._complete(state, item,
                                                           future, queue):
                            outcomes[seq] = outcome
                elif queue:
                    before_sleep = self._clock()
                    delay = queue.next_ready_delay(before_sleep)
                    if delay:
                        await asyncio.sleep(delay)
                        if self._clock() <= before_sleep:
                            # An injected clock that does not advance with
                            # the event loop would park this request (and
                            # the scheduler) forever; fail loudly instead
                            # of livelocking.
                            raise RuntimeError(
                                "AsyncExecutor clock did not advance "
                                "across a %.3fs scheduler sleep; an "
                                "injected clock must move forward for "
                                "parked requests to become runnable"
                                % delay)
        return ServeResult(
            requests=[outcome for outcome in outcomes if outcome is not None],
            wall_seconds=time.perf_counter() - started)

    # ------------------------------------------------------------------
    # long-lived mode: a persistent scheduler fed one request at a time
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        """True while the long-lived scheduler task is alive."""
        return self._live_task is not None and not self._live_task.done()

    async def start(self) -> None:
        """Spawn the persistent scheduler on the running event loop.

        Idempotent while running.  Unlike :meth:`serve`, the long-lived
        scheduler owns no buffer-pool warming (a server warms stores for
        its whole lifetime, not per wave) and never exits on an empty
        queue — it sleeps until :meth:`submit` wakes it, until
        :meth:`stop` drains it.
        """
        if self.running:
            return
        self._live_queue = PriorityRequestQueue()
        self._live_state = _RunState()
        self._live_futures = {}
        self._live_seq = 0
        self._draining = False
        self._wakeup = asyncio.Event()
        self._live_task = asyncio.get_running_loop().create_task(
            self._run_live())

    async def submit(self, request: ServingRequest) -> ServedRequest:
        """Enqueue one request on the persistent scheduler and await it.

        Any number of coroutines may submit concurrently; their requests
        share the priority queue, the admission controller's budgets,
        the follower dedup and the concurrency cap exactly as a
        :meth:`serve` wave would.  Raises :class:`RuntimeError` when the
        scheduler is not running or is draining.
        """
        if not self.running:
            raise RuntimeError(
                "the long-lived scheduler is not running; await start() "
                "before submitting requests")
        if self._draining:
            raise RuntimeError(
                "the executor is draining; new requests are refused")
        seq = self._live_seq
        self._live_seq += 1
        future = asyncio.get_running_loop().create_future()
        self._live_futures[seq] = future
        item = QueuedRequest(request=request, seq=seq,
                             enqueued_at=self._clock())
        item.span, item.trace, item.owns_trace = \
            self._open_request_span(request)
        self._live_queue.push(item)
        self._wakeup.set()
        try:
            return await future
        finally:
            self._live_futures.pop(seq, None)

    async def stop(self, drain: bool = True) -> None:
        """Shut the persistent scheduler down.

        With ``drain=True`` (the default) every queued and in-flight
        request finishes first — submitters awaiting :meth:`submit` all
        get their outcomes — and only new submissions are refused.  With
        ``drain=False`` the scheduler task is cancelled and still-pending
        submitters receive a :class:`RuntimeError`.
        """
        if self._live_task is None:
            return
        self._draining = True
        if self._wakeup is not None:
            self._wakeup.set()
        if not drain:
            self._live_task.cancel()
        try:
            await self._live_task
        except asyncio.CancelledError:
            pass
        finally:
            for future in self._live_futures.values():
                if not future.done():
                    future.set_exception(RuntimeError(
                        "the executor was stopped without draining"))
            self._live_task = None

    def estimate(self, request: ServingRequest) -> ExecutedQuery:
        """The degraded sample answer, outside the scheduler.

        The SSE streaming path sends this (estimate + confidence
        interval, zero I/Os) before the exact answer arrives, so it must
        not wait in the queue and must not land in the metrics as a
        second served query — hence ``record=False``.
        """
        return self._degraded_answer(request, record=False)

    async def _run_live(self) -> None:
        """The persistent scheduler loop (long-lived twin of serve())."""
        queue = self._live_queue
        state = self._live_state
        in_flight = state.in_flight
        loop = asyncio.get_running_loop()
        while True:
            if queue:
                self._core.stats.note_queue_depth(len(queue))
            while len(in_flight) < self._max_concurrency:
                now = self._clock()
                item = queue.pop_ready(now)
                if item is None:
                    break
                outcome = self._admit_one(loop, queue, state, item, now)
                if outcome is not None:
                    self._resolve_live(item.seq, outcome)
            if self._draining and not queue and not in_flight:
                return
            # Clear before computing the timeout: a submit() that lands
            # after the clear re-sets the event, and one that landed
            # before is already visible in the queue (push precedes set),
            # so next_ready_delay() returns 0 — no wake-up can be lost.
            self._wakeup.clear()
            timeout = None
            if len(in_flight) < self._max_concurrency:
                timeout = queue.next_ready_delay(self._clock())
            waker = asyncio.ensure_future(self._wakeup.wait())
            try:
                done, __ = await asyncio.wait(
                    set(in_flight) | {waker}, timeout=timeout,
                    return_when=asyncio.FIRST_COMPLETED)
            finally:
                if not waker.done():
                    waker.cancel()
            for future in done:
                if future is waker:
                    continue
                item = in_flight.pop(future)
                for seq, outcome in self._complete(state, item, future,
                                                   queue):
                    self._resolve_live(seq, outcome)

    def _resolve_live(self, seq: int, outcome: ServedRequest) -> None:
        """Hand one finished request back to its awaiting submitter."""
        future = self._live_futures.get(seq)
        if future is not None and not future.done():
            future.set_result(outcome)

    # ------------------------------------------------------------------
    # tracing seams
    # ------------------------------------------------------------------
    def _open_request_span(self, request: ServingRequest):
        """The request's span: a child of the caller's trace, or a new one.

        The HTTP front-end opens a trace per connection-level request and
        activates its root before awaiting :meth:`submit`, so when a trace
        is already current the request span nests under it (the HTTP layer
        finishes that trace).  Wave mode has no surrounding trace: each
        request gets its own, which the scheduler finishes at completion.
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
        if span is not None and getattr(span, "enabled", False):
            span.set("outcome", outcome)
            if item.deferrals:
                span.set("deferrals", item.deferrals)
            if attrs:
                span.set_many(attrs)
            span.finish()
        if item.owns_trace and item.trace is not None:
            item.trace.finish()

    def _note_decision(self, span, item: QueuedRequest, decision: str,
                       **attrs) -> None:
        """Record one admission attempt as a child of the request span.

        Every pop through the scheduler leaves one ``admission`` span
        carrying the verdict *and* the tenant's budget state at decision
        time, so a trace explains why a request was parked, shed or
        degraded instead of just showing the wait.
        """
        if not getattr(span, "enabled", False):
            return
        child = span.child("admission", decision=decision,
                           attempt=item.deferrals, **attrs)
        child.set("budget", self._admission.describe(item.request.tenant))
        child.finish()

    # ------------------------------------------------------------------
    # scheduler steps (all on the event loop)
    # ------------------------------------------------------------------
    def _admit_one(self, loop, queue: PriorityRequestQueue,
                   state: _RunState, item: QueuedRequest,
                   now: float) -> Optional[ServedRequest]:
        """Decide one popped request: dispatch, park, or finish it now.

        Returns a terminal :class:`ServedRequest` (cache hit, rejection,
        degraded answer, expiry) or None when the request was dispatched
        to a worker, attached to an identical in-flight request, or
        parked back into the queue.
        """
        request = item.request
        span = item.span if item.span is not None else tracing.NULL_SPAN
        if now > item.deadline_at:
            self._core.stats.note_admission("expired")
            self._note_decision(span, item, "expired")
            return self._finished(item, "expired", None, now)
        if request.is_mutation:
            return self._admit_mutation(loop, queue, state, item, now)

        cache_key = (request.dataset, constraint_key(request.constraint))
        cached = self._core.result_cache_get(cache_key,
                                             tenant=request.tenant)
        if cached is not None:
            self._note_decision(span, item, "cache_hit")
            return self._finished(item, "served", cached, now)
        if cache_key in state.keys:
            # An identical constraint is already executing: follow it and
            # share its answer instead of paying the I/O (and the budget
            # charge) again.
            self._note_decision(span, item, "follow")
            state.followers.setdefault(cache_key, []).append(item)
            return None

        # Plan once per request and keep it on the queue item: admission
        # deferrals would otherwise re-run the planner (sample scans over
        # every relevant shard) on the event loop at every retry.  A
        # planning failure (unknown dataset, wrong constraint dimension)
        # fails this one request, never the whole wave.
        if item.plan is None:
            try:
                with tracing.activate(span):
                    item.plan = self._core.planner.plan(request.dataset,
                                                        request.constraint)
            except Exception as exc:
                self._note_decision(span, item, "failed")
                return self._failed(item, exc, now)
        plan = item.plan
        decision = self._admission.decide(request.tenant, plan.estimated_ios,
                                          now)
        if decision.action == "admit":
            self._core.stats.note_admission("admit")
            self._note_decision(span, item, "admit",
                                estimated_ios=round(plan.estimated_ios, 2))
            # The bucket was just debited *this* plan's estimate; settle
            # must use the same figure or every deferral-admit cycle
            # leaks the difference.
            item.dispatched_at = now
            item.admitted_estimate = plan.estimated_ios
            if item.deferrals:
                # The cached plan only fed admission estimates while the
                # request was parked; the world may have moved since (a
                # mutation re-pins replicas and disqualifies static
                # indexes), so execute a freshly-made plan.  A failure
                # here must refund the bucket debit and fail only this
                # request.
                try:
                    with tracing.activate(span):
                        plan = self._core.planner.plan(request.dataset,
                                                       request.constraint)
                except Exception as exc:
                    self._admission.settle(request.tenant,
                                           item.admitted_estimate, 0.0)
                    return self._failed(item, exc, now)
            future = loop.run_in_executor(
                None, self._run_traced, span, self._core.dispatch,
                request.dataset, request.constraint, plan, cache_key, False,
                request.tenant)
            state.in_flight[future] = item
            state.keys.add(cache_key)
            return None
        if decision.action == "degrade":
            self._core.stats.note_admission("degrade")
            self._note_decision(span, item, "degrade",
                                estimated_ios=round(plan.estimated_ios, 2))
            with tracing.activate(span):
                answer = self._degraded_answer(request)
            return self._finished(item, "degraded", answer, now)
        return self._park_or_shed(queue, item, decision,
                                  plan.estimated_ios, now)

    def _park_or_shed(self, queue: PriorityRequestQueue,
                      item: QueuedRequest, decision, estimate: float,
                      now: float) -> Optional[ServedRequest]:
        """The not-admitted tail shared by reads and writes.

        A "queue" verdict parks the request until its budget can clear
        (returns None) — or expires it now when that is past its
        deadline; anything else sheds it as rejected.
        """
        span = item.span if item.span is not None else tracing.NULL_SPAN
        estimated_ios = round(estimate, 2)
        if decision.action != "queue":
            self._core.stats.note_admission("reject")
            self._note_decision(span, item, "reject",
                                estimated_ios=estimated_ios)
            return self._finished(item, "rejected", None, now)
        not_before = now + max(decision.retry_after_s, _MIN_RETRY_S)
        if not_before > item.deadline_at:
            # The budget cannot clear before the deadline: expire now
            # instead of parking a request that is already dead (one
            # admission outcome per attempt — this is an expiry, not a
            # deferral).
            self._core.stats.note_admission("expired")
            self._note_decision(span, item, "expired",
                                estimated_ios=estimated_ios)
            return self._finished(item, "expired", None, now)
        self._core.stats.note_admission("queue")
        self._note_decision(span, item, "queue",
                            estimated_ios=estimated_ios,
                            retry_after_s=round(decision.retry_after_s, 4))
        item.not_before = not_before
        item.deferrals += 1
        queue.push(item)
        return None

    def _admit_mutation(self, loop, queue: PriorityRequestQueue,
                        state: _RunState, item: QueuedRequest,
                        now: float) -> Optional[ServedRequest]:
        """Decide one popped insert/delete request.

        Mutations skip the result cache and the follower (dedup)
        machinery — two identical writes are two writes — but pass the
        same token-bucket admission as reads, priced by the write path's
        fan-out estimate and settled against the observed I/Os.
        """
        request = item.request
        span = item.span if item.span is not None else tracing.NULL_SPAN
        try:
            estimate = self._core.writes.estimate_ios(request.dataset,
                                                      request.point)
        except Exception as exc:
            self._note_decision(span, item, "failed")
            return self._failed(item, exc, now)
        decision = self._admission.decide(request.tenant, estimate, now,
                                          write=True)
        if decision.action == "admit":
            self._core.stats.note_admission("admit")
            self._note_decision(span, item, "admit",
                                estimated_ios=round(estimate, 2))
            item.dispatched_at = now
            item.admitted_estimate = estimate
            future = loop.run_in_executor(
                None, self._run_traced, span, self._core.run_write,
                request.dataset, request.op, request.point)
            state.in_flight[future] = item
            return None
        # Over budget: parked, or shed (the degrade policy maps to reject
        # for writes — there is no approximate version of an insert).
        return self._park_or_shed(queue, item, decision, estimate, now)

    def _complete_mutation(self, item: QueuedRequest,
                           future: asyncio.Future
                           ) -> List[Tuple[int, ServedRequest]]:
        """Settle one finished write future into its (seq, outcome) pair."""
        now = self._clock()
        try:
            result: MutationResult = future.result()
        except Exception as exc:
            # The fan-out rolled back (or never started): settle against
            # what the aborted attempt really spent — the write path
            # annotates the exception with its apply+rollback I/Os, so a
            # tenant retrying failing writes still pays for the block
            # traffic they cause instead of looping for free.
            observed = float(getattr(exc, "write_ios_observed", 0.0))
            self._admission.settle(item.request.tenant,
                                   item.admitted_estimate, observed)
            return [(item.seq, self._failed(item, exc, now))]
        self._admission.settle(item.request.tenant, item.admitted_estimate,
                               float(result.ios))
        self._finish_span(item, "served", ios=result.ios,
                          applied=result.applied)
        outcome = ServedRequest(
            request=item.request, outcome="served", answer=None,
            turnaround_s=now - item.enqueued_at,
            queue_wait_s=item.dispatched_at - item.enqueued_at,
            deferrals=item.deferrals, mutation=result)
        return [(item.seq, outcome)]

    def _complete(self, state: _RunState, item: QueuedRequest,
                  future: asyncio.Future, queue: PriorityRequestQueue
                  ) -> List[Tuple[int, ServedRequest]]:
        """Settle one finished worker future (and its followers) into
        (seq, outcome) pairs."""
        if item.request.is_mutation:
            return self._complete_mutation(item, future)
        now = self._clock()
        cache_key = (item.request.dataset,
                     constraint_key(item.request.constraint))
        state.keys.discard(cache_key)
        try:
            answer: ExecutedQuery = future.result()
        except Exception as exc:
            # Refund the charge (nothing was observed), fail this request
            # alone, and send its followers back through the queue to
            # execute independently.
            self._admission.settle(item.request.tenant,
                                   item.admitted_estimate, 0.0)
            for follower in state.followers.pop(cache_key, ()):
                queue.push(follower)
            return [(item.seq, self._failed(item, exc, now))]
        # Settle against what calibration treats as the cold cost, matching
        # the estimate the bucket was charged with.
        observed = answer.ios.total + answer.ios.cache_hits
        self._admission.settle(item.request.tenant, item.admitted_estimate,
                               observed)
        self._finish_span(item, "served", ios=answer.ios.total,
                          reported=answer.count)
        results = [(item.seq, ServedRequest(
            request=item.request, outcome="served", answer=answer,
            turnaround_s=now - item.enqueued_at,
            queue_wait_s=item.dispatched_at - item.enqueued_at,
            deferrals=item.deferrals))]
        for follower in state.followers.pop(cache_key, ()):
            if now > follower.deadline_at:
                # The leader outlived this follower's deadline: the
                # contract says expired requests are dropped, even though
                # an answer happens to be at hand.
                self._core.stats.note_admission("expired")
                results.append((follower.seq,
                                self._finished(follower, "expired", None,
                                               now)))
                continue
            shared = self._core.as_cache_hit(answer)
            shared.tenant = follower.request.tenant
            self._core.record(shared)
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
        if item.span is not None and getattr(item.span, "enabled", False):
            item.span.set("error", message)
        outcome = self._finished(item, "failed", None, now)
        outcome.error = message
        return outcome

    def _degraded_answer(self, request: ServingRequest,
                         record: bool = True) -> ExecutedQuery:
        """A zero-I/O approximate answer from the dataset's sample.

        The sample's points are real stored points, so the answer is a
        *subset* of the truth (membership follows the same rule as the
        planner's selectivity estimate, via
        :func:`~repro.engine.sharding.sample_hits`) — marked ``degraded``
        and kept out of the result cache so it can never masquerade as an
        exact answer.  The answer carries its ``sample_rate`` (what
        fraction of the dataset was scanned) plus a scaled full-count
        estimate with an interval, so callers can turn the subset into a
        qualified count instead of mistaking it for the whole truth.

        The interval is conformal once the dataset's calibration window
        is warm — distribution-free quantile-of-residuals bands from the
        executor's observed (estimate, actual) pairs — and the normal
        approximation (:func:`scaled_count_estimate`) only before then;
        ``interval_source`` says which (``"conformal"`` /
        ``"normal_fallback"``) on every degraded answer.
        """
        with tracing.span("serving.degraded_sample",
                          dataset=request.dataset) as sample_span:
            entry = self._core.catalog.sharded(request.dataset)
            hits = sample_hits(entry.sample, entry.dimension,
                               request.constraint)
            sample_size = int(len(entry.sample))
            population = max(int(entry.live_size), sample_size)
            estimate, interval = scaled_count_estimate(len(hits), sample_size,
                                                       population)
            source = "normal_fallback"
            conformal = self._core.stats.conformal.interval(
                request.dataset, estimate, population=population)
            if conformal is not None:
                # The sample hits are real stored points, so the true
                # count can never sit below them — the conformal band is
                # clipped to the same invariant the fallback obeys.
                low = max(conformal[0], int(len(hits)))
                high = max(conformal[1], low)
                estimate = min(max(estimate, low), high)
                interval = (low, high)
                source = "conformal"
            if sample_span.enabled:
                sample_span.set_many({
                    "sample_size": sample_size, "hits": int(len(hits)),
                    "estimated_count": estimate,
                    "interval_source": source})
        answer = ExecutedQuery(
            dataset=request.dataset, index_name="degraded_sample",
            points=[tuple(row) for row in hits.tolist()], ios=IOStats(),
            latency_s=0.0, estimated_ios=0.0, tenant=request.tenant,
            degraded=True,
            sample_rate=(sample_size / population if population else 1.0),
            estimated_count=estimate, count_interval=interval,
            interval_source=source)
        if record:
            self._core.record(answer)
        return answer

"""The async serving queue: prioritized requests with deadlines.

:class:`ServingRequest` is the unit of work the async path accepts: a
(tenant, dataset, constraint) triple plus a scheduling priority and an
optional deadline.  *Tenant* here is a logical client, deliberately
decoupled from *dataset* — many tenants can hit one dataset, and
per-request scheduling keeps one tenant's expensive queries from
head-of-line-blocking the others.

Mutations ride the same queue: a request with ``op="insert"`` /
``op="delete"`` carries a ``point`` instead of a constraint and flows
through the identical priority/deadline/admission machinery, so writes
obey the same per-tenant budgets as reads.

:class:`PriorityRequestQueue` orders runnable requests by
``(priority, deadline, arrival)``: urgent tenants first, earliest
deadline among equals, FIFO as the final tie-break.  Requests deferred by
admission control are *parked* with a not-before time and re-enter the
runnable order once the clock passes it — the scheduler asks
:meth:`next_ready_delay` when to set its timer for them.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import repro.engine.tracing as tracing
from repro.geometry.primitives import LinearConstraint

#: The request kinds the async path serves.
REQUEST_OPS = ("query", "insert", "delete")


@dataclass(frozen=True)
class ServingRequest:
    """One request in the async serving path.

    Parameters
    ----------
    tenant:
        Logical client the request belongs to (admission control budgets
        and per-tenant metrics key off this).
    dataset:
        Registered dataset the request runs against.
    constraint:
        The linear constraint to answer (``op="query"`` only).
    priority:
        Scheduling class; **lower runs first** (0 = most urgent).
    deadline_s:
        Optional deadline in seconds *from submission*; a request still
        queued when it expires is dropped and recorded as ``expired``.
    op:
        ``"query"`` (default), or a mutation — ``"insert"`` /
        ``"delete"`` — which carries a ``point`` instead of a constraint
        and goes through the engine's routed write-fanout path.
    point:
        The point to insert or delete (mutation ops only).
    """

    tenant: str
    dataset: str
    constraint: Optional[LinearConstraint] = None
    priority: int = 0
    deadline_s: Optional[float] = None
    op: str = "query"
    point: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if self.op not in REQUEST_OPS:
            raise ValueError("unknown request op %r (expected one of %s)"
                             % (self.op, ", ".join(REQUEST_OPS)))
        if self.deadline_s is not None and math.isnan(self.deadline_s):
            # A NaN deadline compares false against every other sort key
            # in the shared heap and never expires.
            raise ValueError("deadline_s must not be NaN")
        if self.op == "query":
            if self.constraint is None:
                raise ValueError("a query request needs a constraint")
        else:
            if self.point is None:
                raise ValueError("a %r request needs a point" % self.op)
            # Normalize once so workers and metrics see one record shape.
            object.__setattr__(self, "point",
                               tuple(float(c) for c in self.point))

    @property
    def is_mutation(self) -> bool:
        """True for insert/delete requests (the write path serves them)."""
        return self.op != "query"


@dataclass
class QueuedRequest:
    """A request plus its scheduling state inside the queue."""

    request: ServingRequest
    seq: int
    enqueued_at: float
    #: Earliest clock time admission allows dispatch (0 = immediately).
    not_before: float = 0.0
    #: How many times admission control sent the request back to wait.
    deferrals: int = 0
    #: Clock time the request was handed to a worker (set at dispatch).
    dispatched_at: float = 0.0
    #: Estimated I/Os the admission bucket was charged at dispatch.
    admitted_estimate: float = 0.0
    #: The plan made at first admission attempt (reused across deferrals).
    plan: Optional[object] = None
    #: The request's span (a child of the HTTP trace, or the root of a
    #: trace the scheduler opened itself; the no-op span when untraced).
    span: object = tracing.NULL_SPAN
    #: The trace the span belongs to, when the scheduler must finish it.
    trace: Optional[object] = None
    #: True when the scheduler opened the trace (no caller trace was
    #: active) and must finish it at completion; False when the HTTP
    #: layer owns it.
    owns_trace: bool = False

    @property
    def deadline_at(self) -> float:
        """Absolute expiry time (+inf when the request has no deadline)."""
        if self.request.deadline_s is None:
            return float("inf")
        return self.enqueued_at + self.request.deadline_s

    def sort_key(self) -> Tuple[int, float, int]:
        return (self.request.priority, self.deadline_at, self.seq)


class PriorityRequestQueue:
    """Min-heap of runnable requests plus a parked heap of deferred ones."""

    def __init__(self) -> None:
        self._ready: List[Tuple[Tuple[int, float, int], QueuedRequest]] = []
        self._parked: List[Tuple[float, int, QueuedRequest]] = []

    def __len__(self) -> int:
        return len(self._ready) + len(self._parked)

    def __iter__(self) -> Iterator[QueuedRequest]:
        """Every queued request, runnable or parked, in no order."""
        yield from (item for __, item in self._ready)
        yield from (item for __, __, item in self._parked)

    def push(self, item: QueuedRequest) -> None:
        """Add a request: parked when its not-before is in the future."""
        if item.not_before > 0.0:
            heapq.heappush(self._parked, (item.not_before, item.seq, item))
        else:
            heapq.heappush(self._ready, (item.sort_key(), item))

    def _promote(self, now: float) -> None:
        """Move parked requests whose wait elapsed into the runnable heap."""
        while self._parked and self._parked[0][0] <= now:
            __, __, item = heapq.heappop(self._parked)
            heapq.heappush(self._ready, (item.sort_key(), item))

    def pop_ready(self, now: float) -> Optional[QueuedRequest]:
        """The best runnable request at time ``now`` (None when all parked)."""
        self._promote(now)
        if not self._ready:
            return None
        __, item = heapq.heappop(self._ready)
        return item

    def next_ready_delay(self, now: float) -> Optional[float]:
        """Seconds until some request becomes runnable.

        0.0 when one already is, None when the queue is empty.
        """
        self._promote(now)
        if self._ready:
            return 0.0
        if not self._parked:
            return None
        return max(0.0, self._parked[0][0] - now)

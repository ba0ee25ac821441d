"""The async serving subsystem: queue, admission control, replicas.

This package is the one way to run many queries, on top of the same
:class:`~repro.engine.executor.ExecutionCore` a single query runs
through:

* :class:`~repro.engine.serving.queue.ServingRequest` /
  :class:`~repro.engine.serving.queue.PriorityRequestQueue` — requests
  carry a tenant, a priority and an optional deadline, and wait in a
  prioritized queue;
* :mod:`~repro.engine.serving.admission` — per-tenant token-bucket I/O
  budgets (refilled from the caller's clock, settled against observed
  I/Os) with queue / reject / degrade policies;
* :class:`~repro.engine.serving.replicas.LeastLoadedReplicaPicker` —
  routes each per-shard query to the replica with the least estimated
  in-flight I/O, so concurrent tenants on one shard overlap;
* :class:`~repro.engine.serving.executor.AsyncExecutor` — the asyncio
  scheduler tying them together.  It is one completion-driven scheduler
  with one request lifecycle (admit -> dispatch -> settle) for reads and
  writes alike: the HTTP front-end feeds it single requests through
  ``submit()``, and :meth:`repro.engine.engine.QueryEngine.serve_async`
  (with ``serve_batch`` / ``serve_workload``, its unbudgeted serial
  case) runs a whole wave on the same scheduler through ``serve()``.  A
  fault in any of its passes fails every request pending on it.
"""

from repro.engine.serving.admission import (
    AdmissionController,
    AdmissionDecision,
    TenantBudget,
    TokenBucket,
)
from repro.engine.serving.executor import (
    AsyncExecutor,
    ServedRequest,
    ServeResult,
)
from repro.engine.serving.queue import (
    PriorityRequestQueue,
    QueuedRequest,
    ServingRequest,
)
from repro.engine.serving.replicas import LeastLoadedReplicaPicker

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "AsyncExecutor",
    "LeastLoadedReplicaPicker",
    "PriorityRequestQueue",
    "QueuedRequest",
    "ServeResult",
    "ServedRequest",
    "ServingRequest",
    "TenantBudget",
    "TokenBucket",
]

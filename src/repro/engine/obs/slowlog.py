"""Bounded retention for finished traces.

Two small stores, both thread-safe and strictly bounded so a busy server
cannot grow without limit:

* :class:`TraceRegistry` — the last N finished traces keyed by
  ``trace_id`` (backs ``GET /trace/<id>``: a client that just got a
  ``trace_id`` in its response can fetch its own trace while it is still
  resident).
* :class:`SlowQueryLog` — a ring of trace trees that either exceeded a
  latency threshold or were served degraded (backs
  ``GET /debug/slow?n=20``).

Both stores keep the finished :class:`~repro.engine.tracing.Trace`
*objects* and serialize via ``to_dict()`` only when a reader actually
fetches — registering a finished trace is on every request's hot path,
so it must stay O(spans-retained), not O(tree-serialized).
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from typing import Any, Dict, List, Optional

__all__ = ["SLOW_QUERY_CAPACITY", "SLOW_QUERY_THRESHOLD_S", "SlowQueryLog",
           "TraceRegistry"]

#: A finished trace at least this slow (seconds) joins the slow log.
SLOW_QUERY_THRESHOLD_S = 0.25

#: Entries the slow log keeps (oldest evicted).
SLOW_QUERY_CAPACITY = 64


class TraceRegistry:
    """The newest ``capacity`` finished traces, fetchable by id."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive, got %r" % capacity)
        self.capacity = capacity
        self._lock = threading.Lock()
        self._traces: "OrderedDict[str, Any]" = OrderedDict()

    def add(self, trace_id: str, trace: Any) -> None:
        """Retain a finished trace object (cheap: no serialization)."""
        with self._lock:
            self._traces[trace_id] = trace
            self._traces.move_to_end(trace_id)
            while len(self._traces) > self.capacity:
                self._traces.popitem(last=False)

    def get(self, trace_id: str) -> Optional[Dict[str, Any]]:
        """The trace tree by id, serialized on fetch; None if evicted."""
        with self._lock:
            trace = self._traces.get(trace_id)
        return None if trace is None else trace.to_dict()

    def ids(self) -> List[str]:
        """Retained trace ids, oldest first (diagnostics and tests)."""
        with self._lock:
            return list(self._traces)

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)


class SlowQueryLog:
    """A ring of the newest :data:`SLOW_QUERY_CAPACITY` finished traces
    that took :data:`SLOW_QUERY_THRESHOLD_S` or longer or were degraded."""

    threshold_s = SLOW_QUERY_THRESHOLD_S

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: "deque[Dict[str, Any]]" = deque(
            maxlen=SLOW_QUERY_CAPACITY)

    def offer(self, trace: Any, duration_s: float,
              degraded: bool = False) -> bool:
        """Record the trace if it qualifies; return whether it did.

        The fast path — a healthy request below the threshold — must
        not serialize: ``to_dict()`` runs only for the rare qualifying
        trace.
        """
        if not degraded and duration_s < self.threshold_s:
            return False
        entry = dict(trace.to_dict())
        entry["slow"] = duration_s >= self.threshold_s
        entry["degraded"] = degraded
        with self._lock:
            self._entries.append(entry)
        return True

    def latest(self, n: int = 20) -> List[Dict[str, Any]]:
        """The newest ``min(n, len)`` entries, newest first."""
        if n <= 0:
            return []
        with self._lock:
            entries = list(self._entries)
        return entries[::-1][:n]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

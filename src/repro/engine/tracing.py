"""Request-scoped tracing: span trees across every serving layer.

A :class:`Trace` is opened per served request (by the HTTP front-end or
by the async executor), and per dataset registration or re-split (by the
catalog: ``catalog.register``, one ``catalog.build_index`` span per index
built), and carries a tree of :class:`Span` nodes timed on
the monotonic clock.  Spans flow through every layer of the engine — the
planner, admission, the execution core's shard/replica fan-out, the write
path, and down to the :class:`~repro.io.store.BlockStore` counters — so a
slow or degraded request can be decomposed into *where* its time and I/Os
went instead of disappearing into aggregate counters.

Propagation is via a :mod:`contextvars` context variable, which follows
``await`` chains for free.  It does **not** follow
``loop.run_in_executor`` or ``ThreadPoolExecutor.map`` into worker
threads (only ``asyncio.to_thread`` copies the context), so the two
thread-crossing seams in this engine pass spans explicitly: the serving
executor re-activates the request span inside the dispatch worker
(:func:`activate`), and the shard fan-out creates children of a captured
parent span (:meth:`Span.child` is thread-safe under the trace's lock).

The disabled path is a no-op singleton: when no trace is active (or the
:class:`Tracer` is off), :func:`span` returns a shared null context and
:data:`NULL_SPAN` swallows every call without allocating, so tracing
costs one contextvar read per instrumentation site.
"""

from __future__ import annotations

import contextvars
import itertools
import threading
import time
import weakref
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "Span", "NullSpan", "NULL_SPAN", "Trace", "NULL_TRACE", "Tracer",
    "current_span", "current_trace", "current_trace_id", "span", "activate",
]


class Span:
    """One timed node in a trace tree.

    Spans time themselves with ``time.perf_counter`` from construction to
    :meth:`finish` and carry a flat attribute dict plus child spans.
    Children may be appended from worker threads (the shard fan-out does)
    — the append is serialized under the owning trace's lock, and every
    traversal snapshots the child list under the same lock.

    The tree is deliberately *acyclic*: a span references only its
    children, shares the owning trace's lock and clock base directly,
    and holds the trace itself through a weakref.  Every request would
    otherwise retire one cycle (parent <-> child, trace <-> root) per
    trace, and cyclic garbage on the request hot path turns into
    full-heap gc pauses under load — the system benchmark's
    ``trace.overhead_share`` shows exactly that.
    """

    __slots__ = ("name", "trace_id", "started_s", "ended_s",
                 "attributes", "children", "_lock", "_base", "_trace_ref")

    enabled = True

    def __init__(self, name: str, trace: "Trace",
                 attributes: Optional[Dict[str, Any]] = None) -> None:
        self.name = name
        self.trace_id = trace.trace_id
        self._lock = trace.lock
        self._base = trace.started_s
        self._trace_ref = weakref.ref(trace)
        self.started_s = time.perf_counter()
        self.ended_s: Optional[float] = None
        # Adopted, not copied: the caller's kwargs dict becomes the
        # attribute store directly — span construction is on the
        # request hot path, so no throwaway dicts.
        self.attributes: Dict[str, Any] = \
            {} if attributes is None else attributes
        self.children: List["Span"] = []

    @property
    def trace(self) -> Optional["Trace"]:
        """The owning trace (weak: None once the trace is dropped)."""
        return self._trace_ref()

    # -- attributes ----------------------------------------------------
    def set(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def set_many(self, attributes: Dict[str, Any]) -> None:
        self.attributes.update(attributes)

    # -- tree ----------------------------------------------------------
    def child(self, name: str, **attributes: Any) -> "Span":
        """Open a child span (safe to call from any thread)."""
        trace = self._trace_ref()
        if trace is None:  # the owning trace is gone; drop quietly
            return NULL_SPAN
        node = Span(name, trace, attributes)
        with self._lock:
            self.children.append(node)
        return node

    def finish(self) -> "Span":
        """Stop the clock (idempotent — the first call wins)."""
        if self.ended_s is None:
            self.ended_s = time.perf_counter()
        return self

    @property
    def duration_s(self) -> float:
        end = self.ended_s if self.ended_s is not None \
            else time.perf_counter()
        return end - self.started_s

    # -- context-manager protocol --------------------------------------
    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.attributes["error"] = "%s: %s" % (exc_type.__name__, exc)
        self.finish()
        return False

    # -- traversal / export --------------------------------------------
    def iter(self) -> Iterator["Span"]:
        """Yield this span and every descendant, depth-first."""
        yield self
        with self._lock:
            children = list(self.children)
        for node in children:
            yield from node.iter()

    def find(self, name: str) -> List["Span"]:
        """Every span in this subtree with the given name."""
        return [node for node in self.iter() if node.name == name]

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serializable tree; times are ms relative to trace start."""
        base = self._base
        with self._lock:
            children = list(self.children)
        return {
            "name": self.name,
            "start_ms": round((self.started_s - base) * 1e3, 3),
            "duration_ms": round(self.duration_s * 1e3, 3),
            "attributes": dict(self.attributes),
            "children": [node.to_dict() for node in children],
        }

    def __repr__(self) -> str:
        return "Span(%r, %.3fms, %d children)" % (
            self.name, self.duration_s * 1e3, len(self.children))


class NullSpan:
    """The disabled-tracing singleton: every operation is a no-op.

    ``child`` returns the singleton itself, so arbitrarily deep
    instrumentation chains stay allocation-free when tracing is off.
    """

    __slots__ = ()

    enabled = False
    name = ""
    trace_id = ""
    trace = None  # rebound to NULL_TRACE once it exists below
    started_s = 0.0
    ended_s = 0.0
    duration_s = 0.0

    @property
    def attributes(self) -> Dict[str, Any]:
        return {}

    def set(self, key: str, value: Any) -> None:
        pass

    def set_many(self, attributes: Dict[str, Any]) -> None:
        pass

    def child(self, name: str, **attributes: Any) -> "NullSpan":
        return self

    def finish(self) -> "NullSpan":
        return self

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def iter(self) -> Iterator["Span"]:
        return iter(())

    def find(self, name: str) -> List["Span"]:
        return []

    def to_dict(self) -> Dict[str, Any]:
        return {}

    def __repr__(self) -> str:
        return "NullSpan()"


#: The shared no-op span: ``current_span()`` when no trace is active.
NULL_SPAN = NullSpan()


class Trace:
    """One request's span tree, identified by a ``trace_id``.

    The trace owns the lock that serializes cross-thread child appends
    and records both the monotonic start (for in-tree relative times) and
    the wall-clock start (so exported traces can be ordered globally).
    :meth:`finish` freezes the duration and hands the finished tree to
    the owning :class:`Tracer` for the trace registry / slow-query log.
    """

    __slots__ = ("trace_id", "name", "root", "lock", "started_s",
                 "started_at", "finished", "duration_s", "_tracer",
                 "__weakref__")

    enabled = True

    def __init__(self, trace_id: str, name: str,
                 tracer: Optional["Tracer"] = None) -> None:
        self.trace_id = trace_id
        self.name = name
        self.lock = threading.Lock()
        self.started_s = time.perf_counter()
        self.started_at = time.time()
        self.finished = False
        self.duration_s = 0.0
        self._tracer = tracer
        self.root = Span(name, self)

    def finish(self) -> "Trace":
        """Close the root span and register the finished tree (idempotent)."""
        if self.finished:
            return self
        self.root.finish()
        self.duration_s = self.root.duration_s
        self.finished = True
        if self._tracer is not None:
            self._tracer._register(self)
        return self

    def spans(self, name: Optional[str] = None) -> List[Span]:
        """Every span in the tree, optionally filtered by name."""
        if name is None:
            return list(self.root.iter())
        return self.root.find(name)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "name": self.name,
            "started_at": self.started_at,
            "duration_ms": round(self.duration_s * 1e3, 3)
            if self.finished else round(self.root.duration_s * 1e3, 3),
            "finished": self.finished,
            "root": self.root.to_dict(),
        }

    def __repr__(self) -> str:
        return "Trace(%s, %r, finished=%s)" % (
            self.trace_id, self.name, self.finished)


class _NullTrace:
    """Disabled-tracer counterpart of :data:`NULL_SPAN`."""

    __slots__ = ()

    enabled = False
    trace_id = ""
    name = ""
    root = NULL_SPAN
    finished = True
    duration_s = 0.0
    started_at = 0.0

    def finish(self) -> "_NullTrace":
        return self

    def spans(self, name: Optional[str] = None) -> List[Span]:
        return []

    def to_dict(self) -> Dict[str, Any]:
        return {}

    def __repr__(self) -> str:
        return "NullTrace()"


#: What a disabled :class:`Tracer` hands out instead of a :class:`Trace`.
NULL_TRACE = _NullTrace()
NullSpan.trace = NULL_TRACE


# ----------------------------------------------------------------------
# context propagation
# ----------------------------------------------------------------------
_CURRENT_SPAN: "contextvars.ContextVar[Any]" = contextvars.ContextVar(
    "repro_current_span", default=NULL_SPAN)


def current_span() -> Any:
    """The span active in this context (:data:`NULL_SPAN` when none)."""
    return _CURRENT_SPAN.get()


def current_trace() -> Any:
    """The trace owning the active span, or :data:`NULL_TRACE`."""
    trace = _CURRENT_SPAN.get().trace
    return NULL_TRACE if trace is None else trace


def current_trace_id() -> str:
    """The active trace's id, or ``""`` when tracing is off."""
    return _CURRENT_SPAN.get().trace_id


class _ActiveSpan:
    """Context manager binding one span to the contextvar.

    ``finish_on_exit`` distinguishes :func:`span` (which owns its child
    and closes it) from :func:`activate` (which borrows a span across a
    thread boundary and must leave its clock alone).
    """

    __slots__ = ("_span", "_token", "_finish")

    def __init__(self, node: Span, finish_on_exit: bool) -> None:
        self._span = node
        self._finish = finish_on_exit
        self._token: Optional[contextvars.Token] = None

    def __enter__(self) -> Span:
        self._token = _CURRENT_SPAN.set(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        _CURRENT_SPAN.reset(self._token)
        if exc_type is not None:
            self._span.set(
                "error", "%s: %s" % (exc_type.__name__, exc))
        if self._finish:
            self._span.finish()
        return False


class _NullContext:
    """The shared do-nothing context for the tracing-disabled fast path."""

    __slots__ = ()

    def __enter__(self) -> NullSpan:
        return NULL_SPAN

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_CONTEXT = _NullContext()


def span(name: str, **attributes: Any):
    """Open a child of the current span and make it current.

    Usage: ``with tracing.span("planner.plan") as sp: ...``.  The child
    is finished when the block exits (exceptions are recorded in an
    ``error`` attribute).  When no trace is active this returns a shared
    null context — the disabled path allocates nothing.
    """
    parent = _CURRENT_SPAN.get()
    if parent is NULL_SPAN:
        return _NULL_CONTEXT
    return _ActiveSpan(parent.child(name, **attributes), finish_on_exit=True)


def activate(node: Any):
    """Make an existing span current without finishing it on exit.

    This is the explicit hand-off across thread boundaries
    (``run_in_executor`` workers, pool fan-out) where contextvars do not
    propagate.  Passing ``None`` or :data:`NULL_SPAN` is a no-op.
    """
    if node is None or not getattr(node, "enabled", False):
        return _NULL_CONTEXT
    return _ActiveSpan(node, finish_on_exit=False)


# ----------------------------------------------------------------------
# the tracer
# ----------------------------------------------------------------------
class Tracer:
    """Owns trace lifecycle: the on/off switch, ids, and retention.

    Finished traces land in a bounded
    :class:`~repro.engine.obs.slowlog.TraceRegistry` (fetch by id, e.g.
    ``GET /trace/<id>``) and — when slower than
    :data:`~repro.engine.obs.slowlog.SLOW_QUERY_THRESHOLD_S` or
    marked degraded — in a
    :class:`~repro.engine.obs.slowlog.SlowQueryLog` ring
    (``GET /debug/slow``).  ``enabled=False`` makes :meth:`start_trace`
    hand out :data:`NULL_TRACE`, collapsing every downstream
    instrumentation site to the no-op singleton.
    """

    def __init__(self, enabled: bool = True, max_traces: int = 256) -> None:
        from repro.engine.obs.slowlog import SlowQueryLog, TraceRegistry
        self.enabled = enabled
        self.registry = TraceRegistry(max_traces)
        self.slow_log = SlowQueryLog()
        self._counter = itertools.count(1)

    def start_trace(self, name: str, **attributes: Any) -> Any:
        """Open a new trace (or :data:`NULL_TRACE` when disabled)."""
        if not self.enabled:
            return NULL_TRACE
        trace = Trace(self._next_id(), name, tracer=self)
        if attributes:
            trace.root.attributes.update(attributes)
        return trace

    def _next_id(self) -> str:
        # Millisecond wall clock + a process-lifetime counter: unique
        # within a server's lifetime, sortable-ish across restarts.
        return "%x-%x" % (int(time.time() * 1e3), next(self._counter))

    def _register(self, trace: Trace) -> None:
        # Hot path: every finished request lands here, so retain the
        # trace object and let readers serialize on fetch.
        self.registry.add(trace.trace_id, trace)
        root_attrs = trace.root.attributes
        degraded = (root_attrs.get("outcome") == "degraded"
                    or bool(root_attrs.get("degraded")))
        self.slow_log.offer(trace, trace.duration_s, degraded=degraded)

    def get(self, trace_id: str) -> Optional[Dict[str, Any]]:
        """A finished trace tree by id, or None if unknown/evicted."""
        return self.registry.get(trace_id)

    def slow(self, n: int = 20) -> List[Dict[str, Any]]:
        """The newest ``n`` slow/degraded trace trees, newest first."""
        return self.slow_log.latest(n)

    @property
    def slow_threshold_s(self) -> float:
        return self.slow_log.threshold_s

    def __repr__(self) -> str:
        return "Tracer(enabled=%s, traces=%d, slow=%d)" % (
            self.enabled, len(self.registry), len(self.slow_log))

"""The HTTP application: routes, handlers, and the SSE streaming path.

:class:`EngineApp` maps six routes onto the engine's long-lived async
executor:

* ``POST /query`` — one constraint query, answered as JSON when the
  scheduler finishes it (budget-degraded answers come back with their
  sample rate and count interval, same as the embedded API);
* ``GET /query/stream`` — Server-Sent Events: an ``estimate`` event
  (zero-I/O degraded answer with a count interval — conformal once the
  dataset's calibration is warm, normal-approximation fallback before,
  labelled by ``interval_source``) flushes immediately, then the exact
  ``result`` follows when the scheduler serves the query — the
  degraded-then-refined contract over the wire;
* ``POST /insert`` / ``POST /delete`` — routed write-fanout mutations;
* ``GET /stats`` — :meth:`EngineStats.summary` as JSON;
* ``GET /metrics`` — the Prometheus text exposition of the engine's
  metric registry;
* ``GET /trace/<id>`` — one finished request trace (span tree) by id;
* ``GET /debug/slow`` — the latest slow/degraded request traces;
* ``GET /healthz`` — unauthenticated liveness probe.

Every handler runs *on the event loop* and awaits the executor; the
engine's blocking work happens in the executor's worker threads, so one
slow query never stalls other connections.  Each request is recorded in
:meth:`EngineStats.note_http` under its route (label ``*`` for requests
that never matched a route) — latency, and the "HTTP serialise" row:
seconds spent encoding its bodies and their size — which is what
``GET /stats`` reports back.

Each request also opens a request trace (when the engine's tracing is
on): the serving executor's spans — admission decisions, planner,
per-shard fan-out, block I/O — nest under it, the response carries the
id in an ``X-Trace-Id`` header and a ``trace_id`` body field (every SSE
event too), and ``GET /trace/<id>`` fetches the finished tree.
"""

from __future__ import annotations

import time
from typing import Awaitable, Callable, Dict, Optional, Tuple

import repro.engine.tracing as tracing
from repro.engine.obs.prometheus import (CONTENT_TYPE as _PROMETHEUS_TYPE,
                                         render_prometheus)
from repro.engine.serving.executor import AsyncExecutor, ServedRequest
from repro.engine.serving.queue import ServingRequest
from repro.engine.server.auth import ApiKeyAuthenticator
from repro.engine.server.protocol import (HTTPError, HTTPRequest, json_body,
                                          parse_mutation_request,
                                          parse_query_request,
                                          parse_stream_query,
                                          render_response, served_body,
                                          sse_event, sse_preamble)

#: HTTP status for each scheduler outcome.
_OUTCOME_STATUS = {"served": 200, "degraded": 200, "rejected": 429,
                   "expired": 504, "failed": 500}

#: (status, body, keep_alive) triple a route handler returns; body None
#: means the handler already wrote the response (SSE, ``/metrics``).
_Handled = Tuple[int, Optional[bytes], bool]


class _Reply:
    """The bodies of one request's response, accounted: seconds spent
    encoding them and bytes produced (the "HTTP serialise" row)."""

    __slots__ = ("root", "encode_s", "body_bytes")

    def __init__(self, root) -> None:
        #: The request's root span (the null span with tracing off).
        self.root = root
        self.encode_s = 0.0
        self.body_bytes = 0

    def encoded(self, encode: Callable[[object], bytes],
                subject: object) -> bytes:
        started = time.perf_counter()
        body = encode(subject)
        self.encode_s += time.perf_counter() - started
        self.body_bytes += len(body)
        return body

    def body(self, encode: Callable[[dict], bytes], payload: dict) -> bytes:
        """``payload``, stamped with the request's trace id, encoded."""
        if self.root.trace_id:
            payload.setdefault("trace_id", self.root.trace_id)
        return self.encoded(encode, payload)


class EngineApp:
    """Routes HTTP requests into one engine's serving executor."""

    def __init__(self, engine, auth: ApiKeyAuthenticator,
                 executor: AsyncExecutor,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self._engine = engine
        self._auth = auth
        self._executor = executor
        self._clock = clock
        self._routes: Dict[Tuple[str, str],
                           Callable[..., Awaitable[_Handled]]] = {
            ("POST", "/query"): self._handle_submit,
            ("GET", "/query/stream"): self._handle_stream,
            ("POST", "/insert"): self._handle_submit,
            ("POST", "/delete"): self._handle_submit,
            ("GET", "/stats"): self._handle_stats,
            ("GET", "/metrics"): self._handle_metrics,
            ("GET", "/debug/slow"): self._handle_slow,
            ("GET", "/healthz"): self._handle_healthz,
        }

    def endpoint_label(self, path: Optional[str]) -> str:
        """The metrics label for a request path (``*`` off any route).

        Parameterized routes collapse onto one label (``/trace/<id>``),
        so per-endpoint counters stay bounded no matter how many distinct
        ids clients fetch.
        """
        if path is None:
            return "*"
        if any(known == path for __, known in self._routes):
            return path
        if path.startswith("/trace/") and len(path) > len("/trace/"):
            return "/trace/<id>"
        return "*"

    def _route_for(self, request: HTTPRequest):
        """The handler for a request, or the structured refusal."""
        if request.path.startswith("/trace/") \
                and len(request.path) > len("/trace/"):
            if request.method != "GET":
                raise HTTPError(405, "method_not_allowed",
                                "/trace/<id> does not accept %s"
                                % request.method)
            return self._handle_trace
        handler = self._routes.get((request.method, request.path))
        if handler is None:
            if self.endpoint_label(request.path) != "*":
                raise HTTPError(405, "method_not_allowed",
                                "%s does not accept %s"
                                % (request.path, request.method))
            raise HTTPError(404, "unknown_route",
                            "no route for %s %s"
                            % (request.method, request.path))
        return handler

    async def handle(self, request: HTTPRequest, writer) -> bool:
        """Serve one parsed request; returns whether to keep the connection.

        Structured refusals (:class:`HTTPError`) become JSON error bodies
        on the declared status; anything else is a 500 that also closes
        the connection (handler state is unknown after an unexpected
        exception).  Either way the endpoint's latency and status-class
        counters are recorded, and — with tracing on — the request runs
        under a trace whose id rides back in ``X-Trace-Id`` and the JSON
        body.
        """
        endpoint = self.endpoint_label(request.path)
        started = self._clock()
        status = 500
        keep_alive = False
        trace = self._engine.tracer.start_trace(
            "http.request", endpoint=endpoint, method=request.method)
        trace_headers = (("X-Trace-Id", trace.trace_id),) \
            if trace.trace_id else ()
        reply = _Reply(trace.root)
        try:
            handler = self._route_for(request)
            with tracing.activate(trace.root):
                status, body, keep_alive = await handler(request, writer,
                                                         reply)
            if body is not None:
                writer.write(render_response(status, body,
                                             keep_alive=keep_alive,
                                             extra_headers=trace_headers))
                await writer.drain()
        except HTTPError as exc:
            status = exc.status
            keep_alive = request.keep_alive
            extra = list(trace_headers)
            if exc.retry_after_s is not None:
                extra.append(("Retry-After", "%d"
                              % max(1, int(exc.retry_after_s + 0.999))))
            trace.root.set("error", exc.code)
            writer.write(render_response(
                status, reply.body(json_body, exc.payload()),
                keep_alive=keep_alive, extra_headers=extra))
            await writer.drain()
        except Exception as exc:
            status = 500
            keep_alive = False
            error = HTTPError(500, "internal_error",
                              "%s: %s" % (type(exc).__name__, exc))
            trace.root.set("error", "internal_error")
            writer.write(render_response(
                500, reply.body(json_body, error.payload()),
                keep_alive=False, extra_headers=trace_headers))
            await writer.drain()
        finally:
            if trace.trace_id:
                trace.root.set_many({
                    "status": status,
                    "encode_us": round(reply.encode_s * 1e6, 1),
                    "body_bytes": reply.body_bytes})
            trace.finish()
            self._engine.stats.note_http(endpoint, status,
                                         self._clock() - started,
                                         reply.encode_s, reply.body_bytes)
        return keep_alive

    # ------------------------------------------------------------------
    # validation against the catalog
    # ------------------------------------------------------------------
    def _validate(self, serving: ServingRequest) -> None:
        try:
            entry = self._engine.catalog.sharded(serving.dataset)
        except KeyError:
            raise HTTPError(404, "unknown_dataset",
                            "no dataset named %r (registered: %s)"
                            % (serving.dataset,
                               ", ".join(self._engine.catalog.datasets())
                               or "none"))
        wanted = serving.constraint.dimension if serving.op == "query" \
            else len(serving.point)
        if wanted != entry.dimension:
            what = ("constraint dimension (len(coeffs) + 1)"
                    if serving.op == "query" else "point dimension")
            raise HTTPError(400, "dimension_mismatch",
                            "%s is %d but dataset %r is %d-dimensional"
                            % (what, wanted, serving.dataset,
                               entry.dimension))

    # ------------------------------------------------------------------
    # response payloads
    # ------------------------------------------------------------------
    @staticmethod
    def _served_payload(served: ServedRequest) -> dict:
        payload: Dict[str, object] = {
            "outcome": served.outcome,
            "tenant": served.request.tenant,
            "dataset": served.request.dataset,
            "op": served.request.op,
            "turnaround_s": served.turnaround_s,
            "queue_wait_s": served.queue_wait_s,
            "deferrals": served.deferrals,
        }
        if served.error is not None:
            payload["error"] = served.error
        answer = served.answer
        if answer is not None:
            payload["answer"] = {
                "index": answer.index_name,
                "count": answer.count,
                # The matrix itself: ``served_body`` has it written.
                "points": answer.points,
                "ios": answer.total_ios,
                "latency_s": answer.latency_s,
                "from_result_cache": answer.from_result_cache,
                "degraded": answer.degraded,
            }
            if answer.degraded:
                payload["answer"]["sample_rate"] = answer.sample_rate
                payload["answer"]["estimated_count"] = answer.estimated_count
                interval = answer.count_interval
                payload["answer"]["count_interval"] = \
                    list(interval) if interval is not None else None
                payload["answer"]["interval_source"] = answer.interval_source
        if served.mutation is not None:
            mutation = served.mutation
            payload["mutation"] = {
                "applied": mutation.applied,
                "shard_id": mutation.shard_id,
                "replicas": mutation.replicas,
                "ios": mutation.ios,
                "latency_s": mutation.latency_s,
                "generation": mutation.generation,
            }
        return payload

    @staticmethod
    def _estimate_payload(estimate) -> dict:
        interval = estimate.count_interval
        return {
            "count_estimate": estimate.estimated_count,
            "count_interval": list(interval) if interval is not None
            else None,
            "interval_source": estimate.interval_source,
            "sample_rate": estimate.sample_rate,
            "sample_count": estimate.count,
        }

    # ------------------------------------------------------------------
    # route handlers
    # ------------------------------------------------------------------
    def _encode_served(self, served: ServedRequest,
                       reply: _Reply) -> bytes:
        reply.root.set("outcome", served.outcome)
        return reply.body(served_body, self._served_payload(served))

    async def _handle_submit(self, request: HTTPRequest, writer,
                             reply: _Reply) -> _Handled:
        """``POST /query``, ``/insert`` or ``/delete`` (the path names the
        op): one request through the scheduler."""
        key = self._auth.authenticate(request)
        self._auth.check_rate(key)
        if request.path == "/query":
            serving = parse_query_request(request.json(), key.tenant)
        else:
            serving = parse_mutation_request(request.json(), key.tenant,
                                             request.path[1:])
        self._validate(serving)
        served = await self._executor.submit(serving)
        return (_OUTCOME_STATUS.get(served.outcome, 500),
                self._encode_served(served, reply), request.keep_alive)

    async def _handle_stream(self, request: HTTPRequest, writer,
                             reply: _Reply) -> _Handled:
        key = self._auth.authenticate(request)
        self._auth.check_rate(key)
        serving = parse_stream_query(request.query, key.tenant)
        self._validate(serving)
        # Everything that can 4xx happened above — from here the response
        # is a committed 200 event stream, so failures become events.
        writer.write(sse_preamble())
        await writer.drain()
        estimate = self._executor.estimate(serving)
        writer.write(sse_event("estimate", reply.body(
            json_body, self._estimate_payload(estimate))))
        await writer.drain()
        served = await self._executor.submit(serving)
        if served.outcome in ("served", "degraded"):
            event = "result"
        else:
            event = "expired" if served.outcome == "expired" else "error"
        writer.write(sse_event(event, self._encode_served(served, reply)))
        await writer.drain()
        # SSE responses are close-framed; the handler wrote everything.
        return 200, None, False

    async def _handle_stats(self, request: HTTPRequest, writer,
                            reply: _Reply) -> _Handled:
        self._auth.authenticate(request)  # authenticated, but never rated
        return (200, reply.body(json_body, self._engine.summary()),
                request.keep_alive)

    async def _handle_metrics(self, request: HTTPRequest, writer,
                              reply: _Reply) -> _Handled:
        """The metric registry in Prometheus text exposition format."""
        self._auth.authenticate(request)  # authenticated, never rated
        # Model/conformal gauges are pull-refreshed snapshots, not
        # hot-path counters: bring them current before rendering.
        self._engine.stats.refresh_model_metrics()
        body = reply.encoded(
            lambda registry: render_prometheus(registry).encode("utf-8"),
            self._engine.stats.registry)
        writer.write(render_response(200, body,
                                     content_type=_PROMETHEUS_TYPE,
                                     keep_alive=request.keep_alive))
        await writer.drain()
        return 200, None, request.keep_alive

    async def _handle_trace(self, request: HTTPRequest, writer,
                            reply: _Reply) -> _Handled:
        """One finished trace by id (the span tree, JSON)."""
        self._auth.authenticate(request)
        trace_id = request.path[len("/trace/"):]
        payload = self._engine.tracer.get(trace_id)
        if payload is None:
            raise HTTPError(404, "trace_not_found",
                            "no finished trace %r (traces are evicted "
                            "oldest-first; is tracing enabled?)"
                            % trace_id[:64])
        return 200, reply.body(json_body, dict(payload)), request.keep_alive

    async def _handle_slow(self, request: HTTPRequest, writer,
                           reply: _Reply) -> _Handled:
        """The newest slow/degraded request traces (``?n=`` to bound)."""
        self._auth.authenticate(request)
        raw = request.query.get("n", "20")
        try:
            n = max(1, min(int(raw), 100))
        except ValueError:
            raise HTTPError(400, "bad_count",
                            "'n' must be an integer, got %r" % raw[:20])
        return (200,
                reply.body(json_body, {
                    "threshold_s": self._engine.tracer.slow_threshold_s,
                    "slow": self._engine.tracer.slow(n)}),
                request.keep_alive)

    async def _handle_healthz(self, request: HTTPRequest, writer,
                              reply: _Reply) -> _Handled:
        return (200,
                reply.body(json_body, {
                    "status": "ok",
                    "datasets": self._engine.catalog.datasets()}),
                request.keep_alive)

"""A small synchronous HTTP client for the engine server.

Built on stdlib :mod:`http.client` — it exists so the integration tests
and the benchmark harness exercise the server over a *real* socket with
an independent HTTP implementation, rather than trusting the server to
parse its own dialect.  One connection per call keeps the client
trivially thread-safe (the concurrency tests drive one client per
thread).

:meth:`ServerClient.query_stream` consumes the Server-Sent-Events
endpoint and returns the parsed events *with arrival timestamps*, which
is how a caller measures time-to-first-estimate vs time-to-final.
"""

from __future__ import annotations

import http.client
import json
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple
from urllib.parse import urlencode

from repro.engine.cluster.protocol import point_to_wire, query_to_wire
from repro.geometry.primitives import LinearConstraint


@dataclass(frozen=True)
class SSEEvent:
    """One parsed Server-Sent Event."""

    name: str
    data: Dict[str, object]
    #: ``time.perf_counter()`` at the moment the event was fully read.
    at: float


class ServerClient:
    """Talks to one :class:`EngineServer` address."""

    def __init__(self, host: str, port: int, api_key: Optional[str] = None,
                 timeout: float = 30.0) -> None:
        self._host = host
        self._port = port
        self._api_key = api_key
        self._timeout = timeout

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _headers(self) -> Dict[str, str]:
        headers = {"Accept": "application/json"}
        if self._api_key is not None:
            headers["Authorization"] = "Bearer %s" % self._api_key
        return headers

    def request(self, method: str, path: str,
                payload: Optional[dict] = None
                ) -> Tuple[int, Dict[str, object]]:
        """One request; returns (status, parsed JSON body)."""
        conn = http.client.HTTPConnection(self._host, self._port,
                                          timeout=self._timeout)
        try:
            body = None
            headers = self._headers()
            if payload is not None:
                body = json.dumps(payload).encode("utf-8")
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            parsed = json.loads(raw.decode("utf-8")) if raw else {}
            return response.status, parsed
        finally:
            conn.close()

    # ------------------------------------------------------------------
    # the API surface
    # ------------------------------------------------------------------
    def query(self, dataset: str, coeffs: Sequence[float], offset: float,
              priority: int = 0, deadline_s: Optional[float] = None
              ) -> Tuple[int, Dict[str, object]]:
        payload: Dict[str, object] = {
            "dataset": dataset,
            "constraint": query_to_wire(
                LinearConstraint(coeffs=tuple(coeffs), offset=offset)),
            "priority": priority,
        }
        if deadline_s is not None:
            payload["deadline_s"] = deadline_s
        return self.request("POST", "/query", payload)

    def _mutate(self, path: str, dataset: str, point: Sequence[float],
                priority: int = 0, deadline_s: Optional[float] = None
                ) -> Tuple[int, Dict[str, object]]:
        payload: Dict[str, object] = {"dataset": dataset,
                                      "point": point_to_wire(point),
                                      "priority": priority}
        if deadline_s is not None:
            payload["deadline_s"] = deadline_s
        return self.request("POST", path, payload)

    def insert(self, dataset: str, point: Sequence[float],
               **kwargs) -> Tuple[int, Dict[str, object]]:
        return self._mutate("/insert", dataset, point, **kwargs)

    def delete(self, dataset: str, point: Sequence[float],
               **kwargs) -> Tuple[int, Dict[str, object]]:
        return self._mutate("/delete", dataset, point, **kwargs)

    def stats(self) -> Tuple[int, Dict[str, object]]:
        return self.request("GET", "/stats")

    def healthz(self) -> Tuple[int, Dict[str, object]]:
        return self.request("GET", "/healthz")

    def query_stream(self, dataset: str, coeffs: Sequence[float],
                     offset: float, priority: int = 0,
                     deadline_s: Optional[float] = None
                     ) -> Tuple[int, List[SSEEvent]]:
        """Consume ``GET /query/stream``; returns (status, events).

        A non-200 status comes with a single synthetic ``error`` event
        holding the JSON error body, so callers have one shape to check.
        """
        params: Dict[str, object] = {
            "dataset": dataset,
            "coeffs": ",".join(repr(float(c)) for c in coeffs),
            "offset": repr(float(offset)),
            "priority": priority,
        }
        if deadline_s is not None:
            params["deadline_s"] = repr(float(deadline_s))
        path = "/query/stream?" + urlencode(params)
        conn = http.client.HTTPConnection(self._host, self._port,
                                          timeout=self._timeout)
        try:
            conn.request("GET", path, headers=self._headers())
            response = conn.getresponse()
            if response.status != 200:
                raw = response.read()
                data = json.loads(raw.decode("utf-8")) if raw else {}
                return response.status, [SSEEvent("error", data,
                                                  time.perf_counter())]
            # The stream is close-framed: read line-wise until EOF,
            # emitting an event at each blank-line boundary.
            events: List[SSEEvent] = []
            name: Optional[str] = None
            data_lines: List[str] = []
            while True:
                line = response.fp.readline()
                if not line:
                    break
                text = line.decode("utf-8").rstrip("\n")
                if text.startswith("event:"):
                    name = text[len("event:"):].strip()
                elif text.startswith("data:"):
                    data_lines.append(text[len("data:"):].strip())
                elif not text and (name or data_lines):
                    events.append(SSEEvent(
                        name or "message",
                        json.loads("\n".join(data_lines) or "{}"),
                        time.perf_counter()))
                    name, data_lines = None, []
            return 200, events
        finally:
            conn.close()

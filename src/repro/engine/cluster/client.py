"""Connection-pooling RPC client for one shard-worker process.

A :class:`WorkerClient` owns a small pool of sockets to one worker.
Concurrent callers (fan-out pool threads, the write path, the
heartbeat monitor) each check a connection out, so a heartbeat is never
stuck behind a long query — the worker serves every connection on its
own thread and serializes actual work on its store lock, which is the
same interleaving the in-process executor produces.

Failures split into two kinds the coordinator treats differently:

* :class:`WorkerUnavailable` — the socket died (worker crashed, was
  killed, or never answered).  The caller fails over to another replica
  and the coordinator marks the worker dead for restart.
* :class:`WorkerError` — the worker answered with an application error
  (unknown index, bad payload).  That is a bug, not a death; it
  propagates.
"""

from __future__ import annotations

import socket
import threading
from typing import Dict, List, Optional, Tuple

from repro.engine.cluster import protocol


#: Idle connections a client keeps open for reuse.
MAX_IDLE = 4


class WorkerUnavailable(RuntimeError):
    """The worker's socket is gone — fail over, then restart the worker."""


class WorkerError(RuntimeError):
    """The worker answered with an application-level error."""


class WorkerClient:
    """A pooled length-prefixed-JSON RPC client for one worker address."""

    def __init__(self, address: Tuple[str, int], timeout_s: float = 30.0):
        self.address = address
        self.timeout_s = timeout_s
        self._idle: List[socket.socket] = []
        self._lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    # pool plumbing
    # ------------------------------------------------------------------
    def _checkout(self) -> socket.socket:
        with self._lock:
            if self._closed:
                raise WorkerUnavailable("client for %s:%d is closed"
                                        % self.address)
            if self._idle:
                return self._idle.pop()
        try:
            sock = socket.create_connection(self.address,
                                            timeout=self.timeout_s)
        except OSError as exc:
            raise WorkerUnavailable("cannot reach worker at %s:%d: %s"
                                    % (self.address[0], self.address[1],
                                       exc)) from exc
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def _checkin(self, sock: socket.socket) -> None:
        with self._lock:
            if not self._closed and len(self._idle) < MAX_IDLE:
                self._idle.append(sock)
                return
        sock.close()

    def close(self) -> None:
        """Drop every pooled connection (idempotent)."""
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for sock in idle:
            sock.close()

    # ------------------------------------------------------------------
    # calls
    # ------------------------------------------------------------------
    def call(self, payload: Dict[str, object],
             timeout_s: Optional[float] = None) -> Dict[str, object]:
        """One request/response round trip on a pooled connection."""
        sock = self._checkout()
        if timeout_s is not None:
            sock.settimeout(timeout_s)
        try:
            protocol.send_message(sock, payload)
            response = protocol.recv_message(sock)
        except (OSError, ConnectionError, protocol.ProtocolError) as exc:
            sock.close()
            raise WorkerUnavailable(
                "worker at %s:%d failed mid-call: %s"
                % (self.address[0], self.address[1], exc)) from exc
        if timeout_s is not None:
            sock.settimeout(self.timeout_s)
        self._checkin(sock)
        if not response.get("ok"):
            raise WorkerError(str(response.get("error", "unknown error")))
        return response

    def ping(self, timeout_s: float = 2.0) -> Dict[str, object]:
        """Liveness probe with a short deadline (heartbeat monitor)."""
        return self.call({"op": "ping"}, timeout_s=timeout_s)

"""The load generator: launcher handle, keep-alive client, closed loop.

One process, one thread, one persistent ``http.client`` connection: the
next operation goes out when the last one has returned and the host's
speed has been sampled.  A second connection would make the host's
scheduler part of every figure (two client threads, the server's and
its workers' on two shared cores).  The program's own ``ServerClient``
is not used: it opens a TCP connection per call, and later changes may
alter it.  What a fresh connection costs is its own per-layer metric.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from sysbench import hostspeed, workloads

_HEADERS = {"Content-Type": "application/json",
            "X-Api-Key": workloads.API_KEY}
_SERVE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      os.pardir, "serve.py")


class Child:
    """The launcher process and its line-per-message protocol."""

    def __init__(self, workload: str, seed: int, points_scale: float,
                 data_dir: str, setup_only: bool = False) -> None:
        command = [sys.executable, _SERVE, "--workload", workload,
                   "--seed", str(seed), "--points-scale", repr(points_scale),
                   "--data-dir", data_dir]
        if setup_only:
            command.append("--setup-only")
        # Its own session, so a failed run can kill the launcher together
        # with any worker processes it forked.
        self._process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, start_new_session=True)
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()

    def _pump(self) -> None:
        for line in self._process.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def read(self, timeout: float) -> dict:
        try:
            line = self._lines.get(timeout=timeout)
        except queue.Empty:
            raise RuntimeError("launcher silent for %.0f s" % timeout)
        if line is None:
            raise RuntimeError("launcher exited with code %s"
                               % self._process.wait())
        return json.loads(line)

    def _send(self, command: dict) -> None:
        self._process.stdin.write(json.dumps(command) + "\n")
        self._process.stdin.flush()

    def call(self, command: dict, timeout: float) -> dict:
        self._send(command)
        return self.read(timeout)

    def stop(self, timeout: float = 60.0) -> dict:
        """Orderly shutdown; returns the launcher's last report."""
        self._send({"cmd": "stop"})
        return self.wait_stopped(timeout)

    def wait_stopped(self, timeout: float) -> dict:
        """The last report of a launcher that is stopping (``--setup-only``
        launchers stop by themselves), once it has exited."""
        report = self.read(timeout)
        self._process.stdin.close()
        self._process.wait(timeout)
        self._reader.join(timeout)
        return report

    def kill(self) -> None:
        """Last resort: end the launcher's whole session, then reap it."""
        if self._process.poll() is None:
            try:
                os.killpg(self._process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self._process.wait()
        for stream in (self._process.stdin, self._process.stdout):
            try:
                stream.close()
            except OSError:
                pass


class HttpClient:
    """One persistent connection; every call returns status and raw body."""

    def __init__(self, address: Sequence[object]) -> None:
        self._connection = http.client.HTTPConnection(
            str(address[0]), int(address[1]), timeout=120)
        self._connection.connect()

    def _request(self, method: str, path: str,
                 body: Optional[bytes]) -> Tuple[int, bytes]:
        self._connection.request(method, path, body=body, headers=_HEADERS)
        response = self._connection.getresponse()
        return response.status, response.read()

    def post(self, path: str, body: bytes) -> Tuple[int, bytes]:
        return self._request("POST", path, body)

    def get(self, path: str) -> Tuple[int, bytes]:
        return self._request("GET", path, None)

    def close(self) -> None:
        self._connection.close()


def encode(op: workloads.Op) -> Tuple[str, bytes]:
    """The route and JSON body of one operation."""
    if op.kind == "query":
        payload = {"dataset": op.dataset,
                   "constraint": {"coeffs": list(op.coeffs),
                                  "offset": op.offset}}
    else:
        payload = {"dataset": op.dataset, "point": list(op.point)}
    return "/" + op.kind, json.dumps(payload).encode("utf-8")


@dataclass
class Outcome:
    """What the generator saw of one operation."""

    position: int
    sent: float
    done: float
    ok: bool = False
    #: Why not, when ``ok`` is false.
    error: str = ""
    count: int = -1
    ios: int = 0
    cached: bool = False

    @property
    def latency_s(self) -> float:
        return self.done - self.sent


def read_answer(outcome: Outcome, kind: str, status: int,
                body: bytes) -> None:
    """Fill an outcome from a response; anything but a served 200 fails."""
    if status != 200:
        outcome.error = "status %d" % status
        return
    payload = json.loads(body)
    if payload.get("outcome") != "served":
        outcome.error = "outcome %r" % payload.get("outcome")
        return
    if kind == "query":
        answer = payload["answer"]
        outcome.count = answer["count"]
        outcome.ios = answer["ios"]
        outcome.cached = bool(answer["from_result_cache"])
        if len(answer["points"]) != outcome.count or answer["degraded"]:
            outcome.error = "incomplete answer"
            return
    elif not payload["mutation"]["applied"]:
        outcome.error = "mutation not applied"
        return
    outcome.ok = True


def run_phase(client: HttpClient, ops: Sequence[workloads.Op], first: int,
              max_seconds: float) -> Tuple[List[Outcome], List[float]]:
    """Send ``ops`` one after another; returns their outcomes and, taken
    after each, a sample of the host's speed.

    Operations not started within ``max_seconds`` are dropped (and
    reported missing).
    """
    encoded = [encode(op) for op in ops]
    outcomes: List[Outcome] = []
    samples: List[float] = []
    started = time.perf_counter()
    for index, (route, body) in enumerate(encoded):
        sent = time.perf_counter()
        if sent - started > max_seconds:
            break
        outcome = Outcome(position=first + index, sent=sent, done=sent)
        try:
            status, reply = client.post(route, body)
            outcome.done = time.perf_counter()
            read_answer(outcome, ops[index].kind, status, reply)
        except (OSError, http.client.HTTPException, ValueError,
                KeyError) as exc:
            outcome.done = time.perf_counter()
            outcome.error = "%s: %s" % (type(exc).__name__, exc)
        outcomes.append(outcome)
        samples.append(hostspeed.sample())
    return outcomes, samples

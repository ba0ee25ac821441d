"""The cluster's wire protocol: length-prefixed JSON over local sockets.

One message is a 4-byte big-endian length followed by that many bytes of
UTF-8 JSON — the same compact framing acp-agents uses between its
agent-servers.  Requests and responses are flat JSON objects; the module
also owns the (de)serialization of the engine's query objects
(:class:`~repro.geometry.primitives.LinearConstraint`, conjunctions) and
of :class:`~repro.io.store.IOStats`, so the worker and the coordinator
can never disagree on a field name.

JSON floats round-trip exactly (Python serializes the shortest repr that
parses back to the same float64), so a constraint or point crossing the
process boundary is *bit-identical* on the other side — which is what
lets process-worker mode promise answer- and I/O-count-identical results
to the in-process fan-out.

The RPC operations (``op`` field of every request):

========== ==========================================================
``ping``        liveness probe; returns pid, uptime and served counts
``query``       one constraint or conjunction against a named index
``insert``      apply one routed write (with its fan-out-log ``seq``)
``delete``      apply one routed delete (idempotent by ``seq``)
``warm``        resize the replica's buffer pool (returns the old size)
``stats``       cumulative I/O counters and calibration observations
``shutdown``    stop the serve loop and exit the process
========== ==========================================================

What a worker rebuilds its replica from — the dataset's
:class:`~repro.engine.catalog.ReplicaRecipe`, selectivity-model kind
and parameters included, and the parent's conformal-calibrator config —
does not travel over this protocol: it rides the fork at spawn time
(:class:`repro.engine.cluster.worker.ShardWorker`'s arguments); the
``stats`` response echoes the resulting model name and conformal config
back for introspection.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Dict, List, Optional, Sequence

from repro.core.conjunction import ConstraintConjunction, Halfspace
from repro.geometry.primitives import LinearConstraint
from repro.io.store import IOStats

#: Upper bound on one frame; a length above this means a corrupt or
#: foreign peer, not a real message (queries and answers are far
#: smaller; a full-shard answer of ~1e5 3-d points is ~8 MB of JSON).
MAX_MESSAGE_BYTES = 256 * 1024 * 1024

_LENGTH = struct.Struct(">I")


class ProtocolError(RuntimeError):
    """A malformed frame (bad length, truncated payload, invalid JSON)."""


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    """Read exactly ``count`` bytes or raise ``ConnectionError`` on EOF."""
    chunks: List[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionError(
                "peer closed mid-frame (%d of %d bytes missing)"
                % (remaining, count))
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def send_message(sock: socket.socket, payload: Dict[str, object]) -> None:
    """Frame and send one JSON message."""
    data = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    sock.sendall(_LENGTH.pack(len(data)) + data)


def recv_message(sock: socket.socket) -> Dict[str, object]:
    """Receive one framed JSON message (blocking)."""
    (length,) = _LENGTH.unpack(_recv_exact(sock, _LENGTH.size))
    if length > MAX_MESSAGE_BYTES:
        raise ProtocolError("frame of %d bytes exceeds the %d-byte cap"
                            % (length, MAX_MESSAGE_BYTES))
    try:
        return json.loads(_recv_exact(sock, length).decode("utf-8"))
    except ValueError as exc:
        raise ProtocolError("invalid JSON frame: %s" % exc) from exc


# ----------------------------------------------------------------------
# payload (de)serialization
# ----------------------------------------------------------------------
def constraint_to_wire(constraint: LinearConstraint) -> Dict[str, object]:
    return {"coeffs": list(constraint.coeffs),
            "offset": float(constraint.offset)}


def constraint_from_wire(payload: Dict[str, object]) -> LinearConstraint:
    return LinearConstraint(
        coeffs=tuple(float(c) for c in payload["coeffs"]),
        offset=float(payload["offset"]))


def conjunction_to_wire(
        conjunction: ConstraintConjunction) -> Dict[str, object]:
    return {
        "constraints": [constraint_to_wire(c)
                        for c in conjunction.constraints],
        "halfspaces": [{"normal": list(h.normal), "offset": float(h.offset)}
                       for h in conjunction.extra_halfspaces],
    }


def conjunction_from_wire(
        payload: Dict[str, object]) -> ConstraintConjunction:
    return ConstraintConjunction(
        constraints=tuple(constraint_from_wire(c)
                          for c in payload["constraints"]),
        extra_halfspaces=tuple(
            Halfspace(normal=tuple(float(v) for v in h["normal"]),
                      offset=float(h["offset"]))
            for h in payload.get("halfspaces", ())))


def iostats_to_wire(ios: IOStats) -> Dict[str, int]:
    return {"reads": ios.reads, "writes": ios.writes,
            "allocations": ios.allocations, "frees": ios.frees,
            "cache_hits": ios.cache_hits}


def iostats_from_wire(payload: Dict[str, object]) -> IOStats:
    return IOStats(reads=int(payload["reads"]),
                   writes=int(payload["writes"]),
                   allocations=int(payload.get("allocations", 0)),
                   frees=int(payload.get("frees", 0)),
                   cache_hits=int(payload.get("cache_hits", 0)))


def points_to_wire(points: Sequence[Sequence[float]]) -> List[List[float]]:
    return [[float(c) for c in point] for point in points]


def points_from_wire(payload: Sequence[Sequence[float]]) -> List[tuple]:
    # Answers come back as the same tuples the in-process path reports.
    return [tuple(float(c) for c in point) for point in payload]


def trace_header(trace_id: Optional[str],
                 parent: Optional[str]) -> Optional[Dict[str, str]]:
    """The trace-propagation header attached to traced RPCs."""
    if not trace_id:
        return None
    return {"trace_id": trace_id, "parent": parent or ""}

"""The cluster's wire protocol: length-prefixed frames over local sockets.

One message is a 4-byte big-endian length followed by that many bytes of
body — the same compact framing acp-agents uses between its
agent-servers.  A body is one of two shapes:

* **pure JSON** — a flat UTF-8 JSON object (every request, and every
  response without an answer: ping, insert, delete, warm, stats);
* **mixed** — a 4-byte big-endian header length, a JSON object of that
  many bytes, then the raw little-endian float64 bytes of one ``(rows,
  cols)`` matrix.  The header carries every other field and, under
  ``"points"``, the ``[rows, cols]`` shape the blob must match: the
  ``(rows, cols)`` + ``tobytes()`` convention
  :class:`~repro.io.backend.FileBackend` stores point blocks with.
  :func:`send_message` ships any ndarray-valued ``points`` field this
  way; :func:`recv_message` hands it back as a zero-copy read-only view
  of the one buffer the frame was received into.

A JSON object starts with ``{`` (0x7B) and a header length never can
(it would exceed :data:`MAX_MESSAGE_BYTES`), so the first byte of a body
tells the shapes apart.  The module also owns the (de)serialization of
the engine's query objects
(:class:`~repro.geometry.primitives.LinearConstraint` and conjunctions,
one pair of functions), of points and of :class:`~repro.io.store.IOStats`,
so the worker, the coordinator and the HTTP client can never disagree on
a field name.

Both shapes are *bit-identical* across the process boundary: JSON floats
round-trip exactly (Python serializes the shortest repr that parses back
to the same float64), which covers constraints and written points, and
an answer's float64 bytes are never re-encoded at all — ``-0.0``,
subnormals and the extremes of the range arrive as they left.  That is
what lets process-worker mode promise answer- and I/O-count-identical
results to the in-process fan-out.

The RPC operations (``op`` field of every request):

========== ==========================================================
``ping``        heartbeat; returns pid, uptime, replica, served and
                write counts, cumulative I/Os, the peak RSS and the
                frame bytes the worker received and sent
``query``       one query (:func:`query_to_wire`) against a named index
``insert``      apply one routed write (with its fan-out-log ``seq``)
``delete``      apply one routed delete (idempotent by ``seq``)
``warm``        resize the replica's buffer pool (returns the old size)
``shutdown``    stop the serve loop and exit the process
========== ==========================================================

What a worker rebuilds its replica from — the dataset's
:class:`~repro.engine.catalog.ReplicaRecipe` — does not travel over this
protocol: it rides the fork at spawn time
(:class:`repro.engine.cluster.worker.ShardWorker`'s arguments).
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.conjunction import ConstraintConjunction, Halfspace
from repro.geometry.primitives import LinearConstraint
from repro.io.store import IOStats

#: What a ``query`` request carries: a constraint or a conjunction.
Query = Union[LinearConstraint, ConstraintConjunction]

#: Upper bound on one frame; a length above this means a corrupt or
#: foreign peer, not a real message (queries are a few hundred bytes; a
#: full-shard answer of ~1e5 3-d points is 2.4 MB of float64).
MAX_MESSAGE_BYTES = 256 * 1024 * 1024

_LENGTH = struct.Struct(">I")

#: Element type of an answer on the wire, whatever the host's byte order.
_WIRE_DTYPE = np.dtype("<f8")


class ProtocolError(RuntimeError):
    """A malformed frame (bad length, truncated payload, invalid JSON)."""


#: The first allocation of a frame's buffer, which then at most doubles
#: as its bytes arrive: a length field that lies costs memory for the
#: bytes really sent, not for the length it claims.
_RECV_STEP = 1 << 20


def _recv_exact(sock: socket.socket, count: int) -> bytearray:
    """Read exactly ``count`` bytes or raise ``ConnectionError`` on EOF."""
    buffer = bytearray(min(count, _RECV_STEP))
    received = 0
    while received < count:
        if received == len(buffer):
            buffer += bytes(min(count - received, received))
        got = sock.recv_into(memoryview(buffer)[received:])
        if not got:
            raise ConnectionError(
                "peer closed mid-frame (%d of %d bytes missing)"
                % (count - received, count))
        received += got
    return buffer


def _dump(payload: Dict[str, object]) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def _load(data: bytearray) -> Dict[str, object]:
    """One JSON object, or :class:`ProtocolError`."""
    try:
        payload = json.loads(data)
    except (ValueError, RecursionError) as exc:
        # RecursionError: nesting deeper than the parser's stack.
        raise ProtocolError("invalid JSON frame: %s" % exc) from exc
    if not isinstance(payload, dict):
        raise ProtocolError("frame is a JSON %s, not an object"
                            % type(payload).__name__)
    return payload


def send_message(sock: socket.socket, payload: Dict[str, object]) -> int:
    """Frame and send one message (mixed when ``points`` is an ndarray);
    returns the bytes sent, length prefix included."""
    points = payload.get("points")
    if not isinstance(points, np.ndarray):
        data = _dump(payload)
        sock.sendall(_LENGTH.pack(len(data)) + data)
        return _LENGTH.size + len(data)
    matrix = np.ascontiguousarray(points, dtype=_WIRE_DTYPE)
    header = _dump(dict(payload, points=list(matrix.shape)))
    sock.sendall(_LENGTH.pack(_LENGTH.size + len(header) + matrix.nbytes)
                 + _LENGTH.pack(len(header)) + header)
    sock.sendall(matrix.reshape(-1).view(np.uint8))
    return 2 * _LENGTH.size + len(header) + matrix.nbytes


def recv_message(sock: socket.socket) -> Dict[str, object]:
    """Receive one framed message (blocking); see the module docstring."""
    return recv_frame(sock)[0]


def recv_frame(sock: socket.socket) -> Tuple[Dict[str, object], int]:
    """:func:`recv_message`'s message and the bytes its frame took,
    length prefix included."""
    (length,) = _LENGTH.unpack(_recv_exact(sock, _LENGTH.size))
    if length > MAX_MESSAGE_BYTES:
        raise ProtocolError("frame of %d bytes exceeds the %d-byte cap"
                            % (length, MAX_MESSAGE_BYTES))
    body = _recv_exact(sock, length)
    if body[:1] == b"{" or length < _LENGTH.size:
        return _load(body), _LENGTH.size + length
    (header_length,) = _LENGTH.unpack_from(body)
    blob_at = _LENGTH.size + header_length
    if blob_at > length:
        raise ProtocolError("header of %d bytes overruns its %d-byte frame"
                            % (header_length, length))
    payload = _load(body[_LENGTH.size:blob_at])
    shape = payload.get("points")
    if (not isinstance(shape, list) or len(shape) != 2
            or not all(type(n) is int and 0 <= n <= MAX_MESSAGE_BYTES
                       for n in shape)
            or shape[0] * shape[1] * _WIRE_DTYPE.itemsize
            != length - blob_at):
        raise ProtocolError("header shape %r does not match its %d-byte blob"
                            % (shape, length - blob_at))
    matrix = np.frombuffer(body, dtype=_WIRE_DTYPE, offset=blob_at,
                           count=shape[0] * shape[1]).reshape(shape)
    matrix.setflags(write=False)
    payload["points"] = matrix
    return payload, _LENGTH.size + length


# ----------------------------------------------------------------------
# payload (de)serialization
# ----------------------------------------------------------------------
def point_to_wire(point: Sequence[float]) -> List[float]:
    """One point (or coefficient vector) as a JSON list of plain floats."""
    return [float(c) for c in point]


def query_to_wire(query: Query) -> Dict[str, object]:
    """A constraint as ``{"coeffs", "offset"}``; a conjunction as its
    ``constraints`` in order (the first is the one an index outside the
    cell-tree walk answers) and its extra ``halfspaces``."""
    if isinstance(query, ConstraintConjunction):
        return {"constraints": [query_to_wire(c) for c in query.constraints],
                "halfspaces": [{"normal": point_to_wire(h.normal),
                                "offset": float(h.offset)}
                               for h in query.extra_halfspaces]}
    return {"coeffs": point_to_wire(query.coeffs),
            "offset": float(query.offset)}


def query_from_wire(payload: Dict[str, object]) -> Query:
    """The query :func:`query_to_wire` encoded, bit for bit."""
    if "constraints" in payload:
        return ConstraintConjunction(
            constraints=tuple(query_from_wire(c)
                              for c in payload["constraints"]),
            extra_halfspaces=tuple(
                Halfspace(normal=tuple(float(v) for v in h["normal"]),
                          offset=float(h["offset"]))
                for h in payload.get("halfspaces", ())))
    return LinearConstraint(
        coeffs=tuple(float(c) for c in payload["coeffs"]),
        offset=float(payload["offset"]))


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


def points_to_wire(points: Sequence[Sequence[float]]) -> np.ndarray:
    """An answer (or any point list) as the ``(n, d)`` float64 matrix
    :func:`send_message` ships raw; an answer matrix is not copied."""
    return np.asarray(points, dtype=_WIRE_DTYPE)


def points_from_wire(payload: np.ndarray) -> np.ndarray:
    """The received read-only matrix: the answer the in-process path
    reports, as it is."""
    return payload


def trace_header(trace_id: Optional[str],
                 parent: Optional[str]) -> Optional[Dict[str, str]]:
    """The trace-propagation header attached to traced RPCs."""
    if not trace_id:
        return None
    return {"trace_id": trace_id, "parent": parent or ""}

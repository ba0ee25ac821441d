"""Hostile input: generated frames and requests end promptly and cleanly.

The binary RPC decoder (``cluster/protocol.recv_message``) reads one
frame off a socket; the HTTP parser (``server/protocol.read_request``)
reads one request off a stream.  Both face peers that send anything.
Seeded with the known-bad frames of ``test_cluster.MALFORMED_FRAMES``
and with well-formed messages, hypothesis flips bits, truncates,
inserts bytes and rewrites length fields.  Every RPC input must end
within 2 s in a message, a ``ProtocolError`` or a ``ConnectionError``;
every HTTP input in a request, None (a clean close) or the parser's
refusal — a 4xx, or the 501 RFC 9112 asks for an unknown transfer
coding.  Nothing may hang or raise anything else.
"""

import asyncio
import json
import socket
import struct
import threading
import time

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.engine.cluster import protocol
from repro.engine.server.protocol import (STREAM_LIMIT, HTTPError,
                                          HTTPRequest, read_request)

from test_cluster import MALFORMED_FRAMES, json_frame, mixed_frame

#: How long one input may take to end.
PROMPT_S = 2.0


def _wire(payload) -> bytes:
    """The bytes ``send_message`` puts on the wire for ``payload``."""
    near, far = socket.socketpair()
    with near, far:
        protocol.send_message(near, payload)
        near.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = far.recv(1 << 16)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


RPC_SEEDS = sorted(MALFORMED_FRAMES.values()) + [
    _wire({"op": "query", "index": "partition_tree",
           "constraint": {"coeffs": [0.5, -1.0], "offset": 0.25}}),
    _wire({"ok": True, "points": np.arange(12.0).reshape(4, 3),
           "ios": {"reads": 3}}),
    json_frame(b'{"ok":true}'),
    mixed_frame(b'{"ok":true,"points":[0,2]}', b""),
]

HTTP_SEEDS = [
    b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n",
    b"GET /datasets/pts?limit=3&x= HTTP/1.0\r\nConnection: keep-alive\r\n"
    b"\r\n",
    b"POST /query HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n"
    b"Content-Length: 45\r\n\r\n"
    b'{"dataset":"pts","coeffs":[0.5],"offset":0.1}',
    b"POST /insert HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
    b"5;ext=1\r\n{\"a\":\r\n3\r\n[1]\r\n1\r\n}\r\n0\r\nX-Trailer: y\r\n\r\n",
    b"POST /query HTTP/1.1\r\nContent-Length: 4\r\n"
    b"Transfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
    b"PUT /x HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
    b"GET / HTTP/2\r\n\r\n",
    b"",
]


@st.composite
def mutated(draw, seeds, length_fields):
    """A seed with up to four edits: a bit flip, a truncation, an
    inserted run of bytes, or (for RPC frames) a rewritten 4-byte
    big-endian length field."""
    data = bytearray(draw(st.sampled_from(seeds)))
    for __ in range(draw(st.integers(0, 4))):
        edit = draw(st.sampled_from(["flip", "truncate", "insert",
                                     "length"]))
        if edit == "flip" and data:
            at = draw(st.integers(0, len(data) - 1))
            data[at] ^= 1 << draw(st.integers(0, 7))
        elif edit == "truncate":
            del data[draw(st.integers(0, len(data))):]
        elif edit == "insert":
            at = draw(st.integers(0, len(data)))
            data[at:at] = draw(st.binary(min_size=1, max_size=8))
        elif edit == "length" and length_fields and len(data) >= 4:
            at = draw(st.sampled_from([0, 4] if len(data) >= 8 else [0]))
            data[at:at + 4] = struct.pack(">I", draw(st.one_of(
                st.integers(0, 64), st.integers(0, len(data) + 64),
                st.integers(0, 2 ** 32 - 1))))
    return bytes(data)


def _send_and_close(sock: socket.socket, data: bytes) -> None:
    try:
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
    except OSError:         # the reader gave up early and closed
        pass


@settings(max_examples=300, deadline=None)
@given(frame=mutated(RPC_SEEDS, True))
def test_a_hostile_frame_ends_in_a_message_or_a_protocol_error(frame):
    near, far = socket.socketpair()
    far.settimeout(PROMPT_S)
    sender = threading.Thread(target=_send_and_close, args=(near, frame))
    sender.start()
    started = time.perf_counter()
    try:
        outcome = protocol.recv_message(far)
    except (protocol.ProtocolError, ConnectionError) as exc:
        outcome = exc
    finally:
        elapsed = time.perf_counter() - started
        far.close()
        sender.join()
        near.close()
    assert elapsed < PROMPT_S
    assert isinstance(outcome, (dict, protocol.ProtocolError,
                                ConnectionError))
    if isinstance(outcome, dict):
        points = outcome.get("points")
        if isinstance(points, np.ndarray):
            assert points.ndim == 2 and not points.flags.writeable


async def _parse(data: bytes):
    reader = asyncio.StreamReader(limit=STREAM_LIMIT)
    reader.feed_data(data)
    reader.feed_eof()
    try:
        return await asyncio.wait_for(read_request(reader), PROMPT_S)
    except HTTPError as exc:
        return exc


@settings(max_examples=300, deadline=None)
@given(request=mutated(HTTP_SEEDS, False))
def test_a_hostile_request_ends_in_a_request_or_a_refusal(request):
    started = time.perf_counter()
    outcome = asyncio.run(_parse(request))
    assert time.perf_counter() - started < PROMPT_S
    if isinstance(outcome, HTTPError):
        assert 400 <= outcome.status < 500 or (
            outcome.status, outcome.code)\
            == (501, "unsupported_transfer_encoding"), outcome.status
        json.dumps(outcome.payload())
    else:
        assert outcome is None or isinstance(outcome, HTTPRequest)


def test_a_lying_length_field_allocates_for_the_bytes_sent():
    """A frame header claiming the 256 MB cap, followed by a few bytes
    and a close: the decoder gives up with a ConnectionError having
    grown its buffer no further than its first step."""
    near, far = socket.socketpair()
    with near, far:
        near.sendall(struct.pack(">I", protocol.MAX_MESSAGE_BYTES)
                     + b"{" * 10)
        near.shutdown(socket.SHUT_WR)
        grown = []
        recv_into = far.recv_into

        class Watched:
            def recv_into(self, view):
                grown.append(len(view.obj))
                return recv_into(view)

        started = time.perf_counter()
        try:
            protocol._recv_exact(Watched(), protocol.MAX_MESSAGE_BYTES)
        except ConnectionError:
            pass
        else:
            raise AssertionError("a truncated frame was accepted")
        assert time.perf_counter() - started < PROMPT_S
        assert max(grown) <= protocol._RECV_STEP

"""The wire layer of the network front-end: HTTP/1.1 parsing and the
JSON request schema.

Requests are parsed off an :mod:`asyncio` stream reader (request line,
headers, ``Content-Length`` body), responses are rendered as bytes, and
Server-Sent Events are framed for the streaming endpoint; all of it is
stdlib except an answer's points, which :func:`served_body` has the
``matrix_json`` kernel write.  Validation failures raise
:class:`HTTPError` — a structured status + machine-readable code +
human message — which the app layer turns into a JSON error body, so a
client never has to parse prose to find out *what* was wrong.

The JSON schema maps straight onto
:class:`~repro.engine.serving.ServingRequest`:

* queries: ``{"dataset": str, "constraint": {"coeffs": [a_1..a_{d-1}],
  "offset": a_0}, "priority": int?, "deadline_s": number?}`` — the
  constraint is the paper's ``x_d <= offset + sum coeffs[i] * x_i``
  form, so ``len(coeffs) + 1`` must equal the dataset's dimension;
* mutations: ``{"dataset": str, "point": [x_1..x_d], "priority": int?,
  "deadline_s": number?}``;
* the SSE endpoint is a GET, so its query rides the URL:
  ``?dataset=...&coeffs=0.2,-0.1&offset=0.5&priority=0&deadline_s=2``.
"""

from __future__ import annotations

import asyncio
import json
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple
from urllib.parse import parse_qsl, unquote, urlsplit

from repro.core.kernels import matrix_json
from repro.engine.serving.queue import ServingRequest
from repro.geometry.primitives import LinearConstraint

#: Upper bound on accepted JSON bodies (a constraint or a point is tiny;
#: anything near this is a client bug or abuse).
MAX_BODY_BYTES = 1 << 20
#: Upper bound on the request line + headers.
MAX_HEADER_BYTES = 32 * 1024
#: Stream-reader buffer limit a server hosting this protocol should use.
STREAM_LIMIT = MAX_HEADER_BYTES + MAX_BODY_BYTES

_REASONS = {
    200: "OK", 400: "Bad Request", 401: "Unauthorized", 404: "Not Found",
    405: "Method Not Allowed", 411: "Length Required",
    413: "Payload Too Large",
    429: "Too Many Requests", 431: "Request Header Fields Too Large",
    500: "Internal Server Error", 501: "Not Implemented",
    503: "Service Unavailable", 504: "Gateway Timeout",
}

#: Methods whose requests carry a body on this API (everything else may
#: legitimately omit Content-Length).
_BODY_METHODS = ("POST", "PUT", "PATCH")


class HTTPError(Exception):
    """A request the server refuses, as status + code + message.

    ``code`` is the stable machine-readable discriminator clients switch
    on; ``message`` is for humans.  ``retry_after_s`` (rate limiting)
    becomes a ``Retry-After`` header.  ``method``/``path`` are filled in
    by the parser once the request line is known, so even a refused
    request can be attributed to its endpoint in the metrics.
    """

    def __init__(self, status: int, code: str, message: str,
                 retry_after_s: Optional[float] = None):
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message
        self.retry_after_s = retry_after_s
        self.method: Optional[str] = None
        self.path: Optional[str] = None

    def payload(self) -> Dict[str, object]:
        """The JSON error body every non-2xx response carries."""
        return {"error": {"code": self.code, "message": self.message}}


@dataclass
class HTTPRequest:
    """One parsed HTTP request (headers lowercased, query string split)."""

    method: str
    path: str
    query: Dict[str, str]
    headers: Dict[str, str]
    body: bytes = b""
    version: str = "HTTP/1.1"

    @property
    def keep_alive(self) -> bool:
        """The version's default — HTTP/1.1 persists, HTTP/1.0 closes —
        unless the ``Connection`` header says otherwise."""
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"

    def json(self) -> Dict[str, object]:
        """The body as a JSON object (structured 400s otherwise)."""
        if not self.body:
            raise HTTPError(400, "empty_body",
                            "request body must be a JSON object")
        try:
            payload = json.loads(self.body.decode("utf-8"))
        except (ValueError, RecursionError):
            # ValueError covers invalid UTF-8; RecursionError is nesting
            # deeper than the parser's stack.
            raise HTTPError(400, "bad_json",
                            "request body is not valid JSON")
        if not isinstance(payload, dict):
            raise HTTPError(400, "bad_json",
                            "request body must be a JSON object, got %s"
                            % type(payload).__name__)
        return payload


async def read_request(reader: asyncio.StreamReader) -> Optional[HTTPRequest]:
    """Parse one request off the stream.

    Returns None when the peer closed the connection cleanly between
    requests (the keep-alive idle case); raises :class:`HTTPError` on
    malformed input — the connection handler answers it and closes.
    """
    try:
        raw = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial.strip():
            return None
        raise HTTPError(400, "truncated_request",
                        "connection closed mid-headers")
    except asyncio.LimitOverrunError:
        raise HTTPError(431, "headers_too_large",
                        "request headers exceed %d bytes" % MAX_HEADER_BYTES)
    if len(raw) > MAX_HEADER_BYTES:
        raise HTTPError(431, "headers_too_large",
                        "request headers exceed %d bytes" % MAX_HEADER_BYTES)
    head = raw.decode("latin-1")
    lines = head.split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HTTPError(400, "bad_request_line",
                        "malformed HTTP request line: %r" % lines[0][:80])
    method, target = parts[0].upper(), parts[1]
    try:
        split = urlsplit(target)
    except ValueError:
        raise HTTPError(400, "bad_target",
                        "malformed request target: %r" % target[:80])
    path = unquote(split.path) or "/"
    query = dict(parse_qsl(split.query, keep_blank_values=True))
    # From here the endpoint is known: annotate any refusal with it so
    # the connection handler can attribute the error to a real route.
    try:
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            if ":" not in line:
                raise HTTPError(400, "bad_header",
                                "malformed header line: %r" % line[:80])
            key, __, value = line.partition(":")
            headers[key.strip().lower()] = value.strip()
        body = await _read_body(reader, method, headers)
    except HTTPError as exc:
        exc.method = exc.method or method
        exc.path = exc.path or path
        raise
    return HTTPRequest(method=method, path=path, query=query,
                       headers=headers, body=body, version=parts[2])


async def _read_body(reader: asyncio.StreamReader, method: str,
                     headers: Dict[str, str]) -> bytes:
    """The request body: Content-Length framed, chunked, or absent.

    Chunked transfer encoding is decoded transparently (same
    :data:`MAX_BODY_BYTES` cap as plain bodies).  A body-carrying method
    with neither framing header gets the proper ``411 Length Required``,
    and a request claiming *both* framings is refused — that ambiguity
    is the classic request-smuggling vector.
    """
    length_header = headers.get("content-length")
    encoding = headers.get("transfer-encoding")
    if encoding is not None:
        codings = [part.strip().lower() for part in encoding.split(",")
                   if part.strip()]
        if codings != ["chunked"]:
            raise HTTPError(501, "unsupported_transfer_encoding",
                            "the only supported Transfer-Encoding is "
                            "'chunked', got %r" % encoding[:40])
        if length_header is not None:
            raise HTTPError(400, "ambiguous_length",
                            "a request must not carry both Content-Length "
                            "and Transfer-Encoding: chunked")
        return await _read_chunked(reader)
    if length_header is None:
        if method in _BODY_METHODS:
            raise HTTPError(411, "length_required",
                            "%s requests must carry Content-Length (or a "
                            "chunked body)" % method)
        return b""
    try:
        length = int(length_header)
    except ValueError:
        raise HTTPError(400, "bad_content_length",
                        "Content-Length is not an integer: %r"
                        % length_header[:40])
    if length < 0:
        raise HTTPError(400, "bad_content_length",
                        "Content-Length must be >= 0")
    if length > MAX_BODY_BYTES:
        raise HTTPError(413, "body_too_large",
                        "request body exceeds %d bytes" % MAX_BODY_BYTES)
    if not length:
        return b""
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise HTTPError(400, "truncated_body",
                        "connection closed before Content-Length "
                        "bytes arrived")


async def _read_chunked(reader: asyncio.StreamReader) -> bytes:
    """Decode one chunked-transfer-encoded body off the stream.

    Chunk extensions are ignored; trailers are consumed and discarded.
    The decoded body obeys the same :data:`MAX_BODY_BYTES` cap as a
    Content-Length one (checked incrementally, so an attacker cannot
    buffer past it by declaring many small chunks).
    """
    chunks: List[bytes] = []
    total = 0
    try:
        while True:
            size_line = await reader.readuntil(b"\r\n")
            size_text = size_line[:-2].split(b";", 1)[0].strip()
            try:
                size = int(size_text, 16)
            except ValueError:
                raise HTTPError(400, "bad_chunk_size",
                                "malformed chunk size: %r"
                                % size_text[:40].decode("latin-1"))
            if size < 0:
                raise HTTPError(400, "bad_chunk_size",
                                "chunk size must be >= 0")
            if size == 0:
                # Trailer section: header lines until the blank terminator.
                while True:
                    trailer = await reader.readuntil(b"\r\n")
                    if trailer == b"\r\n":
                        return b"".join(chunks)
            total += size
            if total > MAX_BODY_BYTES:
                raise HTTPError(413, "body_too_large",
                                "request body exceeds %d bytes"
                                % MAX_BODY_BYTES)
            data = await reader.readexactly(size + 2)
            if data[-2:] != b"\r\n":
                raise HTTPError(400, "bad_chunk",
                                "chunk data not terminated by CRLF")
            chunks.append(data[:-2])
    except asyncio.IncompleteReadError:
        raise HTTPError(400, "truncated_chunk",
                        "connection closed mid-chunked-body")
    except asyncio.LimitOverrunError:
        raise HTTPError(400, "bad_chunk_size", "chunk size line too long")


def render_response(status: int, body: bytes,
                    content_type: str = "application/json",
                    keep_alive: bool = True,
                    extra_headers: Iterable[Tuple[str, str]] = ()) -> bytes:
    """One complete Content-Length-framed HTTP/1.1 response."""
    head = [
        "HTTP/1.1 %d %s" % (status, _REASONS.get(status, "Unknown")),
        "Content-Type: %s" % content_type,
        "Content-Length: %d" % len(body),
        "Connection: %s" % ("keep-alive" if keep_alive else "close"),
    ]
    head.extend("%s: %s" % pair for pair in extra_headers)
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


def json_body(payload: object) -> bytes:
    """A JSON response body (strict JSON: NaN/Infinity refused)."""
    return json.dumps(payload, allow_nan=False).encode("utf-8")


def sse_preamble() -> bytes:
    """Response head of a Server-Sent-Events stream.

    No Content-Length: the stream is framed by connection close, which
    every HTTP/1.1 client understands (and is why SSE responses always
    answer ``Connection: close``).
    """
    return (b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n\r\n")


def served_body(payload: Dict[str, object]) -> bytes:
    """The JSON body of a scheduler outcome — ``POST /query``, the
    mutations, the SSE ``result`` event.

    An ``answer`` member carries its ``points`` as the answer's float64
    matrix, and that is the one thing here ``json.dumps`` does not
    render: the envelope and the rest of ``answer`` are rendered apart
    and ``matrix_json``'s text goes in as the last member of ``answer``,
    itself the last member of the body.
    """
    answer = payload.get("answer")
    if answer is None:
        return json_body(payload)
    envelope = {key: value for key, value in payload.items()
                if key != "answer"}
    header = {key: value for key, value in answer.items()
              if key != "points"}
    return b"".join((json_body(envelope)[:-1], b', "answer": ',
                     json_body(header)[:-1], b', "points": ',
                     matrix_json(answer["points"]), b"}}"))


def sse_event(event: str, body: bytes) -> bytes:
    """One named SSE event with a JSON body as its data line."""
    return b"event: %s\ndata: %s\n\n" % (event.encode("ascii"), body)


# ----------------------------------------------------------------------
# wire schema -> ServingRequest
# ----------------------------------------------------------------------
def _require_number(value: object, code: str, what: str) -> float:
    """A finite float, or the caller's 400.

    Python's JSON parser (and ``float()`` on a query-string value)
    accepts NaN and +-Infinity; none of them is a coefficient, a
    coordinate or a deadline — a NaN deadline would sit in the shared
    priority heap comparing false against everything and never expire.
    An integer literal beyond float range parses to an ``int`` that
    ``float()`` refuses with ``OverflowError``: infinite, like ``1e400``.
    """
    number = math.nan
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
    if not math.isfinite(number):
        raise HTTPError(400, code, "%s must be a finite number, got %r"
                        % (what, value))
    return number


def _common_fields(payload: Dict[str, object]
                   ) -> Tuple[str, int, Optional[float]]:
    dataset = payload.get("dataset")
    if not isinstance(dataset, str) or not dataset:
        raise HTTPError(400, "missing_dataset",
                        "'dataset' must be a non-empty string")
    priority = payload.get("priority", 0)
    if isinstance(priority, bool) or not isinstance(priority, int):
        raise HTTPError(400, "bad_priority",
                        "'priority' must be an integer (lower runs first)")
    deadline_s = payload.get("deadline_s")
    if deadline_s is not None:
        deadline_s = _require_number(deadline_s, "bad_deadline",
                                     "'deadline_s'")
    return dataset, priority, deadline_s


def constraint_from_payload(payload: Dict[str, object]) -> LinearConstraint:
    """The ``constraint`` object of a query body, validated."""
    spec = payload.get("constraint")
    if not isinstance(spec, dict):
        raise HTTPError(400, "missing_constraint",
                        "'constraint' must be an object with 'coeffs' "
                        "and 'offset'")
    coeffs = spec.get("coeffs")
    if not isinstance(coeffs, (list, tuple)) or not coeffs:
        raise HTTPError(400, "bad_constraint",
                        "'constraint.coeffs' must be a non-empty list of "
                        "numbers (a_1..a_{d-1} of x_d <= a_0 + sum a_i x_i)")
    coeffs = tuple(_require_number(c, "bad_constraint",
                                   "'constraint.coeffs' entries")
                   for c in coeffs)
    offset = _require_number(spec.get("offset"), "bad_constraint",
                             "'constraint.offset'")
    return LinearConstraint(coeffs=coeffs, offset=offset)


def parse_query_request(payload: Dict[str, object],
                        tenant: str) -> ServingRequest:
    """A ``POST /query`` body as a serving request for ``tenant``."""
    dataset, priority, deadline_s = _common_fields(payload)
    constraint = constraint_from_payload(payload)
    return ServingRequest(tenant=tenant, dataset=dataset,
                          constraint=constraint, priority=priority,
                          deadline_s=deadline_s)


def parse_mutation_request(payload: Dict[str, object], tenant: str,
                           op: str) -> ServingRequest:
    """A ``POST /insert`` / ``POST /delete`` body as a serving request."""
    dataset, priority, deadline_s = _common_fields(payload)
    point = payload.get("point")
    if not isinstance(point, (list, tuple)) or len(point) < 2:
        raise HTTPError(400, "bad_point",
                        "'point' must be a list of >= 2 numbers")
    record = tuple(_require_number(c, "bad_point", "'point' entries")
                   for c in point)
    return ServingRequest(tenant=tenant, dataset=dataset, op=op,
                          point=record, priority=priority,
                          deadline_s=deadline_s)


def parse_stream_query(params: Dict[str, str],
                       tenant: str) -> ServingRequest:
    """A ``GET /query/stream`` query string as a serving request.

    Same schema as the POST body, flattened into URL parameters:
    ``coeffs`` comma-separated, ``offset``/``priority``/``deadline_s``
    scalar.
    """
    payload: Dict[str, object] = {"dataset": params.get("dataset")}
    raw_coeffs = params.get("coeffs", "")
    try:
        coeffs = [float(part) for part in raw_coeffs.split(",")
                  if part.strip()]
    except ValueError:
        raise HTTPError(400, "bad_constraint",
                        "'coeffs' must be comma-separated numbers, got %r"
                        % raw_coeffs[:80])
    spec: Dict[str, object] = {"coeffs": coeffs}
    if "offset" in params:
        try:
            spec["offset"] = float(params["offset"])
        except ValueError:
            raise HTTPError(400, "bad_constraint",
                            "'offset' must be a number, got %r"
                            % params["offset"][:40])
    payload["constraint"] = spec
    if "priority" in params:
        try:
            payload["priority"] = int(params["priority"])
        except ValueError:
            raise HTTPError(400, "bad_priority",
                            "'priority' must be an integer, got %r"
                            % params["priority"][:40])
    if "deadline_s" in params:
        try:
            payload["deadline_s"] = float(params["deadline_s"])
        except ValueError:
            raise HTTPError(400, "bad_deadline",
                            "'deadline_s' must be a number, got %r"
                            % params["deadline_s"][:40])
    return parse_query_request(payload, tenant)

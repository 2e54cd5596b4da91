"""The station wire protocol: length-prefixed binary frames.

The deployment of Section 2 puts a network between the server that
stores the encrypted document and the terminal/SOE pair that renders
authorized views.  This module defines the one wire format both ends
speak — a fixed 11-byte header followed by an opaque payload::

    +-------+---------+------+------------+----------------+---------+
    | MAGIC | VERSION | TYPE | SESSION ID | PAYLOAD LENGTH | PAYLOAD |
    |  1 B  |   1 B   | 1 B  |  4 B (BE)  |    4 B (BE)    |  0..N B |
    +-------+---------+------+------------+----------------+---------+

Protocol **version 2** extends the header with a 64-bit trace id for
request tracing (``repro.obs``) — 8 extra bytes between PAYLOAD LENGTH
and PAYLOAD::

    +-------+-----------+------+------------+----------------+------------+---------+
    | MAGIC | VERSION=2 | TYPE | SESSION ID | PAYLOAD LENGTH |  TRACE ID  | PAYLOAD |
    |  1 B  |    1 B    | 1 B  |  4 B (BE)  |    4 B (BE)    |  8 B (BE)  |  0..N B |
    +-------+-----------+------+------------+----------------+------------+---------+

The bump is backward compatible in both directions that matter:
encoders emit a version-1 header whenever the trace id is 0 (untraced
traffic is byte-identical to the old protocol, so new senders
interoperate with old peers), and the decoder accepts version-1 and
version-2 frames interleaved on the same stream.

Control payloads (HELLO, WELCOME, QUERY, RESULT, ERROR, STATS,
UPDATE, INVALIDATED, and the cluster frames FORWARD, TOPOLOGY,
PING/PONG) are UTF-8 JSON objects; CHUNK payloads are raw
bytes of the serialized authorized view (optionally sealed under the
session link key).  INVALIDATED is the one server-*push* frame: it may
arrive at any point in the stream (even between the CHUNKs of another
request) and announces that a document changed version, so clients
must treat it out-of-band.  The
:class:`FrameDecoder` is incremental — feed it arbitrary byte slices
from a socket or an asyncio reader and it yields complete frames —
so the same code serves the blocking client SDK and the asyncio
server.  Every malformed input (bad magic/version, unknown type,
oversized payload) raises :class:`ProtocolError` rather than
desynchronizing the stream.
"""

from __future__ import annotations

import json
import struct
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple, Union

MAGIC = 0xC5
VERSION = 1
#: Header version carrying a 64-bit trace id (request tracing).
TRACE_VERSION = 2

_HEADER = struct.Struct("!BBBII")
_TRACE = struct.Struct("!Q")
HEADER_SIZE = _HEADER.size  # 11 bytes (version 1)
TRACE_HEADER_SIZE = HEADER_SIZE + _TRACE.size  # 19 bytes (version 2)
MAX_TRACE_ID = (1 << 64) - 1

#: Hard ceiling on one frame's payload; both sides enforce it so a
#: corrupt or hostile length field cannot force an 4 GiB allocation.
DEFAULT_MAX_PAYLOAD = 1 << 20

# Frame types ----------------------------------------------------------
HELLO = 0x01  # client -> server: {"subject": ...}
WELCOME = 0x02  # server -> client: {"session": ..., "key": ..., "limits": ...}
QUERY = 0x03  # client -> server: {"document": ..., "query": ...}
CHUNK = 0x04  # server -> client: raw view bytes (one bounded slice)
RESULT = 0x05  # server -> client: end-of-stream trailer (counts, seconds)
ERROR = 0x06  # server -> client: {"code": ..., "message": ...}
STATS_REQUEST = 0x07  # client -> server: {}
STATS = 0x08  # server -> client: {"station": ..., "server": ..., "meter": ...}
BYE = 0x09  # client -> server: graceful close
UPDATE = 0x0A  # client -> server: {"document": ..., "op": {...}}
INVALIDATED = 0x0B  # server -> client (push): {"document": ..., "version": ...}
# Cluster frames (repro.cluster).  FORWARD is the gateway -> backend
# impersonation frame: a backend honors it only on a connection whose
# HELLO declared {"gateway": true} (and the server was started with
# allow_forward); its "spans": true asks for the backend's span tree
# in the RESULT trailer (sent only by a gateway that keeps one).
# TOPOLOGY is the gateway's control frame; PING/PONG is the health
# probe every server answers, even before HELLO.  Type 0x0F is
# unassigned: a decoder refuses it like any unknown type.
FORWARD = 0x0C  # gateway -> backend: {"kind": "query"|"update", "subject": ...}
TOPOLOGY_REQUEST = 0x0D  # client -> gateway: {}
TOPOLOGY = 0x0E  # gateway -> client: {"backends": ..., "documents": ...}
PING = 0x10  # any -> server: {}
PONG = 0x11  # server -> any: {"ok": ..., "documents": {id: version}, ...}

TYPE_NAMES = {
    HELLO: "HELLO",
    WELCOME: "WELCOME",
    QUERY: "QUERY",
    CHUNK: "CHUNK",
    RESULT: "RESULT",
    ERROR: "ERROR",
    STATS_REQUEST: "STATS_REQUEST",
    STATS: "STATS",
    BYE: "BYE",
    UPDATE: "UPDATE",
    INVALIDATED: "INVALIDATED",
    FORWARD: "FORWARD",
    TOPOLOGY_REQUEST: "TOPOLOGY_REQUEST",
    TOPOLOGY: "TOPOLOGY",
    PING: "PING",
    PONG: "PONG",
}


class ProtocolError(ValueError):
    """Malformed frame: bad magic/version, unknown type, bad length."""


class Frame:
    """One decoded frame: ``(type, session, payload)`` plus ``trace``.

    ``payload`` may be ``bytes`` *or* a read-only ``memoryview`` into
    the decoder's fed buffers (the zero-copy path for CHUNK payloads).
    Equality, hashing and :meth:`json` treat both identically; callers
    that must outlive the frame (or concatenate) should ``bytes()`` it.
    ``trace`` is the 64-bit request trace id (0 for untraced /
    version-1 frames).
    """

    __slots__ = ("type", "session", "payload", "trace", "_json")

    def __init__(
        self,
        ftype: int,
        session: int,
        payload: Union[bytes, memoryview] = b"",
        trace: int = 0,
    ):
        self.type = ftype
        self.session = session
        self.payload = payload
        self.trace = trace
        self._json: Optional[Dict[str, Any]] = None

    @property
    def type_name(self) -> str:
        return TYPE_NAMES.get(self.type, "0x%02x" % self.type)

    def json(self) -> Dict[str, Any]:
        """Decode the payload as a JSON object (once: later calls return
        the same dict, so a server checks a request's fields and its
        handler reads them from one decode)."""
        if self._json is not None:
            return self._json
        try:
            obj = json.loads(bytes(self.payload).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(
                "%s payload is not valid JSON: %s" % (self.type_name, exc)
            )
        if not isinstance(obj, dict):
            raise ProtocolError(
                "%s payload must be a JSON object" % self.type_name
            )
        self._json = obj
        return obj

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Frame)
            and self.type == other.type
            and self.session == other.session
            and self.payload == other.payload
            and self.trace == other.trace
        )

    def __hash__(self) -> int:
        return hash((self.type, self.session, self.payload, self.trace))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Frame(%s, session=%d, %d bytes)" % (
            self.type_name,
            self.session,
            len(self.payload),
        )


def encode_frame_parts(
    ftype: int,
    session: int,
    payload: Union[bytes, memoryview] = b"",
    max_payload: int = DEFAULT_MAX_PAYLOAD,
    trace: int = 0,
) -> Tuple[bytes, Union[bytes, memoryview]]:
    """Header and payload as separate buffers (the writev-style form).

    A sender that calls ``write(header); write(payload)`` never copies
    the payload into a concatenated frame — with memoryview payloads
    the view bytes go from the source buffer straight to the socket.
    Validation is identical to :func:`encode_frame`.

    ``trace`` 0 emits a version-1 header (byte-identical to the
    pre-tracing protocol); a nonzero trace id emits a version-2 header
    carrying it.
    """
    if ftype not in TYPE_NAMES:
        raise ProtocolError("unknown frame type 0x%02x" % ftype)
    if not 0 <= session <= 0xFFFFFFFF:
        raise ProtocolError("session id %d out of range" % session)
    if not 0 <= trace <= MAX_TRACE_ID:
        raise ProtocolError("trace id %d out of range" % trace)
    if len(payload) > max_payload:
        raise ProtocolError(
            "payload of %d bytes exceeds the %d-byte frame limit"
            % (len(payload), max_payload)
        )
    if trace:
        header = _HEADER.pack(
            MAGIC, TRACE_VERSION, ftype, session, len(payload)
        ) + _TRACE.pack(trace)
    else:
        header = _HEADER.pack(MAGIC, VERSION, ftype, session, len(payload))
    return header, payload


def encode_frame(
    ftype: int,
    session: int,
    payload: Union[bytes, memoryview] = b"",
    max_payload: int = DEFAULT_MAX_PAYLOAD,
    trace: int = 0,
) -> bytes:
    """Serialize one frame; validates type and payload size."""
    header, payload = encode_frame_parts(
        ftype, session, payload, max_payload=max_payload, trace=trace
    )
    if not isinstance(payload, bytes):
        payload = bytes(payload)
    return header + payload


def json_frame(
    ftype: int,
    session: int,
    obj: Dict[str, Any],
    max_payload: int = DEFAULT_MAX_PAYLOAD,
    trace: int = 0,
) -> bytes:
    """Serialize a control frame whose payload is a JSON object."""
    payload = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    return encode_frame(ftype, session, payload, max_payload=max_payload, trace=trace)


class FrameDecoder:
    """Incremental frame parser over an unframed byte stream.

    ``feed()`` accepts any slice of bytes (a partial header, ten frames
    at once …) and returns the frames completed by it; partial input is
    buffered until the rest arrives.  Validation happens as soon as the
    header is complete, so an oversized length field is rejected before
    any payload is buffered.

    The buffer is **zero-copy**: fed slices are kept as-is in a deque
    (never concatenated into a growing bytearray), headers are unpacked
    in place, and a payload fully contained in one fed slice is handed
    out as a ``memoryview`` into it — the common case on the serving
    path, where one socket read carries one CHUNK frame.  Only a
    payload *spanning* fed slices is joined (one copy, unavoidable).
    A memoryview payload pins its source slice until the caller drops
    the frame; ``bytes(frame.payload)`` detaches it.
    """

    def __init__(self, max_payload: int = DEFAULT_MAX_PAYLOAD):
        self.max_payload = max_payload
        self._chunks: Deque[bytes] = deque()
        self._offset = 0  # consumed prefix of _chunks[0]
        self._pending = 0  # unconsumed bytes across all chunks
        self._dead: Optional[ProtocolError] = None

    def feed(self, data: bytes) -> List[Frame]:
        if self._dead is not None:
            raise self._dead
        if data:
            if not isinstance(data, bytes):
                data = bytes(data)  # keep fed slices immutable
            self._chunks.append(data)
            self._pending += len(data)
        frames: List[Frame] = []
        while True:
            frame = self._next_frame()
            if frame is None:
                return frames
            frames.append(frame)

    def _next_frame(self) -> Optional[Frame]:
        if self._pending < HEADER_SIZE:
            return None
        magic, version, ftype, session, length = _HEADER.unpack(
            self._peek(HEADER_SIZE)
        )
        if magic != MAGIC:
            raise self._fail("bad magic byte 0x%02x" % magic)
        if version not in (VERSION, TRACE_VERSION):
            raise self._fail("unsupported protocol version %d" % version)
        if ftype not in TYPE_NAMES:
            raise self._fail("unknown frame type 0x%02x" % ftype)
        if length > self.max_payload:
            raise self._fail(
                "declared payload of %d bytes exceeds the %d-byte frame limit"
                % (length, self.max_payload)
            )
        header_size = HEADER_SIZE
        trace = 0
        if version == TRACE_VERSION:
            header_size = TRACE_HEADER_SIZE
            if self._pending < header_size:
                return None
            (trace,) = _TRACE.unpack(
                self._peek(header_size)[HEADER_SIZE:header_size]
            )
        if self._pending < header_size + length:
            return None
        self._consume(header_size)
        return Frame(ftype, session, self._take(length), trace=trace)

    def _peek(self, size: int) -> bytes:
        """The next ``size`` buffered bytes, without consuming them.

        Fast path: the head slice covers the request and is returned as
        an in-place ``memoryview`` (``struct.unpack`` accepts it); a
        header spanning fed slices (rare, at most 18 joined bytes) is
        joined into a copy.
        """
        head = self._chunks[0]
        if len(head) - self._offset >= size:
            return memoryview(head)[self._offset : self._offset + size]
        parts = bytearray()
        offset = self._offset
        for chunk in self._chunks:
            take = min(len(chunk) - offset, size - len(parts))
            parts += chunk[offset : offset + take]
            offset = 0
            if len(parts) == size:
                break
        return bytes(parts)

    def _consume(self, size: int) -> None:
        """Advance past ``size`` already-counted bytes."""
        self._pending -= size
        while size:
            head = self._chunks[0]
            available = len(head) - self._offset
            if available > size:
                self._offset += size
                return
            size -= available
            self._chunks.popleft()
            self._offset = 0

    def _take(self, length: int) -> Union[bytes, memoryview]:
        """Consume and return the next ``length`` payload bytes."""
        if length == 0:
            return b""
        head = self._chunks[0]
        if len(head) - self._offset >= length:
            payload = memoryview(head)[self._offset : self._offset + length]
            self._consume(length)
            return payload
        parts = bytearray()
        offset = self._offset
        for chunk in self._chunks:
            take = min(len(chunk) - offset, length - len(parts))
            parts += memoryview(chunk)[offset : offset + take]
            offset = 0
            if len(parts) == length:
                break
        self._consume(length)
        return bytes(parts)

    def _fail(self, message: str) -> ProtocolError:
        # A framing error is unrecoverable: there is no way to find the
        # next frame boundary, so the decoder latches the error.
        self._dead = ProtocolError(message)
        return self._dead

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet forming a complete frame."""
        return self._pending

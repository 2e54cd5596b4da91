"""The asyncio station server: many clients, one `SecureStation`.

Topology (the network form of Fig. 2)::

    client SDK  <== TCP, repro.server.protocol frames ==>  StationServer
    (RemoteSession)                                        (asyncio)
                                                               |
                                                         SecureStation
                                                        (the SOE facade)

Design points:

* **One event loop, CPU work off-loop.**  Policy evaluation is pure
  python and can take seconds on big documents; each QUERY runs in the
  default thread-pool executor, so the loop keeps accepting
  connections and serving STATS while a view is computed.  The
  :class:`SecureStation` is internally thread-safe (session counter,
  plan LRU, document map under its own lock) and published documents
  are immutable snapshots, so evaluations run genuinely in parallel.
* **Live updates.**  An UPDATE frame applies a
  :class:`~repro.skipindex.updates.UpdateOp` through
  :meth:`SecureStation.update` (dirty-chunk re-encryption under a
  bumped document version); every live connection then receives an
  INVALIDATED push so clients drop cached views and re-fetch.
* **Bounded-queue backpressure.**  The producer thread prepares (and,
  with ``seal=True``, encrypts) view chunks and *blocks* on a
  ``queue_depth``-slot gate until the writer task has flushed earlier
  chunks with ``await writer.drain()``.  A slow client therefore
  stalls its own producer thread, bounding the frames (and sealing
  work) in flight per connection.  Note the *serialized plaintext
  view* itself is materialized once per request by
  :meth:`SecureStation.stream` — the bound is on chunk copies and
  sealing, not on the view.
* **Per-session limits.**  Frame payloads are capped by the protocol
  decoder and each session may issue at most ``max_queries_per_session``
  QUERYs; violations get a structured ERROR frame.
* **Metered.**  Every connection keeps a private
  :class:`~repro.metrics.Meter`, merged into the server's shared
  :class:`~repro.metrics.ThreadSafeMeter` on close; STATS reports the
  station counters, the server counters and the merged meter.
"""

from __future__ import annotations

import asyncio
import threading
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.engine.station import SecureStation, StationError, StationSession
from repro.metrics import Meter, ThreadSafeMeter
from repro.obs.registry import BYTE_BUCKETS, MetricsRegistry
from repro.obs.trace import Tracer, format_trace_id
from repro.server import protocol
from repro.server.protocol import (
    BYE,
    CHUNK,
    ERROR,
    FORWARD,
    HELLO,
    INVALIDATED,
    PING,
    PONG,
    QUERY,
    RESULT,
    STATS,
    STATS_REQUEST,
    UPDATE,
    WELCOME,
    Frame,
    FrameDecoder,
    ProtocolError,
    encode_frame_parts,
    json_frame,
)
from repro.skipindex.updates import UpdateError, UpdateOp

#: Error codes carried by ERROR frames.
E_BAD_FRAME = "bad-frame"
E_PROTOCOL = "protocol"
E_UNKNOWN_DOCUMENT = "unknown-document"
E_NO_GRANT = "no-grant"
E_LIMIT = "limit"
E_UPDATE = "update"
E_INTERNAL = "internal"

#: Worst-case growth of a sealed chunk over its plaintext: 4-byte
#: length + 20-byte HMAC-SHA1 + up to 8 bytes of block padding.
SEAL_OVERHEAD = 32


class _Connection:
    """Per-connection state living on the event loop."""

    __slots__ = ("session", "meter", "queries", "peer", "gateway")

    def __init__(self, peer: str):
        self.session: Optional[StationSession] = None
        self.meter = Meter()
        self.queries = 0
        self.peer = peer
        #: Authenticated as a cluster gateway (HELLO {"gateway": true}
        #: on a server started with ``allow_forward``)?  Only such
        #: connections may issue FORWARD frames.
        self.gateway = False

    @property
    def session_id(self) -> int:
        return self.session.session_id if self.session else 0


class StationServer:
    """Serve a :class:`SecureStation` over TCP to many concurrent clients."""

    def __init__(
        self,
        station: SecureStation,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        chunk_size: int = 4096,
        queue_depth: int = 8,
        max_queries_per_session: int = 10_000,
        max_payload: int = protocol.DEFAULT_MAX_PAYLOAD,
        seal: bool = False,
        allow_updates: bool = True,
        allow_forward: bool = False,
        slow_ms: Optional[float] = None,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        slow_sink=None,
    ):
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if chunk_size + (SEAL_OVERHEAD if seal else 0) > max_payload:
            raise ValueError(
                "chunk_size %d%s cannot fit the %d-byte frame payload limit"
                % (
                    chunk_size,
                    " (+%d seal overhead)" % SEAL_OVERHEAD if seal else "",
                    max_payload,
                )
            )
        self.station = station
        self.host = host
        self.port = port
        self.chunk_size = chunk_size
        self.queue_depth = queue_depth
        self.max_queries_per_session = max_queries_per_session
        self.max_payload = max_payload
        self.seal = seal
        self.allow_updates = allow_updates
        self.allow_forward = allow_forward
        self.meter = ThreadSafeMeter()
        self.server_stats: Dict[str, int] = {
            "connections": 0,
            "active": 0,
            "queries": 0,
            "updates": 0,
            "forwards": 0,
            "pings": 0,
            "invalidations": 0,
            "errors": 0,
            "chunks_streamed": 0,
            "bytes_streamed": 0,
        }
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._tasks: set = set()
        # Live connections (for INVALIDATED broadcast on update).
        self._writers: Dict[_Connection, asyncio.StreamWriter] = {}
        # Observability: one registry + tracer per server.  Traced
        # requests (nonzero frame trace id) record span trees; the
        # slow-query log keeps any trace over ``slow_ms``.  The ad-hoc
        # counter dicts above stay the source of truth — a pull-time
        # collector mirrors them into the registry only when scraped.
        self.slow_ms = slow_ms
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = (
            tracer
            if tracer is not None
            else Tracer(slow_ms=slow_ms, slow_sink=slow_sink)
        )
        self._requests_metric = self.registry.counter(
            "repro_requests_total", "Wire frames handled, by frame type",
            labelnames=("type",),
        )
        self._latency_metric = self.registry.histogram(
            "repro_request_ms", "Query wall-clock latency in milliseconds"
        )
        self._view_bytes_metric = self.registry.histogram(
            "repro_view_bytes",
            "Serialized view bytes per query",
            buckets=BYTE_BUCKETS,
        )
        self.registry.register_collector(self._collect_metrics)

    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (resolves ephemeral port 0)."""
        return self.host, self.port

    async def start(self) -> Tuple[str, int]:
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port
        )
        self._loop = asyncio.get_running_loop()
        self.station.subscribe(self._on_station_update)
        self.port = self._server.sockets[0].getsockname()[1]
        return self.address

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        self.station.unsubscribe(self._on_station_update)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Wind down in-flight connections; their handlers catch the
        # cancellation and run their meter-merging cleanup.
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)

    # ------------------------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._tasks.add(task)
        peername = writer.get_extra_info("peername")
        conn = _Connection("%s:%s" % (peername[0], peername[1]) if peername else "?")
        decoder = FrameDecoder(self.max_payload)
        self.server_stats["connections"] += 1
        self.server_stats["active"] += 1
        self._writers[conn] = writer
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    return
                try:
                    frames = decoder.feed(data)
                except ProtocolError as exc:
                    await self._send_error(writer, conn, E_BAD_FRAME, str(exc))
                    return
                for frame in frames:
                    if not await self._dispatch(frame, conn, writer):
                        return
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Deliberate swallow: the server is shutting down and the
            # task must end cleanly (a cancelled client_connected_cb
            # task makes the streams machinery log spurious errors).
            pass
        finally:
            self._tasks.discard(task)
            self._writers.pop(conn, None)
            self.meter.merge(conn.meter)
            self.server_stats["active"] -= 1
            writer.close()

    async def _dispatch(
        self, frame: Frame, conn: _Connection, writer: asyncio.StreamWriter
    ) -> bool:
        """Handle one frame; returns False to close the connection."""
        self._requests_metric.labels(type=frame.type_name).inc()
        if frame.type == BYE:
            return False
        if frame.type == PING:
            # Health probes run before (or without) HELLO by design: a
            # gateway must be able to check liveness and replica
            # version lockstep without spending a session.
            return await self._on_ping(conn, writer)
        if frame.type == HELLO:
            return await self._on_hello(frame, conn, writer)
        if conn.session is None:
            await self._send_error(
                writer, conn, E_PROTOCOL, "first frame must be HELLO"
            )
            return False
        if frame.type == QUERY:
            return await self._on_query(frame, conn, writer)
        if frame.type == UPDATE:
            return await self._on_update(frame, conn, writer)
        if frame.type == FORWARD:
            return await self._on_forward(frame, conn, writer)
        if frame.type == STATS_REQUEST:
            return await self._on_stats(conn, writer)
        await self._send_error(
            writer,
            conn,
            E_PROTOCOL,
            "unexpected %s frame from client" % frame.type_name,
        )
        return False

    # ------------------------------------------------------------------
    async def _on_hello(
        self, frame: Frame, conn: _Connection, writer: asyncio.StreamWriter
    ) -> bool:
        if conn.session is not None:
            await self._send_error(writer, conn, E_PROTOCOL, "duplicate HELLO")
            return False
        try:
            subject = frame.json()["subject"]
        except (ProtocolError, KeyError):
            await self._send_error(
                writer, conn, E_BAD_FRAME, "HELLO payload must carry a subject"
            )
            return False
        conn.gateway = bool(frame.json().get("gateway")) and self.allow_forward
        # The station is internally thread-safe, but connect still runs
        # off-loop: key derivation must never stall frame dispatch.
        loop = asyncio.get_running_loop()
        conn.session = await loop.run_in_executor(
            None, self.station.connect, str(subject)
        )
        welcome = {
            "session": conn.session.session_id,
            "subject": conn.session.subject,
            # The paper delivers session credentials over the secure
            # provisioning channel (Section 2); this toy transport
            # stands in for that channel, so the link key rides along.
            "key": conn.session.session_key.hex(),
            "seal": self.seal,
            # Echo the accepted role so a gateway notices immediately
            # when a backend was not started with allow_forward.
            "gateway": conn.gateway,
            "limits": {
                "max_payload": self.max_payload,
                "max_queries": self.max_queries_per_session,
                "chunk_size": self.chunk_size,
            },
        }
        await self._send(writer, json_frame(WELCOME, conn.session_id, welcome))
        return True

    async def _on_query(
        self, frame: Frame, conn: _Connection, writer: asyncio.StreamWriter
    ) -> bool:
        try:
            body = frame.json()
            document_id = body["document"]
        except (ProtocolError, KeyError):
            await self._send_error(
                writer, conn, E_BAD_FRAME, "QUERY payload must carry a document"
            )
            return False
        query = body.get("query") or None
        conn.queries += 1
        if conn.queries > self.max_queries_per_session:
            await self._send_error(
                writer,
                conn,
                E_LIMIT,
                "session exceeded %d queries" % self.max_queries_per_session,
            )
            return False
        self.server_stats["queries"] += 1
        session = conn.session

        def evaluate(tracer=None, trace=0, parent_span=0):
            return session.stream_view(
                document_id,
                query=query,
                chunk_size=self.chunk_size,
                seal=self.seal,
                tracer=tracer,
                trace=trace,
                parent_span=parent_span,
            )

        return await self._run_query_stream(
            conn, writer, evaluate, {"document": document_id}, trace=frame.trace
        )

    async def _run_query_stream(
        self,
        conn: _Connection,
        writer: asyncio.StreamWriter,
        evaluate,
        extra_trailer: Dict[str, object],
        trace: int = 0,
        ship_spans: bool = False,
    ) -> bool:
        """Shared QUERY/FORWARD-query path: evaluate off-loop, stream
        the chunks, send the RESULT trailer.

        ``evaluate`` is called as ``evaluate(tracer, trace, parent)``
        so the station can hang its pipeline/cache spans under this
        request's root span.  A nonzero ``trace`` (minted by the client
        or gateway, carried in the frame header) makes the RESULT
        trailer echo the id; trace 0 pays for one ``perf_counter`` pair
        and a histogram observe.  The span *tree* rides the trailer
        only when ``ship_spans`` is set (FORWARD hops — the gateway
        needs backend spans to assemble cross-process trees) or when
        the trace finished slow: serializing every tree on the cached
        hot path costs more than the 5% tracing budget, and direct
        clients only consume trees through the slow-query log anyway.
        """
        loop = asyncio.get_running_loop()
        tracer = self.tracer
        started = perf_counter()
        root = None
        deferred = False
        picked_up = started
        if trace:
            root = tracer.start(trace, "backend.query", **extra_trailer)
            # No tree can ride this trailer (direct client, no slow
            # threshold), so span bookkeeping moves past the send —
            # off the response's critical path.  Only the timestamps
            # are captured in-line.
            deferred = not ship_spans and tracer.slow_ms is None

        def run_evaluate():
            if root is None:
                return evaluate()
            # Backend queueing: the wait between frame dispatch and the
            # executor thread actually picking the request up.
            nonlocal picked_up
            picked_up = perf_counter()
            if not deferred:
                tracer.record(trace, "queue", started, picked_up, parent=root.id)
            return evaluate(tracer, trace, root.id)

        try:
            stream = await loop.run_in_executor(None, run_evaluate)
        except StationError as exc:
            if trace:
                tracer.discard(trace)
            message = exc.args[0] if exc.args else str(exc)
            code = E_NO_GRANT if "grant" in message else E_UNKNOWN_DOCUMENT
            await self._send_error(writer, conn, code, message)
            return True  # recoverable: the session may query other documents
        except Exception as exc:
            if trace:
                tracer.discard(trace)
            await self._send_error(writer, conn, E_INTERNAL, str(exc))
            return True

        stream_started = perf_counter()
        sent = await self._stream_chunks(stream, conn, writer)
        if sent is None:
            if trace:
                tracer.discard(trace)
            return False
        chunks, sent_bytes = sent
        conn.meter.merge(stream.result.meter)
        trailer = {
            "chunks": chunks,
            "bytes": stream.payload_bytes,
            "sealed": stream.sealed,
            "seconds": stream.result.seconds,
            # Served from the station's version-keyed view cache?  The
            # simulated seconds above are identical either way (the
            # cost model charges the original evaluation); this flag is
            # what lets clients and the load generator report honest
            # hit rates.
            "cached": bool(stream.result.cache_hit),
            # Which serving path produced the view: "indexed" when the
            # structural index resolved the query to chunk-range plans
            # (or proved it empty), "streamed" for the full pass.  Both
            # paths return byte-identical views; the flag is for
            # operators verifying the accelerator actually engaged.
            "served": "indexed" if stream.result.indexed else "streamed",
            # Stamped by the station atomically with the snapshot this
            # request evaluated — an update landing mid-evaluation
            # leaves the request on the pre-update snapshot *and* the
            # pre-update version; the INVALIDATED push handles re-fetch.
            "version": stream.result.document_version,
            "meter": {
                k: v for k, v in stream.result.meter.as_dict().items() if v
            },
        }
        trailer.update(extra_trailer)
        if root is not None:
            trailer["trace"] = format_trace_id(trace)
            if not deferred:
                tracer.record(
                    trace,
                    "stream",
                    stream_started,
                    perf_counter(),
                    parent=root.id,
                    attrs={"chunks": chunks, "bytes": sent_bytes},
                )
                tracer.finish(
                    root,
                    cached=bool(stream.result.cache_hit),
                    bytes=stream.payload_bytes,
                )
                record = tracer.end_trace(trace, root=root)
                if record is not None and (ship_spans or record.slow):
                    # The finished span tree rides the trailer so the
                    # hop upstream (gateway or client) can graft it
                    # under its own spans — cross-process assembly.
                    trailer["spans"] = record.wire_spans()
        self._latency_metric.observe((perf_counter() - started) * 1000.0)
        self._view_bytes_metric.observe(stream.payload_bytes)
        try:
            await self._send(
                writer, json_frame(RESULT, conn.session_id, trailer, trace=trace)
            )
        finally:
            if deferred:
                ended = perf_counter()
                tracer.record(trace, "queue", started, picked_up, parent=root.id)
                tracer.record(
                    trace,
                    "stream",
                    stream_started,
                    ended,
                    parent=root.id,
                    attrs={"chunks": chunks, "bytes": sent_bytes},
                )
                tracer.finish(
                    root,
                    cached=bool(stream.result.cache_hit),
                    bytes=stream.payload_bytes,
                )
                tracer.end_trace(trace, root=root)
        self.server_stats["chunks_streamed"] += chunks
        self.server_stats["bytes_streamed"] += sent_bytes
        return True

    # ------------------------------------------------------------------
    async def _on_update(
        self, frame: Frame, conn: _Connection, writer: asyncio.StreamWriter
    ) -> bool:
        try:
            body = frame.json()
            document_id = body["document"]
            op = UpdateOp.from_dict(body.get("op") or {})
        except (ProtocolError, KeyError, UpdateError) as exc:
            await self._send_error(
                writer, conn, E_BAD_FRAME, "bad UPDATE frame: %s" % exc
            )
            return False
        return await self._apply_update(
            document_id, op, conn.session.subject, conn, writer, trace=frame.trace
        )

    async def _apply_update(
        self,
        document_id: str,
        op: UpdateOp,
        subject: str,
        conn: _Connection,
        writer: asyncio.StreamWriter,
        trace: int = 0,
        ship_spans: bool = False,
    ) -> bool:
        """Shared UPDATE/FORWARD-update path: grant check, apply, RESULT."""
        root = None
        if trace:
            root = self.tracer.start(
                trace, "backend.update", document=document_id, subject=subject
            )
        if not self.allow_updates:
            if trace:
                self.tracer.discard(trace)
            await self._send_error(
                writer, conn, E_LIMIT, "this server is read-only"
            )
            return True
        try:
            self.station.document_version(document_id)
        except StationError as exc:
            if trace:
                self.tracer.discard(trace)
            message = exc.args[0] if exc.args else str(exc)
            await self._send_error(writer, conn, E_UNKNOWN_DOCUMENT, message)
            return True
        # Writes require at least a read grant on the target document;
        # anything finer-grained (per-subtree write rules) would need
        # its own policy language, but an ungranted subject must never
        # be able to rewrite a document it cannot even read.
        if not self.station.has_grant(document_id, subject):
            if trace:
                self.tracer.discard(trace)
            await self._send_error(
                writer,
                conn,
                E_NO_GRANT,
                "no grant for subject %r on document %r"
                % (subject, document_id),
            )
            return True
        loop = asyncio.get_running_loop()
        try:
            result = await loop.run_in_executor(
                None, self.station.update, document_id, op
            )
        except StationError as exc:
            if trace:
                self.tracer.discard(trace)
            message = exc.args[0] if exc.args else str(exc)
            await self._send_error(writer, conn, E_UNKNOWN_DOCUMENT, message)
            return True
        except UpdateError as exc:
            if trace:
                self.tracer.discard(trace)
            await self._send_error(writer, conn, E_UPDATE, str(exc))
            return True
        except Exception as exc:
            if trace:
                self.tracer.discard(trace)
            await self._send_error(writer, conn, E_INTERNAL, str(exc))
            return True
        self.server_stats["updates"] += 1
        trailer = {
            "document": document_id,
            "version": result.version,
            "update": result.as_dict(),
        }
        if root is not None:
            self.tracer.finish(
                root,
                version=result.version,
                chunks_reencrypted=result.chunks_reencrypted,
            )
            record = self.tracer.end_trace(trace, root=root)
            if record is not None:
                trailer["trace"] = format_trace_id(trace)
                if ship_spans or record.slow:
                    trailer["spans"] = record.wire_spans()
        await self._send(
            writer, json_frame(RESULT, conn.session_id, trailer, trace=trace)
        )
        return True

    # ------------------------------------------------------------------
    async def _on_forward(
        self, frame: Frame, conn: _Connection, writer: asyncio.StreamWriter
    ) -> bool:
        """Gateway impersonation: run a query/update as another subject.

        Only honored on a connection whose HELLO declared
        ``{"gateway": true}`` against a server started with
        ``allow_forward=True`` — a plain client claiming to be a
        gateway on a non-cluster server gets a protocol error.  The
        response shape is exactly the QUERY/UPDATE one (CHUNK* +
        RESULT), so the gateway can relay frames without translation;
        forwarded views are never link-sealed (the gateway talks to its
        own clients over its own sessions).
        """
        if not conn.gateway:
            await self._send_error(
                writer,
                conn,
                E_PROTOCOL,
                "FORWARD requires a gateway session (allow_forward server)",
            )
            return False
        try:
            body = frame.json()
            kind = body.get("kind", "query")
            subject = str(body["subject"])
            document_id = body["document"]
        except (ProtocolError, KeyError):
            await self._send_error(
                writer,
                conn,
                E_BAD_FRAME,
                "FORWARD payload must carry subject and document",
            )
            return False
        self.server_stats["forwards"] += 1
        if kind == "update":
            try:
                op = UpdateOp.from_dict(body.get("op") or {})
            except UpdateError as exc:
                await self._send_error(
                    writer, conn, E_BAD_FRAME, "bad FORWARD op: %s" % exc
                )
                return False
            return await self._apply_update(
                document_id,
                op,
                subject,
                conn,
                writer,
                trace=frame.trace,
                ship_spans=True,
            )
        if kind != "query":
            await self._send_error(
                writer, conn, E_BAD_FRAME, "unknown FORWARD kind %r" % kind
            )
            return False
        query = body.get("query") or None
        # No per-session query cap on gateway links, deliberately: the
        # gateway multiplexes many end-clients over one authenticated
        # connection, so the cap belongs gateway-side, per end-client.
        self.server_stats["queries"] += 1

        def evaluate(tracer=None, trace=0, parent_span=0):
            # Never link-sealed: the gateway terminates client sessions
            # itself (see the class docstring).
            return self.station.stream(
                document_id,
                subject,
                query=query,
                chunk_size=self.chunk_size,
                tracer=tracer,
                trace=trace,
                parent_span=parent_span,
            )

        return await self._run_query_stream(
            conn,
            writer,
            evaluate,
            {"document": document_id, "subject": subject},
            trace=frame.trace,
            ship_spans=True,
        )

    async def _on_ping(
        self, conn: _Connection, writer: asyncio.StreamWriter
    ) -> bool:
        """Health probe: liveness plus per-document version lockstep."""
        self.server_stats["pings"] += 1
        body = {
            "ok": True,
            "role": "station",
            "documents": self.station.document_versions(),
            "active": self.server_stats["active"],
        }
        await self._send(writer, json_frame(PONG, conn.session_id, body))
        return True

    def _on_station_update(self, document_id: str, version: int) -> None:
        """Station listener (any thread): broadcast INVALIDATED."""
        loop = self._loop
        if loop is None or loop.is_closed():
            return

        def schedule() -> None:
            task = asyncio.ensure_future(
                self._broadcast_invalidated(document_id, version)
            )
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

        try:
            loop.call_soon_threadsafe(schedule)
        except RuntimeError:  # loop already closed mid-shutdown
            pass

    async def _broadcast_invalidated(self, document_id: str, version: int) -> None:
        """Push one INVALIDATED frame to every live connection.

        `write()` without `drain()` by design: the frame is small, the
        transport flushes it on its own, and awaiting drain here could
        interleave with a connection's own writer task.  A frame is
        written atomically (one `write()` call), so it can land between
        the CHUNK frames of an in-flight response but never inside one.
        """
        body = {"document": document_id, "version": version}
        for conn, writer in list(self._writers.items()):
            try:
                writer.write(json_frame(INVALIDATED, conn.session_id, body))
                self.server_stats["invalidations"] += 1
            except Exception:  # connection is on its way down
                pass

    async def _stream_chunks(
        self, stream, conn: _Connection, writer: asyncio.StreamWriter
    ) -> Optional[Tuple[int, int]]:
        """Producer/consumer chunk streaming with a bounded queue.

        Returns ``(chunks, bytes)`` or ``None`` when the connection
        died mid-stream.
        """
        loop = asyncio.get_running_loop()
        # The producer thread blocks on this gate until the writer has
        # flushed earlier chunks: that *is* the backpressure.  A plain
        # threading primitive (not a cross-thread queue.put) so that
        # the abort path below can unblock the producer synchronously
        # — no awaits — and therefore works even when this task is
        # being cancelled by StationServer.stop().
        gate = threading.Semaphore(self.queue_depth)
        aborted = threading.Event()
        queue: "asyncio.Queue" = asyncio.Queue()

        def produce():
            try:
                for chunk in stream.chunks():
                    gate.acquire()
                    if aborted.is_set():
                        return
                    loop.call_soon_threadsafe(queue.put_nowait, chunk)
                loop.call_soon_threadsafe(queue.put_nowait, None)
            except Exception as exc:  # surfaced to the consumer below
                loop.call_soon_threadsafe(queue.put_nowait, exc)

        producer = loop.run_in_executor(None, produce)
        chunks = 0
        sent_bytes = 0
        unflushed = 0
        try:
            while True:
                item = await queue.get()
                if item is None:
                    break
                if isinstance(item, Exception):
                    await self._send_error(writer, conn, E_INTERNAL, str(item))
                    return None
                # writev-style send: header and payload go to the
                # transport as separate buffers (no concatenated frame
                # copy), and drain() runs once per queue_depth frames
                # instead of per frame — the transport coalesces the
                # writes, the gate still bounds what is in flight.
                header, payload = encode_frame_parts(
                    CHUNK,
                    conn.session_id,
                    item,
                    max_payload=self.max_payload,
                )
                writer.write(header)
                if payload:
                    writer.write(payload)
                unflushed += 1
                if unflushed >= self.queue_depth:
                    await writer.drain()
                    unflushed = 0
                chunks += 1
                sent_bytes += len(item)
                gate.release()
            if unflushed:
                await writer.drain()
            await producer  # near-instant: the sentinel was just put
        except (ConnectionResetError, BrokenPipeError):
            return None
        finally:
            # Early exit (client gone, error, cancellation): unpark a
            # producer waiting on the gate so its thread can observe
            # `aborted` and finish — no executor threads leak.
            aborted.set()
            gate.release()
        return chunks, sent_bytes

    async def _on_stats(
        self, conn: _Connection, writer: asyncio.StreamWriter
    ) -> bool:
        # Merge the live (not-yet-closed) connection's meter into the
        # snapshot so STATS reflects the caller's own traffic too.
        merged = self.meter.snapshot()
        merged.merge(conn.meter)
        body = {
            "station": self.station.stats.as_dict(),
            "cached_plans": self.station.cached_plans(),
            "cached_views": self.station.cached_views(),
            "server": dict(self.server_stats),
            "meter": {k: v for k, v in merged.as_dict().items() if v},
            # Compute-backend health on the wire (not just station-
            # local): native-kernel availability is how a gateway or
            # `repro top` spots a node silently running pure Python.
            "backend": self.station.backend.describe(),
            # Storage-layer health: page-cache hit rate, log growth and
            # recovery counters of the station's chunk store (a memory
            # store reports just its kind and byte footprint).
            "store": self.station.store.describe(),
            "observability": dict(
                self.tracer.stats(), slow_log=self.tracer.slow_records()
            ),
        }
        await self._send(writer, json_frame(STATS, conn.session_id, body))
        return True

    def _collect_metrics(self, registry: MetricsRegistry) -> None:
        """Pull-time mirror of the ad-hoc counters into the registry.

        Runs only when someone scrapes ``/metrics`` (or snapshots the
        registry), so the serving hot path never pays for it.
        """
        for key, value in self.station.stats.as_dict().items():
            registry.gauge("repro_station_" + key).set(value)
        for key, value in self.server_stats.items():
            registry.gauge("repro_server_" + key).set(value)
        for key, value in self.meter.as_dict().items():
            registry.gauge("repro_meter_" + key).set(value)
        registry.gauge("repro_cached_views").set(self.station.cached_views())
        registry.gauge("repro_cached_plans").set(self.station.cached_plans())
        store = self.station.store.describe()
        for key in (
            "documents",
            "page_hits",
            "page_misses",
            "bytes_read",
            "bytes_written",
            "log_bytes",
            "live_bytes",
            "manifest_replays",
            "torn_bytes_dropped",
            "orphan_records_dropped",
            "commits",
            "compactions",
            "cache_used_bytes",
            "cache_budget_bytes",
        ):
            if key in store:
                registry.gauge("repro_store_" + key).set(int(store[key]))
        registry.gauge("repro_store_persistent").set(
            1 if store.get("persistent") else 0
        )
        backend = self.station.backend.describe()
        registry.gauge("repro_native_kernels").set(
            1 if backend.get("native_kernels") else 0
        )
        trace_stats = self.tracer.stats()
        registry.gauge("repro_traces_finished").set(trace_stats["finished"])
        registry.gauge("repro_slow_queries").set(trace_stats["slow_queries"])

    # ------------------------------------------------------------------
    async def _send(self, writer: asyncio.StreamWriter, data: bytes) -> None:
        writer.write(data)
        await writer.drain()

    async def _send_error(
        self,
        writer: asyncio.StreamWriter,
        conn: _Connection,
        code: str,
        message: str,
    ) -> None:
        self.server_stats["errors"] += 1
        try:
            await self._send(
                writer,
                json_frame(
                    ERROR,
                    conn.session_id,
                    {"code": code, "message": message},
                ),
            )
        except (ConnectionResetError, BrokenPipeError):
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "StationServer(%s:%d, %d active)" % (
            self.host,
            self.port,
            self.server_stats["active"],
        )


class ServerThread:
    """Run a :class:`StationServer` on a private loop in a daemon thread.

    The blocking client SDK, the load generator and the tests all need
    a live server without owning an event loop themselves; this is the
    bridge.  ``start()`` blocks until the port is bound and returns the
    address; ``stop()`` shuts the loop down and joins the thread.
    """

    def __init__(self, server: StationServer):
        self.server = server
        self.error: Optional[BaseException] = None
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stopping: Optional[asyncio.Event] = None

    def start(self, timeout: float = 10.0) -> Tuple[str, int]:
        started = threading.Event()

        def run():
            try:
                asyncio.run(self._main(started))
            except BaseException as exc:  # noqa: BLE001 - reported to starter
                self.error = exc
            finally:
                started.set()

        self._thread = threading.Thread(
            target=run, name="repro-station-server", daemon=True
        )
        self._thread.start()
        if not started.wait(timeout):
            raise RuntimeError("station server did not start in %.1fs" % timeout)
        if self.error is not None:
            raise RuntimeError("station server failed to start") from self.error
        return self.server.address

    async def _main(self, started: threading.Event) -> None:
        self._loop = asyncio.get_running_loop()
        self._stopping = asyncio.Event()
        await self.server.start()
        started.set()
        await self._stopping.wait()
        await self.server.stop()

    def stop(self, timeout: float = 10.0) -> None:
        if self._loop is not None and self._stopping is not None:
            self._loop.call_soon_threadsafe(self._stopping.set)
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    def __enter__(self) -> Tuple[str, int]:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


# ----------------------------------------------------------------------
# Bootstrap: a ready-to-serve hospital station
# ----------------------------------------------------------------------
def hospital_station(
    folders: int = 3,
    seed: int = 7,
    context: str = "smartcard",
    use_skip_index: bool = True,
    groups: int = 3,
    backend=None,
    store=None,
    index: bool = False,
) -> Tuple[SecureStation, List[str]]:
    """A station serving the Fig. 1 hospital document under the three
    paper profiles; returns ``(station, granted subjects)``.

    Shared by ``repro serve``, the load generator's defaults, the
    server benchmark and the end-to-end tests, so they all agree on
    document id (``"hospital"``) and subjects.

    With a persistent ``store`` (see :mod:`repro.store`) that already
    holds ``"hospital"`` — a restarted station — the document is served
    as recovered from the log at its pre-restart version instead of
    being re-generated; grants are derived state and are always
    re-applied.
    """
    from repro.datasets.hospital import (
        GROUPS,
        HospitalConfig,
        doctor_policy,
        generate_hospital,
        researcher_policy,
        secretary_policy,
    )

    config = HospitalConfig(
        folders=folders,
        doctors=4,
        acts_per_folder=3,
        labresults_per_folder=2,
        seed=seed,
    )
    from repro.engine import PublishOptions, StationConfig

    station = SecureStation(
        StationConfig(
            context=context,
            use_skip_index=use_skip_index,
            backend=backend,
            store=store,
        )
    )
    if "hospital" not in station.store:
        tree = generate_hospital(config)
        station.publish("hospital", tree, PublishOptions(index=index))
    doctor = config.doctor_names()[0]
    policies = [
        secretary_policy(),
        doctor_policy(doctor),
        researcher_policy(GROUPS[:groups]),
    ]
    for policy in policies:
        station.grant("hospital", policy)
    return station, [policy.subject for policy in policies]

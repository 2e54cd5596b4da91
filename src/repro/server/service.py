"""The asyncio station server: many clients, one `SecureStation`.

Topology (the network form of Fig. 2)::

    client SDK  <== TCP, repro.server.protocol frames ==>  StationServer
    (RemoteSession)                                        (asyncio)
                                                               |
                                                         SecureStation
                                                        (the SOE facade)

Design points:

* **One frame server.**  The decode loop, HELLO gate, dispatch table
  and send helpers are :class:`~repro.server.frames.FrameServer`'s,
  shared with the cluster gateway; this module supplies the station's
  frame handlers.
* **One event loop, one worker per CPU.**  Policy evaluation is pure
  python and can take seconds on big documents; each QUERY's
  evaluation (and each HELLO's key derivation and each UPDATE) runs on
  the frame server's worker pool, one thread per usable CPU, so the
  loop keeps accepting connections and serving STATS while a view is
  computed.  The :class:`SecureStation` is internally thread-safe
  (session counter, plan LRU, document map under its own lock) and
  published documents are immutable snapshots, so requests may share
  the pool; under the GIL the pool bounds memory, not parallelism.
* **Live updates.**  An UPDATE frame applies a
  :class:`~repro.skipindex.updates.UpdateOp` through
  :meth:`SecureStation.update` (dirty-chunk re-encryption under a
  bumped document version); every live connection then receives an
  INVALIDATED push so clients drop cached views and re-fetch.
* **Chunks streamed on the loop.**  Only :meth:`SecureStation.stream`
  (evaluate and serialize) runs on the pool.  The connection's own
  coroutine then slices the view, seals each chunk (``seal=True``,
  with the session's link cipher) and writes the CHUNK frames,
  awaiting ``drain()`` once per ``queue_depth`` frames.  A slow client
  therefore parks only its own coroutine, never a pool worker, and at
  most ``queue_depth`` frames beyond the transport's buffer are in
  flight per connection.  The *serialized plaintext view* itself is
  materialized once per request by :meth:`SecureStation.stream` — the
  bound is on chunk copies and sealing, not on the view.
* **Per-session limits.**  Frame payloads are capped by the protocol
  decoder and each session may issue at most ``max_queries_per_session``
  QUERYs; violations get a structured ERROR frame.
* **Metered.**  Each request's :class:`~repro.metrics.Meter` is folded
  into the server's :class:`~repro.metrics.ThreadSafeMeter` as the
  request completes.  STATS (:meth:`StationServer.stats_body`) and
  ``/metrics`` read the same owners: the station counters, the server
  counters, the meter and the store's counters.
"""

from __future__ import annotations

import asyncio
import threading
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.engine.station import SecureStation, StationError
from repro.metrics import ThreadSafeMeter
from repro.obs.registry import BYTE_BUCKETS, MetricsRegistry
from repro.obs.trace import Tracer
from repro.server import protocol
from repro.server.frames import (
    E_BAD_FRAME,
    E_INTERNAL,
    E_LIMIT,
    E_NO_GRANT,
    E_PROTOCOL,
    E_UNKNOWN_DOCUMENT,
    E_UPDATE,
    Connection,
    FrameServer,
)
from repro.server.protocol import (
    CHUNK,
    FORWARD,
    QUERY,
    RESULT,
    STATS,
    STATS_REQUEST,
    UPDATE,
    Frame,
    encode_frame_parts,
    json_frame,
)
from repro.skipindex.updates import UpdateError, UpdateOp

#: Worst-case growth of a sealed chunk over its plaintext: 4-byte
#: length + 20-byte HMAC-SHA1 + up to 8 bytes of block padding.
SEAL_OVERHEAD = 32


def _station_message(exc: StationError) -> str:
    # StationError is a KeyError, whose str() would quote the message.
    return exc.args[0] if exc.args else str(exc)


class StationServer(FrameServer):
    """Serve a :class:`SecureStation` over TCP to many concurrent clients."""

    HANDLERS = {
        **FrameServer.HANDLERS,
        QUERY: "_on_query",
        UPDATE: "_on_update",
        FORWARD: "_on_forward",
        STATS_REQUEST: "_on_stats",
    }
    STATS = (
        "connections",
        "active",
        "queries",
        "updates",
        "forwards",
        "pings",
        "invalidations",
        "errors",
        "chunks_streamed",
        "bytes_streamed",
    )
    METRICS_PREFIX = "repro_server_"
    UNEXPECTED = "unexpected %s frame from client"
    WORKERS = "repro-station"

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
        super().__init__(
            host,
            port,
            max_payload=max_payload,
            slow_ms=slow_ms,
            registry=registry,
            tracer=tracer,
            slow_sink=slow_sink,
        )
        self.station = station
        self.chunk_size = chunk_size
        self.queue_depth = queue_depth
        self.max_queries_per_session = max_queries_per_session
        self.seal = seal
        self.allow_updates = allow_updates
        self.allow_forward = allow_forward
        self.meter = ThreadSafeMeter()
        self._view_bytes_metric = self.registry.histogram(
            "repro_view_bytes",
            "Serialized view bytes per query",
            buckets=BYTE_BUCKETS,
        )
        expose = self.registry.expose
        expose("repro_station_", "counter", station.stats.as_dict)
        expose("repro_meter_", "counter", self.meter.as_dict)
        expose("repro_store_", "counter", lambda: station.store.counters)
        expose("repro_store_", "gauge", self._store_gauges)
        expose(
            "repro_",
            "gauge",
            lambda: {
                "cached_views": station.cached_views(),
                "cached_plans": station.cached_plans(),
                "native_kernels": station.backend.describe()["native_kernels"],
            },
        )

    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        address = await super().start()
        self.station.subscribe(self._on_station_update)
        return address

    async def stop(self) -> None:
        self.station.unsubscribe(self._on_station_update)
        await super().stop()

    # ------------------------------------------------------------------
    async def _welcome(self, hello: Dict[str, object], conn: Connection) -> dict:
        conn.gateway = bool(hello.get("gateway")) and self.allow_forward
        # The station is internally thread-safe, but connect still runs
        # off-loop: key derivation must never stall frame dispatch.
        conn.session = await self._offload(self.station.connect, hello["subject"])
        conn.session_id = conn.session.session_id
        return {
            "session": conn.session.session_id,
            "subject": conn.session.subject,
            # The link key travels in the clear on this same connection,
            # so anyone reading the wire can open and forge every sealed
            # chunk.  ROADMAP item 6 tracks deriving it by key exchange.
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

    def _pong(self) -> dict:
        """Health probe: liveness plus per-document version lockstep."""
        self.stats["pings"] += 1
        return {
            "ok": True,
            "role": "station",
            "documents": self.station.document_versions(),
            "active": self.stats["active"],
        }

    async def _on_query(self, frame: Frame, conn: Connection) -> bool:
        body = frame.json()
        document_id = body["document"]
        query = body.get("query") or None
        conn.queries += 1
        if conn.queries > self.max_queries_per_session:
            await self._send_error(
                conn,
                E_LIMIT,
                "session exceeded %d queries" % self.max_queries_per_session,
            )
            return False
        self.stats["queries"] += 1
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
            conn, evaluate, {"document": document_id}, trace=frame.trace
        )

    async def _run_query_stream(
        self,
        conn: Connection,
        evaluate,
        extra_trailer: Dict[str, object],
        trace: int = 0,
        ship_spans: bool = False,
    ) -> bool:
        """Shared QUERY/FORWARD-query path: evaluate on the pool, stream
        the chunks from the loop, send the RESULT trailer.

        ``evaluate`` is called as ``evaluate(tracer, trace, parent)``
        so the station can hang its pipeline/cache spans under this
        request's root span.  A nonzero ``trace`` (minted by the client
        or gateway, carried in the frame header) makes the RESULT
        trailer echo the id; trace 0 pays for one ``perf_counter`` pair
        and a histogram observe.  The span *tree* is built only when
        something reads it: the gateway on a FORWARD hop
        (``ship_spans``, it grafts backend spans into its own tree) or
        the slow-query log when ``slow_ms`` is set.  Any other traced
        request is counted and echoed but makes no span at all.
        """
        tracer = self.tracer
        started = perf_counter()
        root = None
        picked_up = started
        if trace:
            root = tracer.begin(trace, "backend.query", ship_spans, **extra_trailer)

        def run_evaluate():
            if root is None:
                return evaluate()
            # Backend queueing: the wait between frame dispatch and a
            # pool worker actually picking the request up.
            nonlocal picked_up
            picked_up = perf_counter()
            return evaluate(tracer, trace, root.id)

        # Errors are recoverable: the session may query other documents.
        try:
            stream = await self._offload(run_evaluate)
        except StationError as exc:
            message = _station_message(exc)
            code = E_NO_GRANT if "grant" in message else E_UNKNOWN_DOCUMENT
            return await self._refuse(conn, trace, code, message)
        except Exception as exc:
            return await self._refuse(conn, trace, E_INTERNAL, str(exc))

        stream_started = perf_counter()
        sent = await self._stream_chunks(stream, conn)
        if sent is None:
            tracer.discard(trace)
            return False
        chunks, sent_bytes = sent
        self.meter.merge(stream.result.meter)

        trailer = {
            "chunks": chunks,
            "bytes": stream.payload_bytes,
            "sealed": stream.sealed,
            "seconds": stream.result.seconds,
            # Served from the station's version-keyed view cache?  The
            # simulated seconds above are identical either way (the
            # cost model charges the original evaluation); this flag is
            # what lets clients report honest hit rates.
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
        if trace:
            if root is not None:
                tracer.record(trace, "queue", started, picked_up, parent=root.id)
                tracer.record(
                    trace,
                    "stream",
                    stream_started,
                    perf_counter(),
                    parent=root.id,
                    attrs={"chunks": chunks, "bytes": sent_bytes},
                )
            tracer.close(
                trace,
                root,
                trailer,
                ship_spans,
                cached=bool(stream.result.cache_hit),
                bytes=stream.payload_bytes,
            )
        self._latency_metric.observe((perf_counter() - started) * 1000.0)
        self._view_bytes_metric.observe(stream.payload_bytes)
        await self._send(
            conn, json_frame(RESULT, conn.session_id, trailer, trace=trace)
        )
        self.stats["chunks_streamed"] += chunks
        self.stats["bytes_streamed"] += sent_bytes
        return True

    # ------------------------------------------------------------------
    async def _on_update(self, frame: Frame, conn: Connection) -> bool:
        body = frame.json()
        try:
            op = UpdateOp.from_dict(body.get("op") or {})
        except UpdateError as exc:
            await self._send_error(conn, E_BAD_FRAME, "bad UPDATE frame: %s" % exc)
            return False
        return await self._apply_update(
            body["document"], op, conn.session.subject, conn, trace=frame.trace
        )

    async def _apply_update(
        self,
        document_id: str,
        op: UpdateOp,
        subject: str,
        conn: Connection,
        trace: int = 0,
        ship_spans: bool = False,
    ) -> bool:
        """Shared UPDATE/FORWARD-update path: grant check, apply, RESULT.

        Every refusal is recoverable: the connection stays open.
        """
        root = None
        if trace:
            root = self.tracer.begin(
                trace,
                "backend.update",
                ship_spans,
                document=document_id,
                subject=subject,
            )
        if not self.allow_updates:
            return await self._refuse(conn, trace, E_LIMIT, "this server is read-only")
        try:
            self.station.document_version(document_id)
        except StationError as exc:
            message = _station_message(exc)
            return await self._refuse(conn, trace, E_UNKNOWN_DOCUMENT, message)
        # Writes require at least a read grant on the target document;
        # anything finer-grained (per-subtree write rules) would need
        # its own policy language, but an ungranted subject must never
        # be able to rewrite a document it cannot even read.
        if not self.station.has_grant(document_id, subject):
            message = "no grant for subject %r on document %r" % (subject, document_id)
            return await self._refuse(conn, trace, E_NO_GRANT, message)
        try:
            result = await self._offload(self.station.update, document_id, op)
        except StationError as exc:
            message = _station_message(exc)
            return await self._refuse(conn, trace, E_UNKNOWN_DOCUMENT, message)
        except UpdateError as exc:
            return await self._refuse(conn, trace, E_UPDATE, str(exc))
        except Exception as exc:
            return await self._refuse(conn, trace, E_INTERNAL, str(exc))
        self.stats["updates"] += 1
        trailer = {
            "document": document_id,
            "version": result.version,
            "update": result.as_dict(),
        }
        if trace:
            self.tracer.close(
                trace,
                root,
                trailer,
                ship_spans,
                version=result.version,
                chunks_reencrypted=result.chunks_reencrypted,
            )
        await self._send(
            conn, json_frame(RESULT, conn.session_id, trailer, trace=trace)
        )
        return True

    # ------------------------------------------------------------------
    async def _on_forward(self, frame: Frame, conn: Connection) -> bool:
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
                conn,
                E_PROTOCOL,
                "FORWARD requires a gateway session (allow_forward server)",
            )
            return False
        body = frame.json()
        kind = body.get("kind", "query")
        subject = body["subject"]
        document_id = body["document"]
        self.stats["forwards"] += 1
        if kind == "update":
            try:
                op = UpdateOp.from_dict(body.get("op") or {})
            except UpdateError as exc:
                # The client's op, not the link, is bad: the gateway's
                # pooled link stays open for its other clients.
                message = "bad FORWARD op: %s" % exc
                return await self._refuse(conn, 0, E_BAD_FRAME, message)
            return await self._apply_update(
                document_id, op, subject, conn, trace=frame.trace, ship_spans=True
            )
        if kind != "query":
            await self._send_error(
                conn, E_BAD_FRAME, "unknown FORWARD kind %r" % kind
            )
            return False
        query = body.get("query") or None
        # No per-session query cap on gateway links, deliberately: the
        # gateway multiplexes many end-clients over one authenticated
        # connection, so the cap belongs gateway-side, per end-client.
        self.stats["queries"] += 1

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
            evaluate,
            {"document": document_id, "subject": subject},
            trace=frame.trace,
            ship_spans=True,
        )

    def _on_station_update(self, document_id: str, version: int) -> None:
        """Station listener (any thread): push INVALIDATED on the loop."""
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        try:
            loop.call_soon_threadsafe(self._invalidate, document_id, version)
        except RuntimeError:  # loop already closed mid-shutdown
            pass

    def _invalidate(self, document_id: str, version: int) -> None:
        sent = self._push_invalidated(document_id, version)
        self.stats["invalidations"] += sent

    async def _stream_chunks(
        self, stream, conn: Connection
    ) -> Optional[Tuple[int, int]]:
        """Slice, seal and write the view's CHUNK frames, on the loop.

        writev-style send: header and payload go to the transport as
        separate buffers (no concatenated frame copy), and ``drain()``
        runs once per ``queue_depth`` frames instead of per frame — the
        transport coalesces the writes, and a slow client parks this
        coroutine on ``drain()`` without holding a pool worker.
        Returns ``(chunks, bytes)`` or ``None`` when the connection
        died mid-stream.
        """
        writer = conn.writer
        depth = self.queue_depth
        chunks = 0
        sent_bytes = 0
        try:
            for chunk in stream.chunks():
                header, payload = encode_frame_parts(
                    CHUNK,
                    conn.session_id,
                    chunk,
                    max_payload=self.max_payload,
                )
                writer.write(header)
                if payload:
                    writer.write(payload)
                chunks += 1
                sent_bytes += len(chunk)
                if chunks % depth == 0:
                    await writer.drain()
            if chunks % depth:
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            return None
        except Exception as exc:
            await self._send_error(conn, E_INTERNAL, str(exc))
            return None
        return chunks, sent_bytes

    def stats_body(self) -> dict:
        """The STATS reply body (also ``repro serve``'s shutdown summary)."""
        return {
            "station": self.station.stats.as_dict(),
            "cached_plans": self.station.cached_plans(),
            "cached_views": self.station.cached_views(),
            "server": dict(self.stats),
            "meter": {k: v for k, v in self.meter.as_dict().items() if v},
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

    async def _on_stats(self, frame: Frame, conn: Connection) -> bool:
        await self._send(conn, json_frame(STATS, conn.session_id, self.stats_body()))
        return True

    def _store_gauges(self) -> Dict[str, int]:
        """The store's point-in-time sizes: every numeric ``describe()``
        field that is not one of its monotonic counters."""
        store = self.station.store
        return {
            key: int(value)
            for key, value in store.describe().items()
            if isinstance(value, (int, bool)) and key not in store.counters
        }


class ServerThread:
    """Run a frame server (a :class:`StationServer` or a cluster
    gateway) on a private loop in a daemon thread.

    The serving benchmark, the cluster topology and the tests all need
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
    groups: int = 3,
    store=None,
    index: bool = False,
) -> Tuple[SecureStation, List[str]]:
    """A station serving the Fig. 1 hospital document under the three
    paper profiles; returns ``(station, granted subjects)``.

    Shared by ``repro serve``, the benchmarks and the end-to-end
    tests, so they all agree on document id (``"hospital"``) and
    subjects; :func:`~repro.cluster.hospital_cluster` builds its
    document 0 the same way.  Like every station it serves with the
    Skip index, on the XTEA implementation
    :func:`~repro.compute.xtea_cipher` picks for this machine.

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
        StationConfig(context=context, store=store)
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

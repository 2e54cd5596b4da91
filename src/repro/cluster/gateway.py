"""The cluster gateway: one address fronting N station backends.

Clients speak the ordinary :mod:`repro.server.protocol` to the gateway
— HELLO/QUERY/UPDATE/STATS/BYE, unchanged — so a
:class:`~repro.server.client.RemoteSession` pointed at a gateway works
without modification and returns byte-identical views.  Behind the
address, the gateway:

* **routes by document id** — a consistent-hash ring with virtual
  nodes (:class:`~repro.cluster.ring.HashRing`) maps every document to
  an ordered preference list of backends; entry 0 is the primary, the
  next ``replicas - 1`` hold copies.  Repeat queries for a document
  always land on the same backend, so the PR 4 view cache keeps its
  hit rate — cache locality is a *routing* property here;
* **forwards over pooled links** — per backend, a small pool of
  persistent connections authenticated as a gateway (HELLO
  ``{"gateway": true}``); requests travel as FORWARD frames carrying
  the end-client's subject, and responses come back in the ordinary
  CHUNK*/RESULT shape.  Responses are collected store-and-forward
  before relaying, so a backend dying mid-response can be retried on a
  replica without the client ever seeing a half stream;
* **replicates updates** — an UPDATE is applied on the primary first,
  then on every replica holding the document; the gateway verifies the
  resulting versions agree (a diverging replica is dropped from the
  placement and repaired) and fans exactly one INVALIDATED per
  ``(document, version)`` out to its own clients;
* **fails over and repairs** — a connection error marks the backend
  dead, removes it from the ring and retries the request on the next
  preference entry; a background repair task then re-publishes every
  under-replicated document onto its new preference nodes through the
  ``republisher`` callback, passing the last served version as the
  *version floor* so the PR 3 version chain (and replay protection)
  survives the move;
* **answers the cluster control frames** — TOPOLOGY (placement map),
  REBALANCE (join/leave a backend at runtime, with deterministic
  re-placement), PING (gateway health) and an aggregated STATS that
  sums backend counters and reports per-backend request counts and
  latency percentiles (the loadgen's skew report).

Trust note: the gateway is part of the *untrusted server* tier of the
paper — it never sees plaintext views in the seal-less configuration
it requires from its backends only because this reproduction leaves
link sealing to the client edge; a deployment wanting sealed
gateway-to-client links would terminate sealing at the gateway exactly
like :class:`~repro.server.service.StationServer` does.  The
``republisher`` callback is the piece that must live with a publisher
(it needs document plaintext or an encrypted copy); in the in-process
topology it is :meth:`repro.cluster.topology.StationCluster._republish`.
"""

from __future__ import annotations

import asyncio
import os
import time
from collections import deque
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.cluster.ring import HashRing
from repro.metrics import percentile
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Tracer, format_trace_id, new_trace_id
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
    REBALANCE,
    RESULT,
    STATS,
    STATS_REQUEST,
    TOPOLOGY,
    TOPOLOGY_REQUEST,
    UPDATE,
    WELCOME,
    Frame,
    FrameDecoder,
    ProtocolError,
    encode_frame_parts,
    json_frame,
)

#: Error codes specific to the gateway (backend codes pass through).
E_BAD_FRAME = "bad-frame"
E_PROTOCOL = "protocol"
E_UNAVAILABLE = "unavailable"
E_REBALANCE = "rebalance"

#: Subject the gateway authenticates as on its upstream links.
GATEWAY_SUBJECT = "@gateway"

#: Republisher callback: ``(document_id, node_name, version_floor) ->
#: new version``; raises on failure.  Runs in an executor thread.
Republisher = Callable[[str, str, int], int]


class BackendRefused(Exception):
    """A structured ERROR frame from a backend (app-level, not a
    transport failure — the link stays healthy and there is no
    failover for it, except the placement race noted in routing)."""

    def __init__(self, code: str, message: str):
        super().__init__("%s: %s" % (code, message))
        self.code = code
        self.message = message


class _BackendLink:
    """One pooled gateway -> backend connection (asyncio side)."""

    __slots__ = ("name", "reader", "writer", "decoder", "frames", "session_id")

    def __init__(
        self,
        name: str,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        max_payload: int,
    ):
        self.name = name
        self.reader = reader
        self.writer = writer
        self.decoder = FrameDecoder(max_payload)
        self.frames: List[Frame] = []
        self.session_id = 0

    async def handshake(self) -> None:
        await self.send(
            json_frame(HELLO, 0, {"subject": GATEWAY_SUBJECT, "gateway": True})
        )
        frame = await self.read()
        if frame.type == ERROR:
            body = frame.json()
            raise BackendRefused(
                body.get("code", "unknown"), body.get("message", "")
            )
        if frame.type != WELCOME:
            raise ProtocolError(
                "expected WELCOME from backend, got %s" % frame.type_name
            )
        body = frame.json()
        if not body.get("gateway"):
            raise ProtocolError(
                "backend %s did not accept the gateway role "
                "(started without allow_forward?)" % self.name
            )
        self.session_id = int(body.get("session", 0))

    async def send(self, data: bytes) -> None:
        self.writer.write(data)
        await self.writer.drain()

    async def read(self) -> Frame:
        while not self.frames:
            data = await self.reader.read(65536)
            if not data:
                raise ConnectionError("backend %s closed the link" % self.name)
            self.frames.extend(self.decoder.feed(data))
        return self.frames.pop(0)

    def close(self) -> None:
        try:
            self.writer.close()
        except Exception:
            pass


class _Backend:
    """Gateway-side state of one backend: address, pool, counters."""

    __slots__ = (
        "name",
        "host",
        "port",
        "alive",
        "pool",
        "created",
        "pool_size",
        "requests",
        "errors",
        "latencies",
    )

    def __init__(self, name: str, host: str, port: int, pool_size: int):
        self.name = name
        self.host = host
        self.port = port
        self.alive = True
        self.pool: "asyncio.Queue[_BackendLink]" = asyncio.Queue()
        self.created = 0
        self.pool_size = pool_size
        self.requests = 0
        self.errors = 0
        #: Recent per-request wall-clock seconds (gateway-side), for
        #: the skew report; bounded so a long run cannot grow it.
        self.latencies: "deque[float]" = deque(maxlen=2048)

    @property
    def address(self) -> Tuple[str, int]:
        return self.host, self.port

    def latency_ms(self, q: float) -> float:
        return round(percentile(list(self.latencies), q) * 1000, 3)


class _ClientConn:
    """Per-client-connection state on the gateway."""

    __slots__ = ("subject", "session_id", "peer")

    def __init__(self, peer: str):
        self.subject: Optional[str] = None
        self.session_id = 0
        self.peer = peer


class ClusterGateway:
    """Consistent-hash routing gateway over N :class:`StationServer`
    backends, with R-way replication, read failover and repair.

    Parameters
    ----------
    backends:
        ``{name: (host, port)}`` of the initial members.
    replicas:
        Copies per document (R).  Reads prefer the primary; updates
        are applied to every live replica.
    vnodes:
        Virtual nodes per member on the hash ring.
    documents / placement:
        Bootstrap knowledge: last known version per document id and
        which backends hold a copy (both maintained live afterwards).
    republisher:
        ``(document_id, node_name, version_floor) -> version`` callback
        used by repair and rebalance to place a document copy onto a
        backend; ``None`` disables repair (failover still works while
        replicas survive).
    slow_ms / trace / registry / tracer / slow_sink:
        Observability: requests whose frame header carries a nonzero
        trace id get a gateway-side span tree — a ``gateway.request``
        (or ``gateway.update``) root, one ``forward:<backend>`` child
        per attempt, and the backend's own spans grafted underneath
        (the backend serializes them into its RESULT trailer; the
        gateway adopts them, so one trace spans both processes).
        ``trace=True`` additionally mints an id for *untraced* client
        requests, so a plain old client still shows up in the slow log.
        ``slow_ms`` flags traces at or above the threshold into the
        tracer's slow log (and ``slow_sink``, when given).  ``registry``
        is a :class:`MetricsRegistry` (one is created when omitted)
        exposing gateway counters, ring health and request latency for
        the Prometheus endpoint.
    """

    def __init__(
        self,
        backends: Dict[str, Tuple[str, int]],
        *,
        replicas: int = 2,
        vnodes: int = 64,
        host: str = "127.0.0.1",
        port: int = 0,
        documents: Optional[Dict[str, int]] = None,
        placement: Optional[Dict[str, Iterable[str]]] = None,
        republisher: Optional[Republisher] = None,
        pool_size: int = 4,
        request_timeout: float = 60.0,
        connect_timeout: float = 5.0,
        max_payload: int = protocol.DEFAULT_MAX_PAYLOAD,
        slow_ms: Optional[float] = None,
        trace: bool = False,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        slow_sink: Optional[Callable[[Dict[str, Any]], None]] = None,
    ):
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.replicas = replicas
        self.host = host
        self.port = port
        self.pool_size = pool_size
        self.request_timeout = request_timeout
        self.connect_timeout = connect_timeout
        self.max_payload = max_payload
        self.republisher = republisher
        self.ring = HashRing(backends, vnodes=vnodes)
        self.backends: Dict[str, _Backend] = {
            name: _Backend(name, address[0], address[1], pool_size)
            for name, address in backends.items()
        }
        #: Last known version per document id.
        self.documents: Dict[str, int] = dict(documents or {})
        #: Which backends hold a copy of each document.
        self.placement: Dict[str, Set[str]] = {
            document_id: set(nodes)
            for document_id, nodes in (placement or {}).items()
        }
        self.gateway_stats: Dict[str, int] = {
            "connections": 0,
            "active": 0,
            "queries": 0,
            "updates": 0,
            "failovers": 0,
            "backends_lost": 0,
            "repairs": 0,
            "repair_failures": 0,
            "rebalances": 0,
            "invalidations_out": 0,
            "errors": 0,
        }
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._tasks: set = set()
        self._writers: Dict[_ClientConn, asyncio.StreamWriter] = {}
        self._session_counter = 0
        self._repair_lock: Optional[asyncio.Lock] = None
        #: Per-document write serialization: concurrent UPDATEs to one
        #: document must reach the primary and every replica in the
        #: same order, or non-commutative ops could diverge replica
        #: content while version counters stay in lockstep.  (Grows
        #: one lock per updated document id — bounded by the corpus.)
        self._update_locks: Dict[str, asyncio.Lock] = {}
        #: Highest version already announced per document (dedupe: R
        #: replicas each push INVALIDATED for the same update).
        self._announced: Dict[str, int] = {}
        self.slow_ms = slow_ms
        self.trace = trace
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = (
            tracer
            if tracer is not None
            else Tracer(slow_ms=slow_ms, slow_sink=slow_sink)
        )
        self._requests_metric = self.registry.counter(
            "repro_requests_total",
            "Frames dispatched by type.",
            labelnames=("type",),
        )
        self._latency_metric = self.registry.histogram(
            "repro_request_ms",
            "End-to-end request latency as seen by the gateway.",
        )
        self.registry.register_collector(self._collect_metrics)

    # ------------------------------------------------------------------
    # Lifecycle (ServerThread-compatible: start/stop/address)
    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        return self.host, self.port

    async def start(self) -> Tuple[str, int]:
        self._loop = asyncio.get_running_loop()
        self._repair_lock = asyncio.Lock()
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.address

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)
        for backend in self.backends.values():
            while True:
                try:
                    backend.pool.get_nowait().close()
                except asyncio.QueueEmpty:
                    break
            backend.created = 0

    # ------------------------------------------------------------------
    # Upstream links
    # ------------------------------------------------------------------
    async def _open_link(self, backend: _Backend) -> _BackendLink:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(backend.host, backend.port),
            self.connect_timeout,
        )
        link = _BackendLink(backend.name, reader, writer, self.max_payload)
        try:
            await asyncio.wait_for(link.handshake(), self.connect_timeout)
        except BaseException:
            link.close()
            raise
        return link

    async def _acquire(self, backend: _Backend) -> _BackendLink:
        if not backend.alive:
            raise ConnectionError("backend %s is down" % backend.name)
        try:
            return backend.pool.get_nowait()
        except asyncio.QueueEmpty:
            pass
        if backend.created < backend.pool_size:
            backend.created += 1
            try:
                return await self._open_link(backend)
            except BaseException:
                backend.created -= 1
                raise
        return await asyncio.wait_for(backend.pool.get(), self.request_timeout)

    def _release(self, backend: _Backend, link: _BackendLink, ok: bool) -> None:
        if ok and backend.alive:
            backend.pool.put_nowait(link)
        else:
            backend.created = max(0, backend.created - 1)
            link.close()

    async def _request(
        self, backend: _Backend, payload: bytes, final: Tuple[int, ...]
    ) -> Tuple[List[bytes], Frame]:
        """One request/response round-trip on a pooled link.

        Collects CHUNK payloads (store-and-forward: the response is
        complete before anything reaches the client, so failover can
        restart it), consumes INVALIDATED pushes out-of-band, and
        returns on any frame type in ``final``.  A structured ERROR
        raises :class:`BackendRefused`; transport trouble raises the
        underlying exception after poisoning the link.
        """
        link = await self._acquire(backend)
        ok = False
        try:
            await link.send(payload)
            chunks: List[bytes] = []
            while True:
                frame = await asyncio.wait_for(
                    link.read(), self.request_timeout
                )
                if frame.type == INVALIDATED:
                    self._note_push(frame)
                    continue
                if frame.type == CHUNK:
                    chunks.append(frame.payload)
                    continue
                if frame.type in final:
                    ok = True
                    return chunks, frame
                if frame.type == ERROR:
                    ok = True  # clean app-level reply: link is healthy
                    body = frame.json()
                    raise BackendRefused(
                        body.get("code", "unknown"),
                        body.get("message", "backend error"),
                    )
                raise ProtocolError(
                    "unexpected %s frame from backend %s"
                    % (frame.type_name, backend.name)
                )
        finally:
            self._release(backend, link, ok)

    async def _forward_query(
        self,
        backend: _Backend,
        subject: str,
        document_id: str,
        query: Optional[str],
        trace: int = 0,
    ) -> Tuple[List[bytes], Dict[str, Any]]:
        body = {
            "kind": "query",
            "subject": subject,
            "document": document_id,
            "query": query,
        }
        chunks, frame = await self._request(
            backend, json_frame(FORWARD, 0, body, trace=trace), (RESULT,)
        )
        return chunks, frame.json()

    async def _forward_update(
        self,
        backend: _Backend,
        subject: str,
        document_id: str,
        op_body: Dict[str, Any],
        trace: int = 0,
    ) -> Dict[str, Any]:
        body = {
            "kind": "update",
            "subject": subject,
            "document": document_id,
            "op": op_body,
        }
        _chunks, frame = await self._request(
            backend, json_frame(FORWARD, 0, body, trace=trace), (RESULT,)
        )
        return frame.json()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _candidates(self, document_id: str) -> List[str]:
        """Live backends to try for ``document_id``, in order.

        Preference-listed nodes already holding a copy first, then the
        rest of the preference list (covers the window where repair has
        not yet placed a copy on a new preference node), then any
        stray live holder outside the preference list (a just-joined
        ring can shift preference away from existing copies before
        repair catches up).
        """
        preference = self.ring.preference(document_id, self.replicas)
        placed = self.placement.get(document_id)
        if not placed:
            return preference
        first = [name for name in preference if name in placed]
        second = [name for name in preference if name not in placed]
        extra = [
            name
            for name in placed
            if name not in preference
            and name in self.backends
            and self.backends[name].alive
        ]
        return first + second + extra

    _TRANSPORT_ERRORS = (
        ConnectionError,
        OSError,
        asyncio.TimeoutError,
        asyncio.IncompleteReadError,
        ProtocolError,
    )

    async def _mark_dead(self, name: str) -> None:
        backend = self.backends.get(name)
        if backend is None or not backend.alive:
            return
        backend.alive = False
        backend.errors += 1
        self.ring.remove(name)
        self.gateway_stats["backends_lost"] += 1
        while True:
            try:
                backend.pool.get_nowait().close()
            except asyncio.QueueEmpty:
                break
        backend.created = 0
        self._schedule_repair()

    def _schedule_repair(self) -> None:
        if self.republisher is None or self._loop is None:
            return
        task = asyncio.ensure_future(self._repair())
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _repair(self) -> None:
        """Re-place every under-replicated document (idempotent).

        For each registered document: drop dead holders from the
        placement view, then publish a copy onto every preference node
        that lacks one, passing the last served version as the floor so
        the replacement continues the version chain.
        """
        if self.republisher is None:
            return
        loop = asyncio.get_running_loop()
        async with self._repair_lock:
            for document_id in list(self.placement):
                holders = {
                    name
                    for name in self.placement[document_id]
                    if name in self.backends and self.backends[name].alive
                }
                self.placement[document_id] = holders
                version = self.documents.get(document_id, 0)
                for name in self.ring.preference(document_id, self.replicas):
                    if name in holders:
                        continue
                    try:
                        new_version = await loop.run_in_executor(
                            None,
                            self.republisher,
                            document_id,
                            name,
                            version,
                        )
                    except Exception:
                        self.gateway_stats["repair_failures"] += 1
                        continue
                    holders.add(name)
                    self.placement[document_id] = holders
                    self.gateway_stats["repairs"] += 1
                    if new_version is not None:
                        self._note_version(document_id, int(new_version))

    def _note_version(self, document_id: str, version: int) -> None:
        if version > self.documents.get(document_id, -1):
            self.documents[document_id] = version

    def _note_push(self, frame: Frame) -> None:
        """An INVALIDATED push read off an upstream link."""
        try:
            body = frame.json()
            document_id = body["document"]
            version = int(body["version"])
        except (ProtocolError, KeyError, TypeError, ValueError):
            return
        self._note_version(document_id, version)
        self._announce(document_id, version)

    def _announce(self, document_id: str, version: int) -> None:
        """Fan one INVALIDATED out to every gateway client — exactly
        once per (document, version), however many replicas pushed it."""
        if version <= self._announced.get(document_id, -1):
            return
        self._announced[document_id] = version
        body = {"document": document_id, "version": version}
        for conn, writer in list(self._writers.items()):
            try:
                writer.write(json_frame(INVALIDATED, conn.session_id, body))
                self.gateway_stats["invalidations_out"] += 1
            except Exception:
                pass

    # ------------------------------------------------------------------
    # Client-facing server
    # ------------------------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._tasks.add(task)
        peername = writer.get_extra_info("peername")
        conn = _ClientConn(
            "%s:%s" % (peername[0], peername[1]) if peername else "?"
        )
        decoder = FrameDecoder(self.max_payload)
        self.gateway_stats["connections"] += 1
        self.gateway_stats["active"] += 1
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
            pass
        finally:
            self._tasks.discard(task)
            self._writers.pop(conn, None)
            self.gateway_stats["active"] -= 1
            writer.close()

    async def _dispatch(
        self, frame: Frame, conn: _ClientConn, writer: asyncio.StreamWriter
    ) -> bool:
        self._requests_metric.labels(type=frame.type_name).inc()
        if frame.type == BYE:
            return False
        if frame.type == PING:
            return await self._on_ping(conn, writer)
        if frame.type == HELLO:
            return await self._on_hello(frame, conn, writer)
        if conn.subject is None:
            await self._send_error(
                writer, conn, E_PROTOCOL, "first frame must be HELLO"
            )
            return False
        if frame.type == QUERY:
            return await self._on_query(frame, conn, writer)
        if frame.type == UPDATE:
            return await self._on_update(frame, conn, writer)
        if frame.type == STATS_REQUEST:
            return await self._on_stats(conn, writer)
        if frame.type == TOPOLOGY_REQUEST:
            return await self._on_topology(conn, writer)
        if frame.type == REBALANCE:
            return await self._on_rebalance(frame, conn, writer)
        await self._send_error(
            writer,
            conn,
            E_PROTOCOL,
            "unexpected %s frame at the gateway" % frame.type_name,
        )
        return False

    async def _on_hello(
        self, frame: Frame, conn: _ClientConn, writer: asyncio.StreamWriter
    ) -> bool:
        if conn.subject is not None:
            await self._send_error(writer, conn, E_PROTOCOL, "duplicate HELLO")
            return False
        try:
            subject = str(frame.json()["subject"])
        except (ProtocolError, KeyError):
            await self._send_error(
                writer, conn, E_BAD_FRAME, "HELLO payload must carry a subject"
            )
            return False
        conn.subject = subject
        self._session_counter += 1
        conn.session_id = self._session_counter
        alive = sum(1 for b in self.backends.values() if b.alive)
        welcome = {
            "session": conn.session_id,
            "subject": subject,
            # The gateway terminates sessions itself; the key is a
            # fresh random link key (sealing is off gateway-side, so
            # it only keeps the WELCOME shape identical for clients).
            "key": os.urandom(16).hex(),
            "seal": False,
            "gateway": False,
            "cluster": {"backends": alive, "replicas": self.replicas},
            "limits": {"max_payload": self.max_payload},
        }
        await self._send(writer, json_frame(WELCOME, conn.session_id, welcome))
        return True

    async def _on_query(
        self, frame: Frame, conn: _ClientConn, writer: asyncio.StreamWriter
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
        trace = frame.trace or (new_trace_id() if self.trace else 0)
        root = None
        if trace:
            root = self.tracer.start(
                trace, "gateway.request", document=document_id
            )
        tried: Set[str] = set()
        attempts: List[str] = []
        request_started = time.perf_counter()
        while True:
            candidates = [
                name
                for name in self._candidates(document_id)
                if name not in tried
            ]
            if not candidates:
                break
            name = candidates[0]
            tried.add(name)
            backend = self.backends[name]
            started = time.perf_counter()
            fwd = None
            if trace:
                fwd = self.tracer.start(
                    trace, "forward:%s" % name, parent=root.id
                )
            try:
                chunks, trailer = await self._forward_query(
                    backend, conn.subject, document_id, query, trace=trace
                )
            except BackendRefused as exc:
                if fwd is not None:
                    self.tracer.finish(fwd, error=exc.code)
                if exc.code == "unknown-document" and len(candidates) > 1:
                    # Placement race: repair has not copied the
                    # document onto this preference node yet.  Another
                    # candidate may hold it.
                    attempts.append("%s: %s" % (name, exc.message))
                    continue
                if trace:
                    self.tracer.discard(trace)
                await self._send_error(writer, conn, exc.code, exc.message)
                return True
            except self._TRANSPORT_ERRORS as exc:
                if fwd is not None:
                    self.tracer.finish(fwd, error=type(exc).__name__)
                attempts.append("%s: %s" % (name, exc))
                self.gateway_stats["failovers"] += 1
                await self._mark_dead(name)
                continue
            backend.requests += 1
            backend.latencies.append(time.perf_counter() - started)
            # Batched zero-copy relay: each upstream CHUNK payload (a
            # memoryview into the backend link's receive buffers) is
            # written behind a fresh header without re-concatenation,
            # and the whole response drains once — not per frame.
            for chunk in chunks:
                header, payload = encode_frame_parts(
                    CHUNK,
                    conn.session_id,
                    chunk,
                    max_payload=self.max_payload,
                )
                writer.write(header)
                if payload:
                    writer.write(payload)
            if chunks:
                await writer.drain()
            version = trailer.get("version")
            if version is not None:
                self._note_version(document_id, int(version))
            trailer["backend"] = name
            trailer["failover"] = len(tried) - 1
            if trace:
                # Graft the backend's span tree (serialized into its
                # trailer) under this attempt's forward span, then ship
                # the *combined* tree to the client — one trace, both
                # processes.
                remote_spans = trailer.pop("spans", None)
                self.tracer.finish(fwd, backend=name, chunks=len(chunks))
                if remote_spans:
                    self.tracer.adopt(trace, remote_spans, parent=fwd.id)
                self.tracer.finish(
                    root, backend=name, failover=len(tried) - 1
                )
                record = self.tracer.end_trace(trace, root=root)
                trailer["trace"] = format_trace_id(trace)
                if record is not None and record.slow:
                    # Client-facing trees only ship for slow traces
                    # (slow_ms=0 means "every trace"): the combined
                    # tree is already in the gateway's ring/slow log,
                    # and serializing it per-request would blow the
                    # hot-path tracing budget.
                    trailer["spans"] = record.wire_spans()
            self._latency_metric.observe(
                (time.perf_counter() - request_started) * 1000
            )
            await self._send(
                writer,
                json_frame(RESULT, conn.session_id, trailer, trace=trace),
            )
            self.gateway_stats["queries"] += 1
            return True
        if trace:
            self.tracer.discard(trace)
        await self._send_error(
            writer,
            conn,
            E_UNAVAILABLE,
            "no live replica can serve %r (%s)"
            % (document_id, "; ".join(attempts) or "no candidates"),
        )
        return True

    async def _on_update(
        self, frame: Frame, conn: _ClientConn, writer: asyncio.StreamWriter
    ) -> bool:
        try:
            body = frame.json()
            document_id = body["document"]
            op_body = dict(body.get("op") or {})
        except (ProtocolError, KeyError, TypeError):
            await self._send_error(
                writer, conn, E_BAD_FRAME, "UPDATE payload must carry a document"
            )
            return False
        lock = self._update_locks.get(document_id)
        if lock is None:
            lock = self._update_locks[document_id] = asyncio.Lock()
        async with lock:
            return await self._apply_routed_update(
                conn, writer, document_id, op_body, trace=frame.trace
            )

    async def _apply_routed_update(
        self,
        conn: _ClientConn,
        writer: asyncio.StreamWriter,
        document_id: str,
        op_body: Dict[str, Any],
        trace: int = 0,
    ) -> bool:
        trace = trace or (new_trace_id() if self.trace else 0)
        root = None
        if trace:
            root = self.tracer.start(
                trace, "gateway.update", document=document_id
            )
        request_started = time.perf_counter()
        tried: Set[str] = set()
        trailer = None
        primary = None
        while True:
            candidates = [
                name
                for name in self._candidates(document_id)
                if name not in tried
            ]
            if not candidates:
                if trace:
                    self.tracer.discard(trace)
                await self._send_error(
                    writer,
                    conn,
                    E_UNAVAILABLE,
                    "no live replica can apply the update to %r" % document_id,
                )
                return True
            primary = candidates[0]
            tried.add(primary)
            fwd = None
            if trace:
                fwd = self.tracer.start(
                    trace, "forward:%s" % primary, parent=root.id
                )
            try:
                trailer = await self._forward_update(
                    self.backends[primary],
                    conn.subject,
                    document_id,
                    op_body,
                    trace=trace,
                )
            except BackendRefused as exc:
                if trace:
                    self.tracer.discard(trace)
                await self._send_error(writer, conn, exc.code, exc.message)
                return True
            except self._TRANSPORT_ERRORS:
                if fwd is not None:
                    self.tracer.finish(fwd, error="transport")
                self.gateway_stats["failovers"] += 1
                await self._mark_dead(primary)
                continue
            if trace:
                remote_spans = trailer.pop("spans", None)
                trailer.pop("trace", None)
                self.tracer.finish(fwd, backend=primary)
                if remote_spans:
                    self.tracer.adopt(trace, remote_spans, parent=fwd.id)
            break
        version = int(trailer.get("version", 0))
        replicas_ok = 1
        holders = self.placement.get(document_id, set())
        targets = [
            name
            for name in self._candidates(document_id)
            if name != primary and name not in tried and name in holders
        ]
        for name in targets:
            try:
                replica_trailer = await self._forward_update(
                    self.backends[name], conn.subject, document_id, op_body
                )
            except BackendRefused as exc:
                trailer.setdefault("replica_errors", []).append(
                    {"backend": name, "code": exc.code}
                )
                continue
            except self._TRANSPORT_ERRORS:
                await self._mark_dead(name)
                continue
            if int(replica_trailer.get("version", -1)) != version:
                # Diverged replica: its chain no longer matches the
                # primary's.  Drop the copy and let repair re-place a
                # fresh one at the right version floor.
                self.placement.setdefault(document_id, set()).discard(name)
                trailer.setdefault("replica_divergence", []).append(name)
                self._schedule_repair()
                continue
            replicas_ok += 1
        self._note_version(document_id, version)
        self._announce(document_id, version)
        trailer["backend"] = primary
        trailer["replicas"] = replicas_ok
        if trace:
            self.tracer.finish(
                root, backend=primary, version=version, replicas=replicas_ok
            )
            record = self.tracer.end_trace(trace, root=root)
            trailer["trace"] = format_trace_id(trace)
            if record is not None and record.slow:
                trailer["spans"] = record.wire_spans()
        self._latency_metric.observe(
            (time.perf_counter() - request_started) * 1000
        )
        self.gateway_stats["updates"] += 1
        await self._send(
            writer, json_frame(RESULT, conn.session_id, trailer, trace=trace)
        )
        return True

    # ------------------------------------------------------------------
    # Control frames
    # ------------------------------------------------------------------
    async def _on_ping(
        self, conn: _ClientConn, writer: asyncio.StreamWriter
    ) -> bool:
        body = {
            "ok": True,
            "role": "gateway",
            "documents": dict(self.documents),
            "active": self.gateway_stats["active"],
            "backends": {
                name: backend.alive for name, backend in self.backends.items()
            },
        }
        await self._send(writer, json_frame(PONG, conn.session_id, body))
        return True

    async def _on_topology(
        self, conn: _ClientConn, writer: asyncio.StreamWriter
    ) -> bool:
        documents = {}
        for document_id, version in self.documents.items():
            preference = self.ring.preference(document_id, self.replicas)
            documents[document_id] = {
                "version": version,
                "nodes": sorted(self.placement.get(document_id, ())),
                "primary": preference[0] if preference else None,
            }
        body = {
            "role": "gateway",
            "replicas": self.replicas,
            "vnodes": self.ring.vnodes,
            "backends": {
                name: {
                    "address": [backend.host, backend.port],
                    "alive": backend.alive,
                }
                for name, backend in self.backends.items()
            },
            "documents": documents,
        }
        await self._send(writer, json_frame(TOPOLOGY, conn.session_id, body))
        return True

    async def _on_rebalance(
        self, frame: Frame, conn: _ClientConn, writer: asyncio.StreamWriter
    ) -> bool:
        try:
            body = frame.json()
            action = body["action"]
            name = str(body["name"])
        except (ProtocolError, KeyError):
            await self._send_error(
                writer, conn, E_BAD_FRAME, "REBALANCE needs action and name"
            )
            return False
        if action == "join":
            return await self._rebalance_join(body, name, conn, writer)
        if action == "leave":
            return await self._rebalance_leave(name, conn, writer)
        await self._send_error(
            writer, conn, E_BAD_FRAME, "unknown REBALANCE action %r" % action
        )
        return False

    async def _rebalance_join(
        self,
        body: Dict[str, Any],
        name: str,
        conn: _ClientConn,
        writer: asyncio.StreamWriter,
    ) -> bool:
        existing = self.backends.get(name)
        if existing is not None and existing.alive:
            await self._send_error(
                writer, conn, E_REBALANCE, "backend %r is already a member" % name
            )
            return True
        host = str(body.get("host", "127.0.0.1"))
        try:
            port = int(body["port"])
        except (KeyError, TypeError, ValueError):
            await self._send_error(
                writer, conn, E_BAD_FRAME, "REBALANCE join needs a port"
            )
            return False
        backend = _Backend(name, host, port, self.pool_size)
        try:
            link = await self._open_link(backend)
        except Exception as exc:
            await self._send_error(
                writer,
                conn,
                E_REBALANCE,
                "cannot reach backend %r at %s:%d: %s" % (name, host, port, exc),
            )
            return True
        backend.created = 1
        backend.pool.put_nowait(link)
        self.backends[name] = backend
        self.ring.add(name)
        self.gateway_stats["rebalances"] += 1
        moved = sorted(
            document_id
            for document_id in self.placement
            if name in self.ring.preference(document_id, self.replicas)
        )
        # Synchronous repair: the RESULT must describe the completed
        # re-placement, so a test (or an operator script) can query the
        # new node the moment the reply lands.
        await self._repair()
        await self._send(
            writer,
            json_frame(
                RESULT,
                conn.session_id,
                {
                    "action": "join",
                    "backend": name,
                    "documents_moved": moved,
                    "backends_alive": sum(
                        1 for b in self.backends.values() if b.alive
                    ),
                },
            ),
        )
        return True

    async def _rebalance_leave(
        self, name: str, conn: _ClientConn, writer: asyncio.StreamWriter
    ) -> bool:
        if name not in self.backends:
            await self._send_error(
                writer, conn, E_REBALANCE, "unknown backend %r" % name
            )
            return True
        affected = sorted(
            document_id
            for document_id, holders in self.placement.items()
            if name in holders
        )
        await self._mark_dead(name)
        self.gateway_stats["rebalances"] += 1
        await self._repair()
        await self._send(
            writer,
            json_frame(
                RESULT,
                conn.session_id,
                {
                    "action": "leave",
                    "backend": name,
                    "documents_moved": affected,
                    "backends_alive": sum(
                        1 for b in self.backends.values() if b.alive
                    ),
                },
            ),
        )
        return True

    async def _on_stats(
        self, conn: _ClientConn, writer: asyncio.StreamWriter
    ) -> bool:
        station_totals: Dict[str, int] = {}
        server_totals: Dict[str, int] = {}
        per_backend: Dict[str, Dict[str, Any]] = {}
        native_backends = 0
        cached_views = 0
        for name in list(self.backends):
            backend = self.backends[name]
            entry: Dict[str, Any] = {
                "alive": backend.alive,
                "address": [backend.host, backend.port],
                "requests": backend.requests,
                "errors": backend.errors,
                "latency_ms": {
                    "p50": backend.latency_ms(50),
                    "p95": backend.latency_ms(95),
                    "p99": backend.latency_ms(99),
                },
            }
            if backend.alive:
                try:
                    _chunks, frame = await self._request(
                        backend,
                        json_frame(STATS_REQUEST, 0, {}),
                        (STATS,),
                    )
                    stats_body = frame.json()
                    for key, value in (stats_body.get("station") or {}).items():
                        station_totals[key] = station_totals.get(key, 0) + int(
                            value
                        )
                    for key, value in (stats_body.get("server") or {}).items():
                        server_totals[key] = server_totals.get(key, 0) + int(
                            value
                        )
                    cached_views += int(stats_body.get("cached_views") or 0)
                    entry["cached_views"] = stats_body.get("cached_views")
                    entry["cached_plans"] = stats_body.get("cached_plans")
                    entry["station"] = stats_body.get("station")
                    compute = dict(stats_body.get("backend") or {})
                    entry["backend"] = compute
                    entry["store"] = stats_body.get("store")
                    native_backends += 1 if compute.get("native_kernels") else 0
                except BackendRefused:
                    pass
                except self._TRANSPORT_ERRORS:
                    await self._mark_dead(name)
                    entry["alive"] = False
            per_backend[name] = entry
        # Cluster-wide percentiles are computed over the *pooled* raw
        # samples from every backend, never by averaging per-backend
        # percentiles — an average of p95s is not the p95 of the union
        # (a skewed node's tail would be diluted by quiet ones).
        samples: List[float] = []
        for backend in self.backends.values():
            samples.extend(backend.latencies)
        alive = sum(1 for b in self.backends.values() if b.alive)
        body = {
            "role": "gateway",
            "gateway": dict(self.gateway_stats),
            "per_backend": per_backend,
            "station": station_totals,
            "server": server_totals,
            "cached_views": cached_views,
            "documents": dict(self.documents),
            "replicas": self.replicas,
            "ring": {"alive": alive, "total": len(self.backends)},
            "latency_ms": {
                "p50": round(percentile(samples, 50) * 1000, 3),
                "p95": round(percentile(samples, 95) * 1000, 3),
                "p99": round(percentile(samples, 99) * 1000, 3),
            },
            "compute": {"native_backends": native_backends},
            "observability": dict(
                self.tracer.stats(), slow_log=self.tracer.slow_records()
            ),
        }
        await self._send(writer, json_frame(STATS, conn.session_id, body))
        return True

    # ------------------------------------------------------------------
    def _collect_metrics(self, registry: MetricsRegistry) -> None:
        """Pull-time collector: refresh gauges from the live gateway
        state.  Nothing on the request path mirrors counters into the
        registry — scrapes read them here, so tracing-off requests pay
        zero metric bookkeeping beyond the dispatch counter."""
        for key, value in self.gateway_stats.items():
            registry.gauge(
                "repro_gateway_%s" % key, "Gateway counter %r." % key
            ).set(float(value))
        registry.gauge(
            "repro_ring_alive", "Backends currently on the hash ring."
        ).set(float(sum(1 for b in self.backends.values() if b.alive)))
        registry.gauge(
            "repro_ring_total", "Backends ever registered with the gateway."
        ).set(float(len(self.backends)))
        requests = registry.gauge(
            "repro_backend_requests",
            "Requests forwarded, per backend.",
            labelnames=("backend",),
        )
        for name, backend in self.backends.items():
            requests.labels(backend=name).set(float(backend.requests))
        tracer_stats = self.tracer.stats()
        registry.gauge(
            "repro_traces_finished", "Traces completed end-to-end."
        ).set(float(tracer_stats["finished"]))
        registry.gauge(
            "repro_slow_queries", "Traces at or above the slow threshold."
        ).set(float(tracer_stats["slow_queries"]))

    async def _send(self, writer: asyncio.StreamWriter, data: bytes) -> None:
        writer.write(data)
        await writer.drain()

    async def _send_error(
        self,
        writer: asyncio.StreamWriter,
        conn: _ClientConn,
        code: str,
        message: str,
    ) -> None:
        self.gateway_stats["errors"] += 1
        try:
            await self._send(
                writer,
                json_frame(
                    ERROR, conn.session_id, {"code": code, "message": message}
                ),
            )
        except (ConnectionResetError, BrokenPipeError):
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "ClusterGateway(%s:%d, %d/%d backends alive)" % (
            self.host,
            self.port,
            sum(1 for b in self.backends.values() if b.alive),
            len(self.backends),
        )

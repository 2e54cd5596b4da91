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
  PING (gateway health) and an aggregated STATS that
  sums backend counters and reports per-backend request counts and
  latency percentiles (the ``repro top`` per-backend skew view).

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
from repro.obs.trace import Tracer, new_trace_id
from repro.server import protocol
from repro.server.frames import (
    E_BAD_FRAME,
    E_UNAVAILABLE,
    E_UNKNOWN_DOCUMENT,
    Connection,
    FrameServer,
)
from repro.server.protocol import (
    CHUNK,
    ERROR,
    FORWARD,
    HELLO,
    INVALIDATED,
    QUERY,
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

#: Subject the gateway authenticates as on its upstream links.
GATEWAY_SUBJECT = "@gateway"

#: Republisher callback: ``(document_id, node_name, version_floor) ->
#: new version``; raises on failure.  Runs on the gateway's worker pool.
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
        "requests",
        "errors",
        "latencies",
    )

    def __init__(self, name: str, host: str, port: int):
        self.name = name
        self.host = host
        self.port = port
        self.alive = True
        self.pool: "asyncio.Queue[_BackendLink]" = asyncio.Queue()
        self.created = 0
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

    def close_pool(self) -> None:
        """Close every idle pooled link."""
        while not self.pool.empty():
            self.pool.get_nowait().close()
        self.created = 0


class ClusterGateway(FrameServer):
    """Consistent-hash routing gateway over N :class:`StationServer`
    backends, with R-way replication, read failover and repair.

    Parameters
    ----------
    backends:
        ``{name: (host, port)}`` of the initial members.
    replicas:
        Copies per document (R).  Reads prefer the primary; updates
        are applied to every live replica.
    documents / placement:
        Bootstrap knowledge: last known version per document id and
        which backends hold a copy (both maintained live afterwards).
    republisher:
        ``(document_id, node_name, version_floor) -> version`` callback
        used by repair to place a document copy onto a
        backend; ``None`` disables repair (failover still works while
        replicas survive).
    slow_ms / trace / registry / tracer / slow_sink:
        Observability: a request whose frame header carries a nonzero
        trace id echoes it and is counted.  With ``slow_ms`` set it also
        gets a gateway-side span tree — a ``gateway.request`` (or
        ``gateway.update``) root, one ``forward:<backend>`` child per
        attempt, and the backend's own spans grafted underneath (the
        backend serializes them into its RESULT trailer; the gateway
        adopts them, so one trace spans both processes) — and traces at
        or above the threshold land in the tracer's slow log (and
        ``slow_sink``, when given).  ``trace=True`` additionally mints
        an id for *untraced* client requests, so a plain old client
        still shows up in the slow log.  ``registry``
        is a :class:`MetricsRegistry` (one is created when omitted)
        exposing gateway counters, ring health and request latency for
        the Prometheus endpoint.
    """

    HANDLERS = {
        **FrameServer.HANDLERS,
        QUERY: "_on_query",
        UPDATE: "_on_update",
        STATS_REQUEST: "_on_stats",
        TOPOLOGY_REQUEST: "_on_topology",
    }
    STATS = (
        "connections",
        "active",
        "queries",
        "updates",
        "failovers",
        "backends_lost",
        "repairs",
        "repair_failures",
        "invalidations_out",
        "errors",
    )
    METRICS_PREFIX = "repro_gateway_"
    UNEXPECTED = "unexpected %s frame at the gateway"
    WORKERS = "repro-gateway"
    #: Pooled links per backend.
    pool_size = 4
    #: Seconds to wait for a backend reply or a free pooled link.
    request_timeout = 60.0
    #: Seconds to open and handshake one backend link.
    connect_timeout = 5.0

    def __init__(
        self,
        backends: Dict[str, Tuple[str, int]],
        *,
        replicas: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        documents: Optional[Dict[str, int]] = None,
        placement: Optional[Dict[str, Iterable[str]]] = None,
        republisher: Optional[Republisher] = None,
        max_payload: int = protocol.DEFAULT_MAX_PAYLOAD,
        slow_ms: Optional[float] = None,
        trace: bool = False,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        slow_sink: Optional[Callable[[Dict[str, Any]], None]] = None,
    ):
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        super().__init__(
            host,
            port,
            max_payload=max_payload,
            slow_ms=slow_ms,
            registry=registry,
            tracer=tracer,
            slow_sink=slow_sink,
        )
        self.replicas = replicas
        self.republisher = republisher
        self.ring = HashRing(backends)
        self.backends: Dict[str, _Backend] = {
            name: _Backend(name, address[0], address[1])
            for name, address in backends.items()
        }
        #: Last known version per document id.
        self.documents: Dict[str, int] = dict(documents or {})
        #: Which backends hold a copy of each document.
        self.placement: Dict[str, Set[str]] = {
            document_id: set(nodes)
            for document_id, nodes in (placement or {}).items()
        }
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
        self.trace = trace
        # Read on the /metrics thread; the backend table is fixed at
        # construction (a dead backend stays in it, marked down).
        self.registry.expose(
            "repro_ring_",
            "gauge",
            lambda: {
                "alive": sum(b.alive for b in self.backends.values()),
                "backends": len(self.backends),
            },
        )
        self.registry.expose(
            "repro_backend_requests",
            "counter",
            lambda: {name: b.requests for name, b in self.backends.items()},
            label="backend",
            help_text="Requests forwarded, per backend.",
        )

    # ------------------------------------------------------------------
    # Lifecycle (ServerThread-compatible: start/stop/address)
    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        self._repair_lock = asyncio.Lock()
        return await super().start()

    async def stop(self) -> None:
        await super().stop()
        for backend in self.backends.values():
            backend.close_pool()

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
        if backend.created < self.pool_size:
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

    async def _forward(
        self, backend: _Backend, request: bytes
    ) -> Tuple[List[bytes], Dict[str, Any]]:
        """Send the encoded FORWARD frame ``request`` to ``backend``;
        returns the CHUNK payloads and the RESULT trailer."""
        chunks, frame = await self._request(backend, request, (RESULT,))
        return chunks, frame.json()

    async def _encode_forward(
        self, conn: Connection, body: Dict[str, Any], trace: int
    ) -> Optional[bytes]:
        """``body`` as a FORWARD frame, or ``None`` after answering
        ``bad-frame`` when it exceeds the frame limit.  Encoded once,
        before any backend is tried, so an oversize request is the
        client's fault and never a failover."""
        try:
            return json_frame(FORWARD, 0, body, trace=trace)
        except ProtocolError:
            await self._send_error(
                conn, E_BAD_FRAME, "request too large to forward"
            )
            return None

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
        self.stats["backends_lost"] += 1
        backend.close_pool()
        self._schedule_repair()

    def _schedule_repair(self) -> None:
        if self.republisher is None or self._loop is None:
            return
        self._spawn(self._repair())

    async def _repair(self) -> None:
        """Re-place every under-replicated document (idempotent).

        For each registered document: drop dead holders from the
        placement view, then publish a copy onto every preference node
        that lacks one, passing the last served version as the floor so
        the replacement continues the version chain.
        """
        if self.republisher is None:
            return
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
                        new_version = await self._offload(
                            self.republisher, document_id, name, version
                        )
                    except Exception:
                        self.stats["repair_failures"] += 1
                        continue
                    holders.add(name)
                    self.placement[document_id] = holders
                    self.stats["repairs"] += 1
                    if new_version is not None:
                        self._note_version(document_id, int(new_version))

    def _alive(self) -> int:
        return sum(1 for backend in self.backends.values() if backend.alive)

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
        sent = self._push_invalidated(document_id, version)
        self.stats["invalidations_out"] += sent

    # ------------------------------------------------------------------
    # Client-facing server
    # ------------------------------------------------------------------
    async def _welcome(self, hello: Dict[str, Any], conn: Connection) -> dict:
        self._session_counter += 1
        conn.session_id = self._session_counter
        return {
            "session": conn.session_id,
            "subject": hello["subject"],
            # The gateway terminates sessions itself; the key is a
            # fresh random link key (sealing is off gateway-side, so
            # it only keeps the WELCOME shape identical for clients).
            "key": os.urandom(16).hex(),
            "seal": False,
            "gateway": False,
            "cluster": {"backends": self._alive(), "replicas": self.replicas},
            "limits": {"max_payload": self.max_payload},
        }

    async def _on_query(self, frame: Frame, conn: Connection) -> bool:
        body = frame.json()
        document_id = body["document"]
        trace = frame.trace or (new_trace_id() if self.trace else 0)
        forward = {
            "kind": "query",
            "subject": conn.subject,
            "document": document_id,
            "query": body.get("query") or None,
        }
        if trace and self.tracer.slow_ms is not None:
            forward["spans"] = True  # this gateway grafts the backend's tree
        request = await self._encode_forward(conn, forward, trace)
        if request is None:
            return True
        root = None
        if trace:
            root = self.tracer.begin(trace, "gateway.request", document=document_id)
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
            if root is not None:
                fwd = self.tracer.start(
                    trace, "forward:%s" % name, parent=root.id
                )
            try:
                chunks, trailer = await self._forward(backend, request)
            except BackendRefused as exc:
                if fwd is not None:
                    self.tracer.finish(fwd, error=exc.code)
                if exc.code == E_UNKNOWN_DOCUMENT and len(candidates) > 1:
                    # Placement race: repair has not copied the
                    # document onto this preference node yet.  Another
                    # candidate may hold it.
                    attempts.append("%s: %s" % (name, exc.message))
                    continue
                return await self._refuse(conn, trace, exc.code, exc.message)
            except self._TRANSPORT_ERRORS as exc:
                if fwd is not None:
                    self.tracer.finish(fwd, error=type(exc).__name__)
                attempts.append("%s: %s" % (name, exc))
                self.stats["failovers"] += 1
                await self._mark_dead(name)
                continue
            backend.requests += 1
            backend.latencies.append(time.perf_counter() - started)
            # Batched zero-copy relay: each upstream CHUNK payload (a
            # memoryview into the backend link's receive buffers) is
            # written behind a fresh header without re-concatenation,
            # and the whole response drains once — not per frame.
            writer = conn.writer
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
                # trailer) under this attempt's forward span; the
                # *combined* tree — one trace, both processes — lands
                # in the slow log and ships to the client when slow.
                remote_spans = trailer.pop("spans", None)
                if root is not None:
                    self.tracer.finish(fwd, backend=name, chunks=len(chunks))
                    if remote_spans:
                        self.tracer.adopt(trace, remote_spans, parent=fwd.id)
                self.tracer.close(
                    trace, root, trailer, backend=name, failover=len(tried) - 1
                )
            self._latency_metric.observe(
                (time.perf_counter() - request_started) * 1000
            )
            await self._send(
                conn, json_frame(RESULT, conn.session_id, trailer, trace=trace)
            )
            self.stats["queries"] += 1
            return True
        message = "no live replica can serve %r (%s)" % (
            document_id,
            "; ".join(attempts) or "no candidates",
        )
        return await self._refuse(conn, trace, E_UNAVAILABLE, message)

    async def _on_update(self, frame: Frame, conn: Connection) -> bool:
        body = frame.json()
        document_id = body["document"]
        try:
            op_body = dict(body.get("op") or {})
        except (TypeError, ValueError):
            await self._send_error(
                conn, E_BAD_FRAME, "UPDATE payload must carry a document"
            )
            return False
        lock = self._update_locks.get(document_id)
        if lock is None:
            lock = self._update_locks[document_id] = asyncio.Lock()
        async with lock:
            return await self._apply_routed_update(
                conn, document_id, op_body, trace=frame.trace
            )

    async def _apply_routed_update(
        self,
        conn: Connection,
        document_id: str,
        op_body: Dict[str, Any],
        trace: int = 0,
    ) -> bool:
        trace = trace or (new_trace_id() if self.trace else 0)
        forward = {
            "kind": "update",
            "subject": conn.subject,
            "document": document_id,
            "op": op_body,
        }
        if trace and self.tracer.slow_ms is not None:
            forward["spans"] = True  # this gateway grafts the backend's tree
        request = await self._encode_forward(conn, forward, trace)
        if request is None:
            return True
        root = None
        if trace:
            root = self.tracer.begin(trace, "gateway.update", document=document_id)
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
                message = "no live replica can apply the update to %r" % document_id
                return await self._refuse(conn, trace, E_UNAVAILABLE, message)
            primary = candidates[0]
            tried.add(primary)
            fwd = None
            if root is not None:
                fwd = self.tracer.start(
                    trace, "forward:%s" % primary, parent=root.id
                )
            try:
                _chunks, trailer = await self._forward(
                    self.backends[primary], request
                )
            except BackendRefused as exc:
                return await self._refuse(conn, trace, exc.code, exc.message)
            except self._TRANSPORT_ERRORS:
                if fwd is not None:
                    self.tracer.finish(fwd, error="transport")
                self.stats["failovers"] += 1
                await self._mark_dead(primary)
                continue
            remote_spans = trailer.pop("spans", None)
            if root is not None:
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
        # Replicas get the request untraced (a payload that fit traced
        # fits untraced: the trace id rides in the header).
        replica_request = json_frame(FORWARD, 0, forward) if trace else request
        for name in targets:
            try:
                _chunks, replica_trailer = await self._forward(
                    self.backends[name], replica_request
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
            self.tracer.close(
                trace,
                root,
                trailer,
                backend=primary,
                version=version,
                replicas=replicas_ok,
            )
        self._latency_metric.observe(
            (time.perf_counter() - request_started) * 1000
        )
        self.stats["updates"] += 1
        await self._send(
            conn, json_frame(RESULT, conn.session_id, trailer, trace=trace)
        )
        return True

    # ------------------------------------------------------------------
    # Control frames
    # ------------------------------------------------------------------
    def _pong(self) -> dict:
        return {
            "ok": True,
            "role": "gateway",
            "documents": dict(self.documents),
            "active": self.stats["active"],
            "backends": {
                name: backend.alive for name, backend in self.backends.items()
            },
        }

    async def _on_topology(self, frame: Frame, conn: Connection) -> bool:
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
        await self._send(conn, json_frame(TOPOLOGY, conn.session_id, body))
        return True

    async def _on_stats(self, frame: Frame, conn: Connection) -> bool:
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
        body = {
            "role": "gateway",
            "gateway": dict(self.stats),
            "per_backend": per_backend,
            "station": station_totals,
            "server": server_totals,
            "cached_views": cached_views,
            "documents": dict(self.documents),
            "replicas": self.replicas,
            "ring": {"alive": self._alive(), "total": len(self.backends)},
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
        await self._send(conn, json_frame(STATS, conn.session_id, body))
        return True

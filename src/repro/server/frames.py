"""The asyncio frame server under the station server and the gateway.

Both ends that accept :mod:`repro.server.protocol` connections —
:class:`~repro.server.service.StationServer` and
:class:`~repro.cluster.gateway.ClusterGateway` — hold the same
conversation with their clients, and :class:`FrameServer` holds it for
both:

* **one lifecycle** — ``start``/``serve_forever``/``stop``, with every
  connection and background task cancelled on stop;
* **one decode loop** per connection, carrying a :class:`Connection`
  (the writer plus the session state);
* **one HELLO gate** — PING is answered before HELLO (health probes
  must not spend a session), anything else before HELLO, a second
  HELLO and a frame type the server does not serve close the
  connection with a ``protocol`` ERROR;
* **one payload check** — ``subject`` and ``document`` must be strings
  and ``query`` a string or null, or the frame gets ``bad-frame``;
* **one dispatch table** from frame type to handler method name,
  looked up on the instance for every frame, so a wrapper installed on
  the class after the server started still sees every request;
* **one worker pool** — :meth:`FrameServer._offload` runs blocking
  work on a :class:`~concurrent.futures.ThreadPoolExecutor` of one
  thread per usable CPU, created by ``start`` and shut down by
  ``stop``.  Evaluation is pure Python under the GIL, so more threads
  would buy no parallelism, only a malloc arena each.  No pool task
  may wait on another task of the same pool: with one worker that
  would deadlock;
* ``_send``/``_send_error``, the INVALIDATED push and the
  ``connections``/``active``/``errors`` counters, which ``/metrics``
  reads in place (``active`` as a gauge, the rest as counters).

A subclass names its handlers in :attr:`FrameServer.HANDLERS` (each
takes ``(frame, conn)`` and returns False to close the connection) and
supplies :meth:`~FrameServer._welcome` and :meth:`~FrameServer._pong`.
"""

from __future__ import annotations

import asyncio
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Optional, Tuple

from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Tracer
from repro.server.protocol import (
    BYE,
    ERROR,
    FORWARD,
    HELLO,
    INVALIDATED,
    PING,
    PONG,
    QUERY,
    UPDATE,
    WELCOME,
    Frame,
    FrameDecoder,
    ProtocolError,
    json_frame,
)

#: Error codes carried by ERROR frames.  A gateway relays its backends'
#: codes unchanged, so one set serves both ends.
E_BAD_FRAME = "bad-frame"
E_PROTOCOL = "protocol"
E_UNKNOWN_DOCUMENT = "unknown-document"
E_NO_GRANT = "no-grant"
E_LIMIT = "limit"
E_UPDATE = "update"
E_INTERNAL = "internal"
E_UNAVAILABLE = "unavailable"

#: Longest ERROR message sent, in characters.  Messages may echo a
#: client's document id, which can be nearly a whole frame long; cut
#: here, every ERROR frame fits the frame limit.
MAX_ERROR_MESSAGE = 1024

_TEXT = (str,)
_OPTIONAL_TEXT = (str, type(None))

#: Fields checked before a handler runs, per frame type, and the
#: ``bad-frame`` message a missing or mistyped field gets.
PAYLOADS = {
    HELLO: ({"subject": _TEXT}, "HELLO payload must carry a subject"),
    QUERY: (
        {"document": _TEXT, "query": _OPTIONAL_TEXT},
        "QUERY payload must carry a document",
    ),
    UPDATE: ({"document": _TEXT}, "UPDATE payload must carry a document"),
    FORWARD: (
        {"subject": _TEXT, "document": _TEXT, "query": _OPTIONAL_TEXT},
        "FORWARD payload must carry subject and document",
    ),
}


def worker_count() -> int:
    """Threads in each server's worker pool: the CPUs this process may
    run on (its affinity mask), else the machine's CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def _carries(frame: Frame, fields: Dict[str, tuple]) -> bool:
    try:
        body = frame.json()
    except ProtocolError:
        return False
    return all(isinstance(body.get(name), types) for name, types in fields.items())


class Connection:
    """Per-connection state living on the event loop."""

    __slots__ = (
        "writer",
        "subject",
        "session_id",
        "session",
        "queries",
        "gateway",
    )

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer
        #: Set by HELLO; ``None`` before it (the HELLO gate).
        self.subject: Optional[str] = None
        self.session_id = 0
        # Station side only: the StationSession, the QUERY count, and
        # whether the HELLO was granted the gateway role (only such
        # connections may issue FORWARD frames).
        self.session = None
        self.queries = 0
        self.gateway = False


class FrameServer:
    """An asyncio TCP server speaking :mod:`repro.server.protocol`."""

    #: Frame type -> handler method name.  HELLO is handled here;
    #: subclasses extend the table with their own frames.
    HANDLERS: Dict[int, str] = {HELLO: "_on_hello"}
    #: Names of the :attr:`stats` counters, in reporting order; every
    #: subclass keeps ``connections``, ``active`` and ``errors``.
    STATS: Tuple[str, ...] = ("connections", "active", "errors")
    #: Prefix of the ``/metrics`` families over :attr:`stats`.
    METRICS_PREFIX: str
    #: ERROR message for a frame type the server does not serve.
    UNEXPECTED: str
    #: Role part of the worker threads' names (see :attr:`worker_prefix`).
    WORKERS: str

    def __init__(
        self,
        host: str,
        port: int,
        *,
        max_payload: int,
        slow_ms: Optional[float],
        registry: Optional[MetricsRegistry],
        tracer: Optional[Tracer],
        slow_sink,
    ):
        self.host = host
        self.port = port
        self.max_payload = max_payload
        self.stats: Dict[str, int] = dict.fromkeys(self.STATS, 0)
        # Observability: one registry + tracer per server.  Traced
        # requests (nonzero frame trace id) are counted and echo their
        # id; with ``slow_ms`` set they record span trees, and the
        # slow-query log keeps any trace over it.  The counter dicts
        # are the only copy: the registry reads them when scraped.
        self.slow_ms = slow_ms
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = (
            tracer
            if tracer is not None
            else Tracer(slow_ms=slow_ms, slow_sink=slow_sink)
        )
        self._requests_metric = self.registry.counter(
            "repro_requests_total",
            "Wire frames handled, by frame type",
            labelnames=("type",),
        )
        self._latency_metric = self.registry.histogram(
            "repro_request_ms", "Request wall-clock latency in milliseconds"
        )
        self.registry.expose(
            self.METRICS_PREFIX,
            "counter",
            lambda: {k: v for k, v in self.stats.items() if k != "active"},
        )
        self.registry.expose(
            self.METRICS_PREFIX, "gauge", lambda: {"active": self.stats["active"]}
        )
        self.registry.expose(
            "repro_",
            "counter",
            lambda: {
                "traces_finished": self.tracer.finished,
                "slow_queries": self.tracer.slow,
            },
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._tasks: set = set()
        # Live connections (for the INVALIDATED push).
        self._connections: set = set()

    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (resolves ephemeral port 0)."""
        return self.host, self.port

    @property
    def worker_prefix(self) -> str:
        """Name prefix of this server's pool threads (``ROLE:PORT``;
        each thread is called ``ROLE:PORT_N``)."""
        return "%s:%d" % (self.WORKERS, self.port)

    async def start(self) -> Tuple[str, int]:
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._pool = ThreadPoolExecutor(
            worker_count(), thread_name_prefix=self.worker_prefix
        )
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
        # Wind down in-flight connections and background tasks; the
        # connection handlers catch the cancellation and run their
        # cleanup.
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)
        if self._pool is not None:
            # Queued work is dropped; a running evaluation finishes (a
            # pool task never waits on the loop, so this cannot hang).
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def _offload(self, fn, *args) -> "asyncio.Future":
        """Run ``fn(*args)`` on this server's worker pool."""
        return self._loop.run_in_executor(self._pool, fn, *args)

    def _spawn(self, coro) -> None:
        """Run ``coro`` as a background task that :meth:`stop` cancels."""
        task = asyncio.ensure_future(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    # ------------------------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._tasks.add(task)
        conn = Connection(writer)
        decoder = FrameDecoder(self.max_payload)
        self.stats["connections"] += 1
        self.stats["active"] += 1
        self._connections.add(conn)
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    return
                try:
                    frames = decoder.feed(data)
                except ProtocolError as exc:
                    await self._send_error(conn, E_BAD_FRAME, str(exc))
                    return
                for frame in frames:
                    if not await self._dispatch(frame, conn):
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
            self._connections.discard(conn)
            self.stats["active"] -= 1
            writer.close()

    async def _dispatch(self, frame: Frame, conn: Connection) -> bool:
        """Handle one frame; returns False to close the connection."""
        self._requests_metric.labels(type=frame.type_name).inc()
        ftype = frame.type
        if ftype == BYE:
            return False
        if ftype == PING:
            # Health probes run before (or without) HELLO by design: a
            # gateway must be able to check liveness and replica
            # version lockstep without spending a session.
            await self._send(conn, json_frame(PONG, conn.session_id, self._pong()))
            return True
        if ftype == HELLO:
            if conn.subject is not None:
                await self._send_error(conn, E_PROTOCOL, "duplicate HELLO")
                return False
        elif conn.subject is None:
            await self._send_error(conn, E_PROTOCOL, "first frame must be HELLO")
            return False
        name = self.HANDLERS.get(ftype)
        if name is None:
            message = self.UNEXPECTED % frame.type_name
            await self._send_error(conn, E_PROTOCOL, message)
            return False
        checked = PAYLOADS.get(ftype)
        if checked is not None and not _carries(frame, checked[0]):
            await self._send_error(conn, E_BAD_FRAME, checked[1])
            return False
        return await getattr(self, name)(frame, conn)

    async def _on_hello(self, frame: Frame, conn: Connection) -> bool:
        body = frame.json()
        welcome = await self._welcome(body, conn)
        conn.subject = body["subject"]
        await self._send(conn, json_frame(WELCOME, conn.session_id, welcome))
        return True

    # -- supplied by subclasses ------------------------------------------
    async def _welcome(self, hello: Dict[str, Any], conn: Connection) -> dict:
        """Open the session ``hello`` asks for (setting
        ``conn.session_id``) and return the WELCOME body."""
        raise NotImplementedError

    def _pong(self) -> dict:
        """The PONG body: liveness plus per-document versions."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    async def _send(self, conn: Connection, data: bytes) -> None:
        conn.writer.write(data)
        await conn.writer.drain()

    async def _send_error(self, conn: Connection, code: str, message: str) -> None:
        self.stats["errors"] += 1
        if len(message) > MAX_ERROR_MESSAGE:
            message = message[: MAX_ERROR_MESSAGE - 3] + "..."
        try:
            await self._send(
                conn,
                json_frame(
                    ERROR, conn.session_id, {"code": code, "message": message}
                ),
            )
        except (ConnectionResetError, BrokenPipeError):
            pass

    async def _refuse(
        self, conn: Connection, trace: int, code: str, message: str
    ) -> bool:
        """Answer a request with a recoverable ERROR: drop its trace
        (a no-op for trace 0), send the error, keep the connection."""
        self.tracer.discard(trace)
        await self._send_error(conn, code, message)
        return True

    def _push_invalidated(self, document_id: str, version: int) -> int:
        """Push one INVALIDATED frame to every live connection; returns
        how many were written.

        `write()` without `drain()` by design: the frame is small, the
        transport flushes it on its own, and awaiting drain here could
        interleave with a connection's own writer task.  A frame is
        written atomically (one `write()` call), so it can land between
        the CHUNK frames of an in-flight response but never inside one.
        """
        body = {"document": document_id, "version": version}
        sent = 0
        for conn in list(self._connections):
            try:
                conn.writer.write(json_frame(INVALIDATED, conn.session_id, body))
                sent += 1
            except Exception:  # connection is on its way down
                pass
        return sent

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "%s(%s:%d, %d active)" % (
            type(self).__name__,
            self.host,
            self.port,
            self.stats["active"],
        )

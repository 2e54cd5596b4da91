"""Per-layer wall-clock ledger, recorded from outside the program.

The traced run wraps the public entry points of each layer (the tables
below) with span recorders; nothing under ``src/`` changes.  A span has
a name, start, end, parent and request id:

* a **request root** wraps an async frame handler (``_on_query``...)
  and opens a request id that follows the request into executor threads
  (``run_in_executor`` is patched to copy the caller's context);
* a **sync span** nests on a per-thread stack.  When it ends its
  duration minus its children's is added to its name's self time, and
  its duration is charged to the enclosing span as child time.  Only
  spans with no enclosing span on their thread are kept as records, so
  memory grows with requests, not with the per-byte reads some layers
  make.

A root's self time is its duration minus the union of its children's
intervals (children may run concurrently on other threads), computed by
:func:`self_times` when the ledger is summed.
"""

from __future__ import annotations

import asyncio.base_events
import contextvars
import functools
import importlib
import itertools
import threading
from collections import defaultdict, namedtuple
from time import perf_counter
from typing import Dict, Iterable, List, Tuple

Span = namedtuple("Span", "sid name start end parent request own")

#: Current async span id and ``(request id, request start)``.
_SPAN = contextvars.ContextVar("perfbench_span", default=0)
_REQUEST = contextvars.ContextVar("perfbench_request", default=None)

EXECUTOR_WAIT = "server.executor_wait"

# Span flags.  ``root``: async request handler.  ``entry``: where a
# request's work starts on an executor thread (ends the executor wait).
# ``absorbing``: nested ``absorbable`` spans are not recorded, so their
# time stays in this span's self time.
ROOT, ENTRY, ABSORBING, ABSORBABLE = "root", "entry", "absorbing", "absorbable"

#: ``(module, attribute, span name, flags)`` wrapped in the serving process.
SERVER_SPANS = (
    ("repro.server.service", "StationServer._on_query", "server.request", ROOT),
    ("repro.server.service", "StationServer._on_update", "server.request", ROOT),
    ("repro.server.service", "StationServer._on_forward", "server.request", ROOT),
    ("repro.cluster.gateway", "ClusterGateway._on_query", "cluster.gateway", ROOT),
    ("repro.cluster.gateway", "ClusterGateway._on_update", "cluster.gateway", ROOT),
    ("repro.cluster.ring", "HashRing.preference", "cluster.ring", ""),
    ("repro.server.protocol", "FrameDecoder.feed", "server.frame", ""),
    ("repro.server.service", "encode_frame_parts", "server.frame", ""),
    ("repro.server.service", "json_frame", "server.frame", ""),
    ("repro.engine.station", "seal_payload", "server.seal", ""),
    ("repro.engine.station", "StationSession.stream_view", "engine.station", ENTRY),
    ("repro.engine.station", "SecureStation.stream", "engine.station", ENTRY),
    ("repro.engine.station", "SecureStation.update", "engine.station", ENTRY),
    ("repro.engine.station", "SecureStation.evaluate", "engine.station", ""),
    ("repro.engine.station", "SecureStation.plan_for", "engine.plan_lookup", ""),
    ("repro.store.base", "MemoryStore.get", "store.fetch", ""),
    ("repro.store.log", "LogStore.get", "store.fetch", ""),
    ("repro.crypto.integrity", "SecureDocument.chunk_record", "store.fetch", ""),
    ("repro.store.base", "MemoryStore.apply_update", "store.commit", ""),
    ("repro.store.log", "LogStore.apply_update", "store.commit", ""),
    ("repro.crypto.integrity", "decrypt_positioned", "crypto.decrypt", ""),
    ("repro.crypto.integrity", "decrypt_cbc", "crypto.decrypt", ""),
    ("repro.crypto.integrity", "_CbcShacReader._ensure_range", "crypto.decrypt", ""),
    ("repro.crypto.integrity", "verify_with_siblings", "crypto.verify", ""),
    ("repro.crypto.integrity", "sha1", "crypto.verify", ABSORBABLE),
    ("repro.crypto.integrity", "_EcbMhtReader._terminal_tree", "crypto.verify", ""),
    ("repro.crypto.integrity", "BaseScheme.reencrypt", "crypto.reencrypt", ABSORBING),
    (
        "repro.skipindex.decoder",
        "SkipIndexNavigator.next",
        "skipindex.decode",
        ABSORBABLE,
    ),
    (
        "repro.skipindex.structural",
        "IndexedNavigator.next",
        "skipindex.decode",
        ABSORBABLE,
    ),
    (
        "repro.skipindex.structural",
        "StructuralIndex.match",
        "skipindex.index_match",
        "",
    ),
    (
        "repro.skipindex.structural",
        "StructuralIndex.planned_chunks",
        "skipindex.index_match",
        "",
    ),
    ("repro.engine.station", "decode_document", "skipindex.reencode", ABSORBING),
    ("repro.engine.station", "reencode_after", "skipindex.reencode", ABSORBING),
    ("repro.engine.station", "impact_between", "skipindex.reencode", ABSORBING),
    (
        "repro.engine.station",
        "refresh_structural_index",
        "skipindex.reencode",
        ABSORBING,
    ),
    (
        "repro.accesscontrol.evaluator",
        "StreamingEvaluator.run",
        "accesscontrol.nfa",
        "",
    ),
    ("repro.engine.station", "serialize_events", "xmlkit.serialize", ""),
)

#: Wrapped in the serving process from launch on: publish-time parsing.
SETUP_SPANS = (("repro.engine.pipeline", "parse_document", "xmlkit.parse", ""),)

#: Wrapped in the client process: the SDK's frame decoding and unsealing.
CLIENT_SPANS = (
    ("repro.server.protocol", "FrameDecoder.feed", "server.client", ""),
    ("repro.server.client", "open_sealed", "server.client", ""),
)


def union_length(intervals: Iterable[Tuple[float, float]], lo: float, hi: float):
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    covered = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Self time of every span: its own time when taken on exit, else
    its duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for span in spans:
        if span.parent:
            children[span.parent].append((span.start, span.end))
    own = {}
    for span in spans:
        if span.own is not None:
            own[span.sid] = span.own
        else:
            covered = union_length(children.get(span.sid, ()), span.start, span.end)
            own[span.sid] = span.end - span.start - covered
    return own


class Ledger:
    """Span recorder plus the patches that feed it (see module doc)."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._cells: List[Dict[str, float]] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _thread(self) -> list:
        local = self._local
        local.stack = []
        local.absorbing = 0
        local.cell = {}
        self._cells.append(local.cell)
        return local.stack

    def sync_span(self, name: str, fn, flags: str = ""):
        """``fn`` wrapped as a nesting sync span called ``name``."""
        local, clock, spans, ids = self._local, self.clock, self.spans, self._ids
        absorbable, absorbing = flags == ABSORBABLE, flags == ABSORBING
        entry = flags == ENTRY
        new_thread = self._thread

        @functools.wraps(fn)
        def span(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = new_thread()
            if absorbable and local.absorbing:
                return fn(*args, **kwargs)
            start = clock()
            if entry and not stack:
                request = _REQUEST.get()
                if request is not None:
                    sid, began = request
                    wait = start - began
                    spans.append(
                        Span(next(ids), EXECUTOR_WAIT, began, start, sid, sid, wait)
                    )
                    cell = local.cell
                    cell[EXECUTOR_WAIT] = cell.get(EXECUTOR_WAIT, 0.0) + wait
            frame = [start, 0.0]
            stack.append(frame)
            local.absorbing += absorbing
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                local.absorbing -= absorbing
                stack.pop()
                duration = end - start
                own = duration - frame[1]
                cell = local.cell
                cell[name] = cell.get(name, 0.0) + own
                if stack:
                    stack[-1][1] += duration
                else:
                    request = _REQUEST.get()
                    rid = request[0] if request else 0
                    parent = _SPAN.get()
                    spans.append(Span(next(ids), name, start, end, parent, rid, own))

        return span

    def root_span(self, name: str, fn):
        """``fn`` (a coroutine function) wrapped as a request root."""
        clock, spans, ids = self.clock, self.spans, self._ids

        @functools.wraps(fn)
        async def span(*args, **kwargs):
            sid = next(ids)
            parent = _SPAN.get()
            start = clock()
            span_token = _SPAN.set(sid)
            request_token = _REQUEST.set((sid, start))
            try:
                return await fn(*args, **kwargs)
            finally:
                end = clock()
                _SPAN.reset(span_token)
                _REQUEST.reset(request_token)
                spans.append(Span(sid, name, start, end, parent, sid, None))

        return span

    # -- summing ---------------------------------------------------------
    def totals(self) -> Dict[str, float]:
        """Self seconds per span name (call while no request is in flight)."""
        out: Dict[str, float] = defaultdict(float)
        for cell in list(self._cells):
            for name, seconds in list(cell.items()):
                out[name] += seconds
        spans = list(self.spans)
        own = self_times(spans)
        for span in spans:
            if span.own is None:
                out[span.name] += own[span.sid]
        return dict(out)

    def durations(self, name: str) -> float:
        """Summed duration of the recorded spans called ``name``."""
        return sum(span.end - span.start for span in self.spans if span.name == name)

    def reset(self) -> None:
        for cell in self._cells:
            cell.clear()
        self.spans.clear()

    # -- patching --------------------------------------------------------
    def install(self, targets) -> None:
        for module_name, attribute, name, flags in targets:
            owner = importlib.import_module(module_name)
            path = attribute.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, path[-1])
            if flags == ROOT:
                wrapper = self.root_span(name, original)
            else:
                wrapper = self.sync_span(name, original, flags)
            self._patches.append((owner, path[-1], vars(owner).get(path[-1])))
            setattr(owner, path[-1], wrapper)
        roots = any(flags == ROOT for _module, _attribute, _name, flags in targets)
        if roots and not any(owner is _LOOP for owner, _a, _o in self._patches):
            self._patches.append(
                (_LOOP, "run_in_executor", vars(_LOOP)["run_in_executor"])
            )
            _LOOP.run_in_executor = _context_run_in_executor

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            if original is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
        self._patches.clear()


_LOOP = asyncio.base_events.BaseEventLoop
_run_in_executor = _LOOP.run_in_executor


def _context_run_in_executor(self, executor, func, *args):
    # What asyncio.to_thread does: the executor call sees the caller's
    # context, so work on a worker thread joins the request's span tree.
    return _run_in_executor(
        self, executor, contextvars.copy_context().run, func, *args
    )

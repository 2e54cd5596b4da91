"""Request tracing: trace ids, spans, slow-query log.

A **trace id** is a nonzero 64-bit integer minted at the client or
gateway (``new_trace_id``) and carried hop-to-hop in the wire frame
header (protocol version 2 — see ``repro.server.protocol``).  Requests
with trace id 0 pay *nothing*: every instrumentation site guards on
``if trace:`` before touching the tracer.

Each process keeps one ``Tracer``.  A traced request gets a span
*tree* only when something reads it (see ``Tracer.begin``); otherwise
it is only counted and echoes its id.  Spans are recorded live
(``start``/``finish``) or post-hoc (``record``, which is how the
station's evaluation timing becomes a span without re-running the
clock).  A trace whose duration crosses ``slow_ms`` lands in the
slow-query log with its *full* span tree preserved.

Cross-process assembly: a backend serializes its finished spans into
the RESULT trailer; the gateway ``adopt``s them under its own forward
span (remapping span ids so two processes can never collide), so the
gateway's slow-query log shows the complete journey: gateway routing →
backend queueing → evaluation → compute dispatch.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from itertools import count as _count
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

__all__ = [
    "Span",
    "TraceRecord",
    "Tracer",
    "format_span_tree",
    "new_trace_id",
    "spans_from_wire",
]

_TRACE_MASK = (1 << 64) - 1


def new_trace_id() -> int:
    """Mint a nonzero 64-bit trace id."""
    return (int.from_bytes(os.urandom(8), "big") & _TRACE_MASK) | 1


def format_trace_id(trace: int) -> str:
    return "%016x" % (trace & _TRACE_MASK)


class Span:
    """One timed operation inside a trace."""

    __slots__ = ("trace", "id", "parent", "name", "start", "end", "attrs")

    def __init__(
        self,
        trace: int,
        span_id: int,
        parent: int,
        name: str,
        start: float,
    ) -> None:
        self.trace = trace
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        # Lazily populated: most spans carry no attributes, and the
        # ones that do take ownership of the caller's kwargs dict.
        self.attrs: Optional[Dict[str, Any]] = None

    @property
    def duration_ms(self) -> float:
        return max(0.0, (self.end - self.start) * 1000.0)

    def as_dict(self, base: float) -> Dict[str, Any]:
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "start_ms": round((self.start - base) * 1000.0, 3),
            "duration_ms": round(self.duration_ms, 3),
            "attrs": dict(self.attrs) if self.attrs else {},
        }

# Attr values land in the delimited wire string; delimiters inside a
# value would desync the parser, so they degrade to "_".
_WIRE_UNSAFE = str.maketrans({";": "_", "|": "_", ",": "_", "=": "_"})


def _attr_value(text: str) -> Any:
    if text == "True":
        return True
    if text == "False":
        return False
    try:
        return int(text)
    except ValueError:
        try:
            return float(text)
        except ValueError:
            return text


def spans_from_wire(entries: Any) -> List[Dict[str, Any]]:
    """Expand trailer spans to sorted display dicts.

    Accepts the compact delimited string emitted by
    ``TraceRecord.wire_spans`` (span ids are 1-based positions;
    ``name|parent|start_us|duration_us[|k=v,...]`` joined with ``;``)
    or a list of already-expanded dicts.
    """
    if not entries:
        return []
    if not isinstance(entries, str):
        spans = [dict(entry) for entry in entries]
        spans.sort(key=lambda span: span.get("start_ms", 0.0))
        return spans
    spans = []
    for index, part in enumerate(entries.split(";"), 1):
        fields = part.split("|")
        if len(fields) < 4:
            continue
        attrs: Dict[str, Any] = {}
        if len(fields) > 4 and fields[4]:
            for pair in fields[4].split(","):
                key, _, value = pair.partition("=")
                attrs[key] = _attr_value(value)
        spans.append(
            {
                "id": index,
                "parent": int(fields[1]),
                "name": fields[0],
                "start_ms": int(fields[2]) / 1000.0,
                "duration_ms": int(fields[3]) / 1000.0,
                "attrs": attrs,
            }
        )
    spans.sort(key=lambda span: span.get("start_ms", 0.0))
    return spans


class TraceRecord:
    """A finished trace: the id, total duration and the span tree.

    Raw ``Span`` objects are retained as-is; the human-facing dict form
    (``spans``/``as_dict``) is built lazily on first access so closing
    a trace on the hot path pays no per-span conversion.
    """

    __slots__ = ("trace", "root_name", "duration_ms", "slow", "_raw", "_spans")

    def __init__(
        self,
        trace: int,
        root_name: str,
        duration_ms: float,
        raw_spans: List[Span],
    ) -> None:
        self.trace = trace
        self.root_name = root_name
        self.duration_ms = duration_ms
        self.slow = False
        self._raw = raw_spans
        self._spans: Optional[List[Dict[str, Any]]] = None

    @property
    def spans(self) -> List[Dict[str, Any]]:
        if self._spans is None:
            base = min(span.start for span in self._raw)
            self._spans = [
                span.as_dict(base)
                for span in sorted(self._raw, key=lambda span: span.start)
            ]
        return self._spans

    def wire_spans(self) -> str:
        """Compact trailer form, one delimited string.

        ``name|parent|start_us|duration_us[|k=v,...]`` per span, joined
        with ``;``; span ids become 1-based positions.  One short string
        keeps the traced RESULT trailer cheap to JSON-encode and small
        on the wire — this rides every traced response, so it is
        hot-path (see ``benchmarks/test_obs_bench.py``).
        """
        raw = self._raw
        base = raw[0].start
        for span in raw:
            if span.start < base:
                base = span.start
        position = {span.id: index for index, span in enumerate(raw, 1)}
        parts = []
        for span in raw:
            head = "%s|%d|%d|%d" % (
                span.name,
                position.get(span.parent, 0),
                int((span.start - base) * 1e6),
                int((span.end - span.start) * 1e6) if span.end > span.start else 0,
            )
            attrs = span.attrs
            if attrs:
                pairs = []
                for key, value in attrs.items():
                    if type(value) is int:
                        pairs.append("%s=%d" % (key, value))
                        continue
                    text = str(value)
                    if (
                        "=" in text or "," in text or ";" in text or "|" in text
                    ):
                        text = text.translate(_WIRE_UNSAFE)
                    pairs.append(key + "=" + text)
                head = head + "|" + ",".join(pairs)
            parts.append(head)
        return ";".join(parts)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "trace": format_trace_id(self.trace),
            "root": self.root_name,
            "duration_ms": round(self.duration_ms, 3),
            "slow": self.slow,
            "spans": self.spans,
        }


#: Open traces are capped (oldest dropped first), so a client that
#: never closes its traces cannot grow memory without bound.
MAX_ACTIVE = 1024
SLOW_LOG_SIZE = 64


class Tracer:
    """Per-process span recorder and slow-query log.

    A trace is open from ``begin`` (or its first span) until it is
    ``close``d/``end_trace``d (``finished``) or ``discard``ed
    (``dropped``), so ``started == finished + dropped`` when idle.
    """

    def __init__(
        self,
        slow_ms: Optional[float] = None,
        slow_sink: Optional[Callable[[TraceRecord], None]] = None,
    ) -> None:
        self._lock = threading.Lock()
        self._active: Dict[int, List[Span]] = {}
        # itertools.count increments atomically in C — the recording
        # hot path takes no lock (dict/list/deque single ops are each
        # atomic under the GIL; the started/finished/dropped counters
        # are best-effort under concurrency, which stats() documents).
        self._seq = _count(1)
        # Span-id namespace: a random 16-bit prefix per tracer keeps
        # locally minted ids from colliding with adopted remote ids.
        self._base = (int.from_bytes(os.urandom(2), "big") | 1) << 32
        self.slow_log: deque = deque(maxlen=SLOW_LOG_SIZE)
        self.slow_ms = slow_ms
        self.slow_sink = slow_sink
        self.started = 0
        self.finished = 0
        self.dropped = 0
        self.slow = 0

    # -- recording -----------------------------------------------------
    def _open(self, trace: int) -> List[Span]:
        spans = self._active.get(trace)
        if spans is None:
            if len(self._active) >= MAX_ACTIVE:
                with self._lock:
                    while len(self._active) >= MAX_ACTIVE:
                        victim = next(iter(self._active))
                        del self._active[victim]
                        self.dropped += 1
            spans = self._active.setdefault(trace, [])
            self.started += 1
        return spans

    def _new_span(self, trace: int, name: str, parent: int, start: float) -> Span:
        span = Span(trace, self._base + next(self._seq), parent, name, start)
        self._open(trace).append(span)
        return span

    def begin(
        self, trace: int, name: str, ship: bool = False, **attrs: Any
    ) -> Optional[Span]:
        """Open one request's trace; return its root span, or ``None``
        when nothing reads the tree: neither the hop upstream (``ship``,
        a FORWARD whose gateway grafts it) nor a slow-query log (a
        ``slow_ms`` is set).  Such a trace is only counted — no span
        or record is ever made for it."""
        if ship or self.slow_ms is not None:
            return self.start(trace, name, **attrs)
        self._open(trace)
        return None

    def start(self, trace: int, name: str, parent: int = 0, **attrs: Any) -> Span:
        span = self._new_span(trace, name, parent, perf_counter())
        if attrs:
            span.attrs = attrs
        return span

    def finish(self, span: Span, **attrs: Any) -> Span:
        span.end = perf_counter()
        if attrs:
            if span.attrs:
                span.attrs.update(attrs)
            else:
                span.attrs = attrs
        return span

    def record(
        self,
        trace: int,
        name: str,
        start: float,
        end: float,
        parent: int = 0,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> Span:
        """Record a span whose start/end were measured elsewhere (e.g.
        the ``stage:evaluate`` span the station times around one
        evaluation).

        Takes ownership of ``attrs`` — pass a fresh dict.
        """
        span = self._new_span(trace, name, parent, start)
        span.end = end
        if attrs:
            span.attrs = attrs
        return span

    def adopt(
        self,
        trace: int,
        wire_or_dicts: Any,
        parent: int = 0,
    ) -> int:
        """Graft spans serialized by another process under ``parent``.

        Accepts the compact wire string from a RESULT trailer or a list
        of span dicts.  Remote span ids are remapped into this tracer's
        namespace; remote roots (parent 0 or unknown) are re-parented
        to ``parent``.  Returns the number of spans adopted.
        """
        spans = spans_from_wire(wire_or_dicts)
        if not spans:
            return 0
        mapping: Dict[int, int] = {}
        now = perf_counter()
        for data in spans:
            mapping[int(data.get("id", 0))] = self._base + next(self._seq)
        target = self._active.setdefault(trace, [])
        for data in spans:
            span = Span(
                trace,
                mapping[int(data.get("id", 0))],
                mapping.get(int(data.get("parent", 0)), parent),
                str(data.get("name", "?")),
                now,
            )
            span.end = now + float(data.get("duration_ms", 0.0)) / 1000.0
            span.attrs = dict(data.get("attrs") or {})
            span.attrs.setdefault("remote_start_ms", data.get("start_ms", 0.0))
            target.append(span)
        return len(spans)

    # -- completion ----------------------------------------------------
    def end_trace(self, trace: int, root: Optional[Span] = None) -> Optional[TraceRecord]:
        """Close ``trace``: build its record and flag it slow.  Returns
        ``None`` for a trace that is not open or has no spans.

        Callers that hold the request's root span pass it as ``root``
        to skip the scan for it — this runs once per traced request.
        """
        spans = self._active.pop(trace, None)
        if spans is None:
            return None
        self.finished += 1
        if not spans:
            return None
        if root is None:
            roots = [span for span in spans if span.parent == 0]
            root = min(roots or spans, key=lambda span: span.start)
        duration_ms = root.duration_ms
        record = TraceRecord(trace, root.name, duration_ms, spans)
        if self.slow_ms is not None and duration_ms >= self.slow_ms:
            record.slow = True
            self.slow += 1
            self.slow_log.append(record)
            if self.slow_sink is not None:
                try:
                    self.slow_sink(record)
                except Exception:  # pragma: no cover - sink is best-effort
                    pass
        return record

    def close(
        self,
        trace: int,
        root: Optional[Span],
        trailer: Dict[str, Any],
        ship: bool = False,
        **attrs: Any,
    ) -> None:
        """Finish ``root`` with ``attrs``, close ``trace`` and stamp the
        RESULT ``trailer``: the trace id always, and the span tree when
        ``ship`` is set (a FORWARD hop, whose gateway grafts it) or the
        trace ran slow."""
        if root is not None:
            self.finish(root, **attrs)
        record = self.end_trace(trace, root=root)
        trailer["trace"] = format_trace_id(trace)
        if record is not None and (ship or record.slow):
            trailer["spans"] = record.wire_spans()

    def discard(self, trace: int) -> None:
        """Drop an in-progress trace without recording it."""
        if self._active.pop(trace, None) is not None:
            self.dropped += 1

    # -- introspection -------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "started": self.started,
                "finished": self.finished,
                "dropped": self.dropped,
                "slow_queries": self.slow,
                "slow_ms": self.slow_ms,
            }

    def slow_records(self, limit: int = 5) -> List[Dict[str, Any]]:
        with self._lock:
            records = list(self.slow_log)[-limit:]
        return [record.as_dict() for record in records]


def format_span_tree(record: Dict[str, Any]) -> str:
    """Render a ``TraceRecord.as_dict()`` as an indented tree."""
    spans = record.get("spans") or []
    by_id = {span["id"]: span for span in spans}
    children: Dict[int, List[Dict[str, Any]]] = {}
    roots: List[Dict[str, Any]] = []
    for span in spans:
        parent = span.get("parent", 0)
        if parent and parent in by_id:
            children.setdefault(parent, []).append(span)
        else:
            roots.append(span)
    lines = [
        "trace %s %s %.1fms%s"
        % (
            record.get("trace", "?"),
            record.get("root", "?"),
            record.get("duration_ms", 0.0),
            " SLOW" if record.get("slow") else "",
        )
    ]

    def emit(span: Dict[str, Any], depth: int) -> None:
        attrs = span.get("attrs") or {}
        suffix = "".join(
            " %s=%s" % (key, value)
            for key, value in sorted(attrs.items())
            if key != "remote_start_ms"
        )
        lines.append(
            "%s%s %.2fms%s"
            % ("  " * depth, span.get("name", "?"), span.get("duration_ms", 0.0), suffix)
        )
        for child in sorted(
            children.get(span["id"], ()), key=lambda s: s.get("start_ms", 0.0)
        ):
            emit(child, depth + 1)

    for root in sorted(roots, key=lambda s: s.get("start_ms", 0.0)):
        emit(root, 1)
    return "\n".join(lines)

"""Navigators: event sources with optional skipping capabilities.

The streaming evaluator is written against the small :class:`Navigator`
protocol.  A navigator yields ``(kind, value, meta)`` triples; for open
events ``meta`` may carry the Skip-index information of Section 4 (the
set of descendant tags and the encoded subtree size).  Navigators that
``supports_skip`` can reposition the stream:

* :meth:`Navigator.skip_subtree` — right after an open event, jump so
  that the next event is the matching close (the paper's subtree skip);
* :meth:`Navigator.skip_and_capture` — same, but return a callback that
  re-reads the skipped subtree later (pending-part read-back,
  Section 5);
* :meth:`Navigator.skip_rest_and_capture` — right after a close event,
  jump to the *parent's* close, optionally capturing the remaining
  children (the paper triggers the skipping decision "both on open and
  close events").

:class:`EventListNavigator` adapts an in-memory event list and can
compute the meta information exactly — it behaves like a perfect Skip
index without the binary encoding, which lets the evaluator's skipping
logic be tested in isolation.  The encoded-document navigator lives in
:mod:`repro.skipindex.decoder`; the encrypted one in
:mod:`repro.soe.session`.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.metrics import Meter
from repro.xmlkit.events import CLOSE, OPEN, Event

FetchCallback = Callable[[], Sequence[Event]]


class SubtreeMeta:
    """Skip-index metadata attached to an open event.

    ``desc_tags`` is the set of tags occurring *strictly below* the
    element (the paper's ``DescTag``); ``size`` is the encoded byte size
    of the subtree (what a skip saves).
    """

    __slots__ = ("desc_tags", "size")

    def __init__(self, desc_tags: Optional[frozenset], size: Optional[int] = None):
        self.desc_tags = desc_tags
        self.size = size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SubtreeMeta(%d tags, size=%r)" % (
            -1 if self.desc_tags is None else len(self.desc_tags),
            self.size,
        )


class Navigator:
    """Protocol base class; concrete navigators override everything."""

    __slots__ = ()

    def next(self) -> Optional[Tuple[int, str, Optional[SubtreeMeta]]]:
        """Return the next ``(kind, value, meta)`` or ``None`` at EOF."""
        raise NotImplementedError

    def supports_skip(self) -> bool:
        return False

    def supports_capture(self) -> bool:
        return False

    def skip_subtree(self) -> None:
        raise NotImplementedError("navigator does not support skipping")

    def skip_and_capture(self) -> FetchCallback:
        raise NotImplementedError("navigator does not support capture")

    def skip_rest(self) -> bool:
        """Skip remaining children of the enclosing element; next event
        becomes its close.  Returns False when there was nothing to
        skip."""
        raise NotImplementedError("navigator does not support skipping")

    def skip_rest_and_capture(self) -> Optional[FetchCallback]:
        """Like :meth:`skip_rest` but capturing the skipped events;
        returns ``None`` when there was nothing to skip."""
        raise NotImplementedError("navigator does not support capture")


class SimpleEventNavigator(Navigator):
    """Minimal navigator over an event iterable — no skipping, no meta.

    Models the Brute-Force setting (no index): the evaluator must see
    every event.
    """

    __slots__ = ("_iterator",)

    def __init__(self, events):
        self._iterator = iter(events)

    def next(self):
        for event in self._iterator:
            return (event[0], event[1], None)
        return None


class EventListNavigator(Navigator):
    """Navigator over a materialized event list with exact metadata.

    Pre-computes, in one pass, the matching-close index and the strict
    descendant-tag set for every open event, so it can serve Skip-index
    metadata and perform constant-time skips.
    """

    __slots__ = (
        "events",
        "meter",
        "_pos",
        "_open_stack",
        "_close_index",
        "_desc_tags",
        "_subtree_events",
    )

    def __init__(
        self,
        events: Sequence[Event],
        meter: Optional[Meter] = None,
    ):
        self.events = list(events)
        self.meter = meter
        self._pos = 0
        self._open_stack: List[int] = []  # indices of currently open elements
        self._close_index: dict = {}
        self._desc_tags: dict = {}
        self._subtree_events: dict = {}
        self._analyze()

    def _analyze(self) -> None:
        stack: List[Tuple[int, set, int]] = []  # (open index, tag set, events)
        for index, event in enumerate(self.events):
            kind = event[0]
            if kind == OPEN:
                stack.append((index, set(), 0))
            elif kind == CLOSE:
                open_index, tags, _count = stack.pop()
                self._close_index[open_index] = index
                self._desc_tags[open_index] = frozenset(tags)
                self._subtree_events[open_index] = index - open_index + 1
                if stack:
                    parent_tags = stack[-1][1]
                    parent_tags |= tags
                    parent_tags.add(event[1])
        if stack:
            raise ValueError("unbalanced event list")

    # ------------------------------------------------------------------
    def next(self):
        if self._pos >= len(self.events):
            return None
        index = self._pos
        event = self.events[index]
        self._pos += 1
        kind = event[0]
        meta = None
        if kind == OPEN:
            self._open_stack.append(index)
            meta = SubtreeMeta(self._desc_tags[index], self._subtree_events[index])
        elif kind == CLOSE:
            if self._open_stack:
                self._open_stack.pop()
        return (kind, event[1], meta)

    def supports_skip(self) -> bool:
        return True

    def supports_capture(self) -> bool:
        return True

    # ------------------------------------------------------------------
    def _current_open_index(self) -> int:
        if not self._open_stack:
            raise RuntimeError("skip_subtree outside an element")
        return self._open_stack[-1]

    def skip_subtree(self) -> None:
        open_index = self._current_open_index()
        close_index = self._close_index[open_index]
        if self.meter is not None:
            self.meter.skipped_bytes += self._span_bytes(self._pos, close_index)
        self._pos = close_index  # next event is the matching close

    def skip_and_capture(self) -> FetchCallback:
        open_index = self._current_open_index()
        close_index = self._close_index[open_index]
        events = self.events
        meter = self.meter
        span = (open_index, close_index + 1)

        def fetch() -> Sequence[Event]:
            if meter is not None:
                meter.readback_events += span[1] - span[0]
            return events[span[0] : span[1]]

        if meter is not None:
            meter.skipped_bytes += self._span_bytes(self._pos, close_index)
        self._pos = close_index
        return fetch

    def skip_rest(self) -> bool:
        open_index = self._current_open_index()
        close_index = self._close_index[open_index]
        if self._pos >= close_index:
            return False
        if self.meter is not None:
            self.meter.skipped_bytes += self._span_bytes(self._pos, close_index)
        self._pos = close_index
        return True

    def skip_rest_and_capture(self) -> Optional[FetchCallback]:
        open_index = self._current_open_index()
        close_index = self._close_index[open_index]
        if self._pos >= close_index:
            return None
        events = self.events
        meter = self.meter
        span = (self._pos, close_index)

        def fetch() -> Sequence[Event]:
            if meter is not None:
                meter.readback_events += span[1] - span[0]
            return events[span[0] : span[1]]

        if meter is not None:
            meter.skipped_bytes += self._span_bytes(self._pos, close_index)
        self._pos = close_index
        return fetch

    # ------------------------------------------------------------------
    def _span_bytes(self, start: int, end: int) -> int:
        """Rough byte estimate of a skipped span (for metering only)."""
        total = 0
        for event in self.events[start:end]:
            total += len(event[1]) + 2
        return total

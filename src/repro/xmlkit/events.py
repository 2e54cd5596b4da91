"""SAX-like event model.

The paper's evaluator is "fed by an event-based parser (e.g., SAX)
raising open, value and close events respectively for each opening, text
and closing tag in the input document" (Section 3.1).  We model exactly
those three events.  An event stream is any iterable of :class:`Event`.

A well-formed stream satisfies:

* events nest properly (every ``OPEN`` has a matching ``CLOSE``);
* ``TEXT`` events only occur between an ``OPEN`` and its ``CLOSE``;
* there is exactly one root element.

:func:`validate_stream` checks these properties and is used liberally in
tests.
"""

from __future__ import annotations

from typing import Iterable, List

#: Event kinds.  Plain ints keep per-event overhead minimal: the
#: streaming evaluator touches millions of events in the larger benches.
OPEN = 0
TEXT = 1
CLOSE = 2

_KIND_NAMES = {OPEN: "open", TEXT: "text", CLOSE: "close"}


class Event(tuple):
    """A single parsing event: ``(kind, value)``.

    ``value`` is the element tag for ``OPEN``/``CLOSE`` events and the
    text content for ``TEXT`` events.  Events are tuples so they are
    hashable, comparable and cheap; the subclass only adds the ``kind``
    and ``value`` accessors and a helpful ``repr``.
    """

    __slots__ = ()

    def __new__(cls, kind: int, value: str) -> "Event":
        return tuple.__new__(cls, (kind, value))

    @property
    def kind(self) -> int:
        return self[0]

    @property
    def value(self) -> str:
        return self[1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Event(%s, %r)" % (_KIND_NAMES[self[0]], self[1])


class StreamError(ValueError):
    """Raised when an event stream is not well formed."""


def validate_stream(events: Iterable[Event]) -> None:
    """Check well-formedness of ``events``; raise :class:`StreamError`.

    The check enforces proper nesting, tag matching between each
    ``OPEN``/``CLOSE`` pair, a single root, and no content outside the
    root element.
    """
    stack: List[str] = []
    seen_root = False
    for event in events:
        kind = event[0]
        if kind == OPEN:
            if not stack and seen_root:
                raise StreamError("multiple root elements")
            stack.append(event[1])
            seen_root = True
        elif kind == CLOSE:
            if not stack:
                raise StreamError("close event %r without open" % (event[1],))
            expected = stack.pop()
            if expected != event[1]:
                raise StreamError(
                    "mismatched close: expected %r, got %r" % (expected, event[1])
                )
        elif kind == TEXT:
            if not stack:
                raise StreamError("text outside the root element")
        else:
            raise StreamError("unknown event kind %r" % (kind,))
    if stack:
        raise StreamError("unclosed elements: %s" % "/".join(stack))
    if not seen_root:
        raise StreamError("empty stream")


def events_to_tree(events: Iterable[Event]):
    """Materialize an event stream into a :class:`repro.xmlkit.dom.Node`.

    Inverse of :meth:`Node.iter_events`.  Raises :class:`StreamError`
    on malformed input.
    """
    from repro.xmlkit.dom import Node

    root = None
    stack: List[Node] = []
    for event in events:
        kind = event[0]
        if kind == OPEN:
            node = Node(event[1])
            if stack:
                stack[-1].children.append(node)
            elif root is not None:
                raise StreamError("multiple root elements")
            else:
                root = node
            stack.append(node)
        elif kind == TEXT:
            if not stack:
                raise StreamError("text outside the root element")
            stack[-1].children.append(event[1])
        else:
            if not stack:
                raise StreamError("close without open")
            closed = stack.pop()
            if closed.tag != event[1]:
                raise StreamError(
                    "mismatched close: expected %r, got %r" % (closed.tag, event[1])
                )
    if stack:
        raise StreamError("unclosed elements")
    if root is None:
        raise StreamError("empty stream")
    return root

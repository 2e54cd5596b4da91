"""Streaming XML parser producing open/value/close events.

This is a deliberately small parser for the XML subset the system
exchanges: elements, text content, attributes, comments, processing
instructions, XML declarations, CDATA sections and the five predefined
entities.  Documents produced by :mod:`repro.datasets` and by the
serializer always fall in this subset.  Namespaces are treated lexically
(prefixes are part of the tag name), DTDs are skipped.

Attributes are exposed, per the paper's convention, *like elements*
("Attributes are handled in the model similarly to elements", Section 2):
each attribute ``name="v"`` on ``<e>`` becomes a child element
``<@name>v</@name>`` delivered immediately after the open event of ``e``.
This keeps the downstream machinery (automata, skip index) uniform.  The
behaviour can be disabled with ``attributes="ignore"``.
"""

from __future__ import annotations

from typing import Dict, Iterator, List

from repro.xmlkit.events import CLOSE, OPEN, TEXT, Event

_ENTITIES = {"lt": "<", "gt": ">", "amp": "&", "quot": '"', "apos": "'"}

ATTRIBUTE_PREFIX = "@"


class XmlSyntaxError(ValueError):
    """Raised on malformed XML input."""

    def __init__(self, message: str, position: int):
        super().__init__("%s (at offset %d)" % (message, position))
        self.position = position


def unescape(text: str) -> str:
    """Resolve the predefined entities and numeric character references."""
    if "&" not in text:
        return text
    parts: List[str] = []
    i = 0
    length = len(text)
    while i < length:
        amp = text.find("&", i)
        if amp < 0:
            parts.append(text[i:])
            break
        parts.append(text[i:amp])
        semi = text.find(";", amp + 1)
        if semi < 0:
            raise XmlSyntaxError("unterminated entity reference", amp)
        name = text[amp + 1 : semi]
        if name.startswith("#x") or name.startswith("#X"):
            parts.append(chr(int(name[2:], 16)))
        elif name.startswith("#"):
            parts.append(chr(int(name[1:])))
        elif name in _ENTITIES:
            parts.append(_ENTITIES[name])
        else:
            raise XmlSyntaxError("unknown entity %r" % name, amp)
        i = semi + 1
    return "".join(parts)


def iter_events(
    text: str,
    attributes: str = "elements",
    keep_whitespace: bool = False,
) -> Iterator[Event]:
    """Parse ``text`` and yield open/value/close events.

    ``attributes`` is either ``"elements"`` (attributes become synthetic
    ``@name`` child elements) or ``"ignore"``.  Pure-whitespace text
    between elements is dropped unless ``keep_whitespace`` is true.
    """
    if attributes not in ("elements", "ignore"):
        raise ValueError("attributes must be 'elements' or 'ignore'")
    i = 0
    length = len(text)
    stack: List[str] = []
    seen_root = False
    # Attribute-free opening-tag body already validated -> its OPEN
    # event; tag -> its CLOSE event.  Events are immutable, so each is
    # built once per distinct tag and yielded again.
    opens: Dict[str, Event] = {}
    closes: Dict[str, Event] = {}
    while i < length:
        lt = text.find("<", i)
        if lt < 0:
            trailing = text[i:]
            if trailing.strip():
                raise XmlSyntaxError("text outside the root element", i)
            break
        if lt > i:
            chunk = text[i:lt]
            if stack:
                if keep_whitespace or chunk.strip():
                    yield Event(TEXT, unescape(chunk))
            elif chunk.strip():
                raise XmlSyntaxError("text outside the root element", i)
        i = lt
        marker = text[i + 1 : i + 2]
        if marker == "/":
            gt = text.find(">", i + 2)
            if gt < 0:
                raise XmlSyntaxError("unterminated closing tag", i)
            tag = text[i + 2 : gt].strip()
            if not stack:
                raise XmlSyntaxError("closing tag %r without open" % tag, i)
            expected = stack.pop()
            if expected != tag:
                raise XmlSyntaxError(
                    "mismatched closing tag: expected %r, got %r" % (expected, tag), i
                )
            close = closes.get(tag)
            if close is None:
                close = closes[tag] = Event(CLOSE, tag)
            yield close
            i = gt + 1
        elif marker != "!" and marker != "?":
            gt = text.find(">", i + 1)
            if gt < 0:
                raise XmlSyntaxError("unterminated opening tag", i)
            self_closing = text[gt - 1] == "/"
            body = text[i + 1 : gt - 1 if self_closing else gt]
            event = opens.get(body)
            if event is None:
                tag, attrs = _parse_tag_body(body, i)
                event = Event(OPEN, tag)
                if not attrs:
                    opens[body] = event
            else:
                tag = event[1]
                attrs = []
            if not stack and seen_root:
                raise XmlSyntaxError("multiple root elements", i)
            seen_root = True
            yield event
            if attributes == "elements":
                for name, value in attrs:
                    yield Event(OPEN, ATTRIBUTE_PREFIX + name)
                    if value:
                        yield Event(TEXT, value)
                    yield Event(CLOSE, ATTRIBUTE_PREFIX + name)
            if self_closing:
                yield Event(CLOSE, tag)
            else:
                stack.append(tag)
            i = gt + 1
        elif text.startswith("<!--", i):
            end = text.find("-->", i + 4)
            if end < 0:
                raise XmlSyntaxError("unterminated comment", i)
            i = end + 3
        elif text.startswith("<![CDATA[", i):
            end = text.find("]]>", i + 9)
            if end < 0:
                raise XmlSyntaxError("unterminated CDATA section", i)
            if not stack:
                raise XmlSyntaxError("CDATA outside the root element", i)
            yield Event(TEXT, text[i + 9 : end])
            i = end + 3
        elif text.startswith("<?", i):
            end = text.find("?>", i + 2)
            if end < 0:
                raise XmlSyntaxError("unterminated processing instruction", i)
            i = end + 2
        else:  # "<!"
            i = _skip_declaration(text, i)
    if stack:
        raise XmlSyntaxError("unclosed elements: %s" % "/".join(stack), length)
    if not seen_root:
        raise XmlSyntaxError("no root element", 0)


def _skip_declaration(text: str, i: int) -> int:
    """Skip ``<!DOCTYPE ...>`` including a bracketed internal subset."""
    depth = 0
    j = i
    length = len(text)
    while j < length:
        ch = text[j]
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif ch == ">" and depth <= 0:
            return j + 1
        j += 1
    raise XmlSyntaxError("unterminated declaration", i)


def _parse_tag_body(body: str, position: int):
    """Split an opening-tag body into ``(tag, [(attr, value), ...])``."""
    body = body.strip()
    if not body:
        raise XmlSyntaxError("empty tag", position)
    j = 0
    while j < len(body) and not body[j].isspace():
        j += 1
    tag = body[:j]
    if not _valid_name(tag):
        raise XmlSyntaxError("invalid tag name %r" % tag, position)
    attrs = []
    rest = body[j:].strip()
    k = 0
    while k < len(rest):
        eq = rest.find("=", k)
        if eq < 0:
            if rest[k:].strip():
                raise XmlSyntaxError("malformed attribute in %r" % body, position)
            break
        name = rest[k:eq].strip()
        if not _valid_name(name):
            raise XmlSyntaxError("invalid attribute name %r" % name, position)
        v = eq + 1
        while v < len(rest) and rest[v].isspace():
            v += 1
        if v >= len(rest) or rest[v] not in "\"'":
            raise XmlSyntaxError("unquoted attribute value in %r" % body, position)
        quote = rest[v]
        endq = rest.find(quote, v + 1)
        if endq < 0:
            raise XmlSyntaxError("unterminated attribute value", position)
        attrs.append((name, unescape(rest[v + 1 : endq])))
        k = endq + 1
    return tag, attrs


def _valid_name(name: str) -> bool:
    if not name:
        return False
    first = name[0]
    if not (first.isalpha() or first in "_:"):
        return False
    return all(ch.isalnum() or ch in "_-.:" for ch in name)


def parse_document(text: str, attributes: str = "elements"):
    """Parse ``text`` into a :class:`repro.xmlkit.dom.Node` tree."""
    from repro.xmlkit.events import events_to_tree

    return events_to_tree(iter_events(text, attributes=attributes))

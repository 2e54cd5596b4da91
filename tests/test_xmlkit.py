"""Unit tests for the XML substrate (events, parser, DOM, serializer)."""

import pytest

from repro.skipindex.encoder import encode_document
from repro.xmlkit import (
    Node,
    TagDictionary,
    events_to_tree,
    iter_events,
    parse_document,
    serialize,
    serialize_events,
    text_node,
)
from repro.xmlkit.events import (
    CLOSE,
    OPEN,
    TEXT,
    Event,
    StreamError,
    validate_stream,
)
from repro.xmlkit.parser import XmlSyntaxError, unescape


class TestEvents:
    def test_event_accessors(self):
        event = Event(OPEN, "tag")
        assert event.kind == OPEN
        assert event.value == "tag"

    def test_events_are_tuples(self):
        assert Event(TEXT, "x") == (TEXT, "x")
        assert hash(Event(TEXT, "x")) == hash((TEXT, "x"))

    def test_validate_accepts_well_formed(self):
        validate_stream(
            [Event(OPEN, "a"), Event(TEXT, "t"), Event(CLOSE, "a")]
        )

    def test_validate_rejects_mismatched_close(self):
        with pytest.raises(StreamError):
            validate_stream([Event(OPEN, "a"), Event(CLOSE, "b")])

    def test_validate_rejects_unclosed(self):
        with pytest.raises(StreamError):
            validate_stream([Event(OPEN, "a")])

    def test_validate_rejects_multiple_roots(self):
        with pytest.raises(StreamError):
            validate_stream(
                [Event(OPEN, "a"), Event(CLOSE, "a"), Event(OPEN, "b"), Event(CLOSE, "b")]
            )

    def test_validate_rejects_text_outside_root(self):
        with pytest.raises(StreamError):
            validate_stream([Event(TEXT, "boom")])

    def test_validate_rejects_empty(self):
        with pytest.raises(StreamError):
            validate_stream([])


class TestDom:
    def build(self):
        root = Node("a")
        b = root.element("b", "x")
        root.element("c")
        b.element("d", "y")
        return root

    def test_iter_events_round_trip(self):
        root = self.build()
        rebuilt = events_to_tree(root.iter_events())
        assert rebuilt == root

    def test_text_and_find(self):
        root = self.build()
        b = root.find("b")
        assert b is not None
        assert b.text() == "x"
        assert root.find("missing") is None
        assert [c.tag for c in root.element_children()] == ["b", "c"]

    def test_statistics(self):
        root = self.build()
        assert root.count_elements() == 4
        assert root.count_text_nodes() == 2
        assert root.text_size() == 2
        assert root.max_depth() == 3
        assert root.distinct_tags() == {"a", "b", "c", "d"}
        assert 1.0 < root.average_depth() < 3.0

    def test_find_all(self):
        root = Node("r")
        root.element("x", "1")
        root.element("x", "2")
        assert [n.text() for n in root.find_all("x")] == ["1", "2"]

    def test_text_node_helper(self):
        leaf = text_node("t", "v")
        assert leaf.tag == "t" and leaf.text() == "v"

    def test_equality_is_structural(self):
        assert self.build() == self.build()
        other = self.build()
        other.element("extra")
        assert self.build() != other


class TestParser:
    def test_simple_document(self):
        doc = parse_document("<a><b>x</b><c/></a>")
        assert doc.tag == "a"
        assert doc.find("b").text() == "x"
        assert doc.find("c") is not None

    def test_whitespace_between_elements_dropped(self):
        doc = parse_document("<a>\n  <b>x</b>\n</a>")
        assert doc.children == [doc.find("b")]

    def test_mixed_content_preserved(self):
        doc = parse_document("<a>pre<b/>post</a>")
        kinds = [c if isinstance(c, str) else c.tag for c in doc.children]
        assert kinds == ["pre", "b", "post"]

    def test_attributes_become_elements(self):
        doc = parse_document('<a id="7"><b name="n"/></a>')
        assert doc.find("@id").text() == "7"
        assert doc.find("b").find("@name").text() == "n"

    def test_attributes_can_be_ignored(self):
        doc = parse_document('<a id="7"/>', attributes="ignore")
        assert doc.children == []

    def test_entities(self):
        doc = parse_document("<a>&lt;&amp;&gt;&quot;&apos;&#65;&#x42;</a>")
        assert doc.text() == "<&>\"'AB"

    def test_unescape_rejects_unknown_entity(self):
        with pytest.raises(XmlSyntaxError):
            unescape("&nosuch;")

    def test_comments_and_pi_skipped(self):
        doc = parse_document("<?xml version='1.0'?><!-- hi --><a><!--x-->t</a>")
        assert doc.text() == "t"

    def test_cdata(self):
        doc = parse_document("<a><![CDATA[<raw&>]]></a>")
        assert doc.text() == "<raw&>"

    def test_doctype_skipped(self):
        doc = parse_document("<!DOCTYPE a [<!ELEMENT a ANY>]><a>t</a>")
        assert doc.text() == "t"

    def test_mismatched_close_raises(self):
        with pytest.raises(XmlSyntaxError):
            parse_document("<a><b></a></b>")

    def test_unclosed_raises(self):
        with pytest.raises(XmlSyntaxError):
            parse_document("<a><b>")

    def test_multiple_roots_raise(self):
        with pytest.raises(XmlSyntaxError):
            parse_document("<a/><b/>")

    def test_text_outside_root_raises(self):
        with pytest.raises(XmlSyntaxError):
            parse_document("<a/>junk")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("<1a/>", "invalid tag name '1a' (at offset 0)"),
            ("<a$b>", "invalid tag name 'a$b' (at offset 0)"),
            ("<a b>", "malformed attribute in 'a b' (at offset 0)"),
            ("<a b=c>", "unquoted attribute value in 'a b=c' (at offset 0)"),
            ('<a b="x>', "unterminated attribute value (at offset 0)"),
            ("<>", "empty tag (at offset 0)"),
            ('<a ="1"/>', "invalid attribute name '' (at offset 0)"),
            ("<a/ >", "invalid tag name 'a/' (at offset 0)"),
            ("<a><1b/></a>", "invalid tag name '1b' (at offset 3)"),
            # A body seen valid before must not mask a later bad one.
            ("<a><b/><b/><b$/></a>", "invalid tag name 'b$' (at offset 11)"),
            ("<a><b></b><b><b$></b></a>", "invalid tag name 'b$' (at offset 13)"),
            (
                "<a><b></a>",
                "mismatched closing tag: expected 'b', got 'a' (at offset 6)",
            ),
        ],
    )
    def test_tag_body_errors_are_pinned(self, text, message):
        with pytest.raises(XmlSyntaxError) as caught:
            list(iter_events(text))
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "text, events",
        [
            ("<a >x</a >", [(0, "a"), (1, "x"), (2, "a")]),
            ("< a></ a>", [(0, "a"), (2, "a")]),
            ("<a/>", [(0, "a"), (2, "a")]),
            ('<a x="1"/>', [(0, "a"), (0, "@x"), (1, "1"), (2, "@x"), (2, "a")]),
            (
                "<a><b k=\"v\" j='w'/></a>",
                [
                    (0, "a"), (0, "b"),
                    (0, "@k"), (1, "v"), (2, "@k"),
                    (0, "@j"), (1, "w"), (2, "@j"),
                    (2, "b"), (2, "a"),
                ],
            ),
            (
                '<a><b k=""/></a>',
                [(0, "a"), (0, "b"), (0, "@k"), (2, "@k"), (2, "b"), (2, "a")],
            ),
            (
                '<a><b/><b/><b x="1"></b ></a>',
                [
                    (0, "a"), (0, "b"), (2, "b"), (0, "b"), (2, "b"),
                    (0, "b"), (0, "@x"), (1, "1"), (2, "@x"), (2, "b"),
                    (2, "a"),
                ],
            ),
            (
                '<a><b k="&lt;"/><b k="&lt;"/></a>',
                [
                    (0, "a"),
                    (0, "b"), (0, "@k"), (1, "<"), (2, "@k"), (2, "b"),
                    (0, "b"), (0, "@k"), (1, "<"), (2, "@k"), (2, "b"),
                    (2, "a"),
                ],
            ),
            (
                '<a\tb="1"\n/>',
                [(0, "a"), (0, "@b"), (1, "1"), (2, "@b"), (2, "a")],
            ),
            (
                '<a b="1"c="2"/>',
                [
                    (0, "a"),
                    (0, "@b"), (1, "1"), (2, "@b"),
                    (0, "@c"), (1, "2"), (2, "@c"),
                    (2, "a"),
                ],
            ),
        ],
    )
    def test_tag_body_event_streams_are_pinned(self, text, events):
        assert [tuple(event) for event in iter_events(text)] == events

    def test_ignored_attributes_keep_self_closing_tags(self):
        events = [tuple(e) for e in iter_events('<a><b x="1"/><b/></a>', "ignore")]
        assert events == [(0, "a"), (0, "b"), (2, "b"), (0, "b"), (2, "b"), (2, "a")]

    def test_iter_events_streaming(self):
        events = list(iter_events("<a><b>x</b></a>"))
        assert events == [
            Event(OPEN, "a"),
            Event(OPEN, "b"),
            Event(TEXT, "x"),
            Event(CLOSE, "b"),
            Event(CLOSE, "a"),
        ]


class TestSerializer:
    def test_round_trip_compact(self):
        text = "<a><b>x</b><c>y&amp;z</c></a>"
        assert serialize(parse_document(text)) == text

    def test_round_trip_attributes(self):
        text = '<a id="1"><b/></a>'
        doc = parse_document(text)
        assert serialize(doc) == text

    def test_pretty_print_contains_newlines(self):
        doc = parse_document("<a><b>x</b></a>")
        pretty = serialize(doc, indent=2)
        assert "\n" in pretty
        assert parse_document(pretty) == doc

    def test_serialize_events(self):
        doc = parse_document("<a><b>x</b><c/></a>", attributes="ignore")
        text = serialize_events(doc.iter_events())
        assert parse_document(text, attributes="ignore") == doc

    def test_escaping(self):
        doc = Node("a", ["<&>"])
        assert serialize(doc) == "<a>&lt;&amp;&gt;</a>"


class TestTagDictionary:
    def test_codes_are_dense_and_stable(self):
        dictionary = TagDictionary(["a", "b", "a", "c"])
        assert len(dictionary) == 3
        assert dictionary.code("a") == 0
        assert dictionary.code("c") == 2
        assert dictionary.tag(1) == "b"

    def test_from_tree(self):
        # The encoder builds a document's dictionary in first-seen order.
        doc = parse_document("<a><b/><c><b/></c></a>")
        assert encode_document(doc).dictionary.tags() == ["a", "b", "c"]

    def test_membership_and_iteration(self):
        dictionary = TagDictionary(["x", "y"])
        assert "x" in dictionary and "z" not in dictionary
        assert list(dictionary) == ["x", "y"]

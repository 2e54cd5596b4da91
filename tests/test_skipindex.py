"""Tests for the Skip index: bit I/O, encoder/decoder, variants."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.skipindex.bitio import (
    BitReader,
    bits_for,
    bits_for_count,
    put_varint,
    varint_size,
)
from repro.skipindex.decoder import (
    SkipIndexFormatError,
    SkipIndexNavigator,
    decode_document,
    iter_decoded_events,
    read_header,
)
from repro.skipindex.encoder import encode_document
from repro.skipindex.variants import (
    encoding_report,
    size_nc,
    size_tc,
    size_tcs,
    size_tcsb,
)
from repro.xmlkit.dom import Node
from repro.xmlkit.parser import parse_document
from repro.xmlkit.serializer import serialize


def normalize(node: Node) -> Node:
    """Merge adjacent text children (the encoder does the same)."""
    merged = Node(node.tag)
    buffer = []
    for child in node.children:
        if isinstance(child, str):
            buffer.append(child)
        else:
            if buffer:
                merged.children.append("".join(buffer))
                buffer = []
            merged.children.append(normalize(child))
    if buffer:
        merged.children.append("".join(buffer))
    return merged


class TestBitIO:
    def test_bits_for(self):
        assert bits_for(0) == 0
        assert bits_for(1) == 1
        assert bits_for(255) == 8
        assert bits_for(256) == 9

    def test_bits_for_count(self):
        assert bits_for_count(0) == 0
        assert bits_for_count(1) == 0
        assert bits_for_count(2) == 1
        assert bits_for_count(3) == 2
        assert bits_for_count(256) == 8

    def test_round_trip_fields(self):
        # 101 | 1 | 1111111111 | pad, then varint 300 and b"xy".
        reader = BitReader(b"\xbf\xfc\xac\x02xy")
        assert reader.read_bits(3) == 5
        assert reader.read_bit() == 1
        assert reader.read_bits(10) == 1023
        reader.align()
        assert reader.read_varint() == 300
        assert reader.read_bytes(2) == b"xy"

    def test_zero_width_fields(self):
        reader = BitReader(b"\x07")
        assert reader.read_bits(0) == 0
        assert reader.read_varint() == 7

    def test_varint_helpers(self):
        for value in (0, 1, 127, 128, 300, 2**14 - 1, 2**14, 2**40):
            out = bytearray()
            put_varint(out, value)
            assert len(out) == varint_size(value)
            assert BitReader(bytes(out)).read_varint() == value
        with pytest.raises(ValueError):
            put_varint(bytearray(), -1)

    def test_eof_raises(self):
        reader = BitReader(b"")
        with pytest.raises(EOFError):
            reader.read_bits(1)

    @given(st.lists(st.tuples(st.integers(0, 2 ** 20), st.integers(1, 24))))
    @settings(max_examples=100, deadline=None)
    def test_property_field_round_trip(self, fields):
        clipped = [(value & ((1 << width) - 1), width) for value, width in fields]
        packed = bits = 0
        for value, width in clipped:
            packed = (packed << width) | value
            bits += width
        pad = -bits % 8
        reader = BitReader((packed << pad).to_bytes((bits + pad) // 8, "big"))
        for value, width in clipped:
            assert reader.read_bits(width) == value


class TestEncoderDecoder:
    def round_trip(self, xml: str) -> None:
        tree = parse_document(xml)
        encoded = encode_document(tree)
        decoded = decode_document(encoded)
        assert decoded == normalize(tree), serialize(decoded)

    def test_single_leaf(self):
        self.round_trip("<a>hello</a>")

    def test_empty_leaf(self):
        self.round_trip("<a/>")

    def test_nested(self):
        self.round_trip("<a><b>x</b><c><d>y</d><d>z</d></c></a>")

    def test_mixed_content(self):
        self.round_trip("<a>pre<b>x</b>mid<c/>post</a>")

    def test_unicode_text(self):
        self.round_trip("<a><b>héllo wörld ✓</b></a>")

    def test_recursive_tags(self):
        self.round_trip("<a><a><a><a>deep</a></a></a></a>")

    def test_many_tags(self):
        children = "".join("<t%d>v%d</t%d>" % (i, i, i) for i in range(40))
        self.round_trip("<root>%s</root>" % children)

    def test_wide_document(self):
        children = "<x>v</x>" * 300
        self.round_trip("<root>%s</root>" % children)

    def test_header_round_trip(self):
        tree = parse_document("<a><b>x</b></a>")
        encoded = encode_document(tree)
        dictionary, offset = read_header(encoded.data)
        assert dictionary.tags() == ["a", "b"]
        assert offset == encoded.root_offset

    def test_bad_magic_rejected(self):
        with pytest.raises(SkipIndexFormatError):
            read_header(b"BAD!" + b"\x00" * 10)

    def test_subtree_meta_is_exact(self):
        tree = parse_document("<a><b><c>x</c></b><d>y</d></a>")
        encoded = encode_document(tree)
        navigator = SkipIndexNavigator(encoded.data)
        metas = {}
        while True:
            item = navigator.next()
            if item is None:
                break
            kind, value, meta = item
            if kind == 0 and meta is not None:
                metas.setdefault(value, meta)
        assert metas["a"].desc_tags == frozenset({"b", "c", "d"})
        assert metas["b"].desc_tags == frozenset({"c"})
        assert metas["c"].desc_tags == frozenset()

    def test_sizes_allow_exact_skips(self):
        tree = parse_document("<a><b><c>x</c><c>y</c></b><d>z</d></a>")
        encoded = encode_document(tree)
        navigator = SkipIndexNavigator(encoded.data)
        # Open 'a', open 'b', then skip b's subtree entirely.
        kind, value, _ = navigator.next()
        assert (kind, value) == (0, "a")
        kind, value, _ = navigator.next()
        assert (kind, value) == (0, "b")
        navigator.skip_subtree()
        kind, value, _ = navigator.next()
        assert (kind, value) == (2, "b")
        kind, value, _ = navigator.next()
        assert (kind, value) == (0, "d")

    def test_skip_and_capture_fetches_same_events(self):
        tree = parse_document("<a><b><c>x</c><c>y</c></b><d>z</d></a>")
        encoded = encode_document(tree)
        reference = list(iter_decoded_events(encoded))
        navigator = SkipIndexNavigator(encoded.data)
        navigator.next()  # open a
        navigator.next()  # open b
        fetch = navigator.skip_and_capture()
        captured = list(fetch())
        b_span = reference[1:9]  # <b><c>x</c><c>y</c></b>
        assert captured == b_span
        kind, value, _ = navigator.next()
        assert (kind, value) == (2, "b")

    def test_skip_rest_and_capture(self):
        tree = parse_document("<a><b>x</b><c>y</c><d>z</d></a>")
        encoded = encode_document(tree)
        navigator = SkipIndexNavigator(encoded.data)
        navigator.next()  # open a
        navigator.next()  # open b
        navigator.next()  # text x
        navigator.next()  # close b
        fetch = navigator.skip_rest_and_capture()
        captured = list(fetch())
        assert [(e.kind, e.value) for e in captured] == [
            (0, "c"), (1, "y"), (2, "c"), (0, "d"), (1, "z"), (2, "d"),
        ]
        kind, value, _ = navigator.next()
        assert (kind, value) == (2, "a")

    def test_fixpoint_converges(self):
        tree = parse_document("<a>" + "<b>x</b>" * 100 + "</a>")
        encoded = encode_document(tree)
        assert encoded.stats.fixpoint_rounds <= 8

    def random_tree(self, rng, max_nodes=60):
        tags = ["a", "b", "c", "d", "e", "f"]
        budget = [rng.randint(1, max_nodes)]

        def build(depth):
            node = Node(rng.choice(tags))
            while budget[0] > 0 and rng.random() < (0.8 if depth < 5 else 0.2):
                budget[0] -= 1
                if rng.random() < 0.4:
                    node.children.append(rng.choice(["t", "42", "longer text"]))
                else:
                    node.children.append(build(depth + 1))
            return node

        return build(0)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_round_trip(self, seed):
        rng = random.Random(seed)
        tree = self.random_tree(rng)
        encoded = encode_document(tree)
        assert decode_document(encoded) == normalize(tree)


class TestEvaluatorOnEncodedDocuments:
    """End-to-end: evaluator fed by the SkipIndexNavigator must match the
    reference oracle (on the normalized tree)."""

    @pytest.mark.parametrize("seed", range(30))
    def test_differential_encoded(self, seed):
        from repro import reference_authorized_view
        from repro.accesscontrol.evaluator import StreamingEvaluator
        from test_differential import random_policy, random_tree

        rng = random.Random(seed + 5000)
        tree = normalize(random_tree(rng))
        policy = random_policy(rng)
        encoded = encode_document(tree)
        navigator = SkipIndexNavigator(encoded.data)
        streamed = StreamingEvaluator(policy).run(navigator)
        reference = reference_authorized_view(tree, policy)
        assert streamed == reference

    @pytest.mark.parametrize("seed", range(30, 50))
    def test_differential_encoded_with_query(self, seed):
        from repro import reference_authorized_view
        from repro.accesscontrol.evaluator import StreamingEvaluator
        from test_differential import random_path, random_policy, random_tree

        rng = random.Random(seed + 6000)
        tree = normalize(random_tree(rng))
        policy = random_policy(rng)
        query = random_path(rng)
        encoded = encode_document(tree)
        navigator = SkipIndexNavigator(encoded.data)
        streamed = StreamingEvaluator(policy, query=query).run(navigator)
        reference = reference_authorized_view(tree, policy, query=query)
        assert streamed == reference


class TestVariants:
    def sample_tree(self):
        body = "".join(
            "<rec><id>%d</id><name>name-%d</name><note>some text %d</note></rec>"
            % (i, i, i)
            for i in range(2000)
        )
        return parse_document("<db>%s</db>" % body)

    def test_nc_matches_serialization(self):
        tree = self.sample_tree()
        stats = size_nc(tree)
        assert stats.total_bytes == len(serialize(tree).encode("utf-8"))
        assert stats.text_bytes == tree.text_size()

    def test_tc_much_smaller_than_nc(self):
        tree = self.sample_tree()
        assert size_tc(tree).structure_bytes < size_nc(tree).structure_bytes / 2

    def test_tcs_larger_than_tc(self):
        tree = self.sample_tree()
        assert size_tcs(tree).structure_bytes > size_tc(tree).structure_bytes

    def test_tcsb_larger_than_tcs(self):
        tree = self.sample_tree()
        assert size_tcsb(tree).structure_bytes > size_tcs(tree).structure_bytes

    def test_tcsbr_much_smaller_than_tcsb(self):
        tree = self.sample_tree()
        report = encoding_report(tree)
        assert (
            report["TCSBR"].structure_bytes < report["TCSB"].structure_bytes
        )

    def test_tcsbr_total_matches_encoder(self):
        tree = self.sample_tree()
        report = encoding_report(tree)
        assert report["TCSBR"].total_bytes == len(encode_document(tree).data)

    def test_ratios_are_positive(self):
        tree = self.sample_tree()
        for name, stats in encoding_report(tree).items():
            assert stats.struct_text_ratio() > 0, name

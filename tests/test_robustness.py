"""Robustness and determinism checks across the pipeline."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import reference_authorized_view
from repro.accesscontrol.evaluator import StreamingEvaluator
from repro.crypto.integrity import make_scheme
from repro.engine import evaluate_document, prepare_document
from repro.metrics import Meter
from repro.skipindex.decoder import (
    SkipIndexFormatError,
    SkipIndexNavigator,
    decode_document,
    read_header,
)
from repro.skipindex.encoder import encode_document
from repro.xmlkit.dom import Node
from repro.xmlkit.events import validate_stream


class TestDecoderRobustness:
    """Garbage in must yield defined errors, never wrong documents."""

    def encoded(self):
        tree = Node("a", [Node("b", ["text"]), Node("c", [Node("d", ["x"])])])
        return encode_document(tree)

    @pytest.mark.parametrize("cut", [5, 8, 12, 20])
    def test_truncated_documents_raise(self, cut):
        data = self.encoded().data[:cut]
        with pytest.raises((SkipIndexFormatError, EOFError, IndexError,
                            UnicodeDecodeError, ValueError)):
            navigator_events = []
            navigator = SkipIndexNavigator(data)
            while True:
                item = navigator.next()
                if item is None:
                    break
                navigator_events.append(item)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_byte_flips_never_hang(self, seed):
        rng = random.Random(seed)
        encoded = self.encoded()
        data = bytearray(encoded.data)
        position = rng.randrange(encoded.root_offset, len(data))
        data[position] ^= 1 << rng.randrange(8)
        try:
            navigator = SkipIndexNavigator(bytes(data))
            for _ in range(10000):  # bounded: a hang would exceed this
                if navigator.next() is None:
                    break
        except (SkipIndexFormatError, EOFError, IndexError,
                UnicodeDecodeError, ValueError):
            pass  # defined failure modes

    def test_empty_input(self):
        with pytest.raises((SkipIndexFormatError, EOFError)):
            read_header(b"")


@st.composite
def unicode_trees(draw, depth=3):
    tags = ["alpha", "beta", "gamma"]
    node = Node(draw(st.sampled_from(tags)))
    for _ in range(draw(st.integers(0, 3))):
        if depth > 0 and draw(st.booleans()):
            node.children.append(draw(unicode_trees(depth=depth - 1)))
        else:
            text = draw(
                st.text(
                    alphabet=st.characters(
                        blacklist_categories=("Cs",), min_codepoint=1
                    ),
                    min_size=1,
                    max_size=20,
                )
            )
            node.children.append(text)
    return node


class TestUnicodePipeline:
    @settings(max_examples=60, deadline=None)
    @given(tree=unicode_trees())
    def test_encode_decode_arbitrary_unicode(self, tree):
        encoded = encode_document(tree)
        decoded = decode_document(encoded)
        # Adjacent text chunks merge; compare text content + structure.
        assert decoded.tag == tree.tag
        assert decoded.distinct_tags() == tree.distinct_tags()
        assert decoded.text_size() == tree.text_size()

    @settings(max_examples=30, deadline=None)
    @given(tree=unicode_trees())
    def test_secure_roundtrip_arbitrary_unicode(self, tree):
        scheme = make_scheme("ECB-MHT", key=bytes(range(16)))
        encoded = encode_document(tree)
        document = scheme.protect(encoded.data)
        reader = scheme.reader(document, Meter())
        assert reader.read(0, len(encoded.data)) == encoded.data


class TestDeterminism:
    def test_sessions_are_deterministic(self):
        from repro.datasets import HospitalConfig, generate_hospital, doctor_policy

        doc = generate_hospital(HospitalConfig(folders=6, seed=11))
        prepared = prepare_document(doc, scheme="ECB-MHT")
        policy = doctor_policy("doctor2")
        first = evaluate_document(prepared, policy)
        second = evaluate_document(prepared, policy)
        assert first.events == second.events
        assert first.meter.as_dict() == second.meter.as_dict()
        assert first.seconds == second.seconds

    def test_views_always_well_formed(self):
        from test_differential import random_policy, random_tree

        for seed in range(40):
            rng = random.Random(seed + 31337)
            tree = random_tree(rng)
            policy = random_policy(rng)
            view = StreamingEvaluator(policy).run_events(
                list(tree.iter_events()), with_index=True
            )
            if view:
                validate_stream(view)

    def test_structural_rule_invariant(self):
        """Every delivered element is PERMIT itself or has a PERMIT
        descendant (no dangling structural nodes)."""
        from test_differential import random_policy, random_tree
        from repro.accesscontrol.reference import access_decisions
        from repro.accesscontrol.model import PERMIT
        from repro.xmlkit.events import events_to_tree

        for seed in range(30):
            rng = random.Random(seed + 999)
            tree = random_tree(rng)
            policy = random_policy(rng)
            view = reference_authorized_view(tree, policy)
            if not view:
                continue
            view_tree = events_to_tree(view)
            decisions = access_decisions(tree, policy)

            # Collect PERMIT tag multiset; every leaf-most view element
            # chain must terminate at an element that is permitted.
            def has_permit_descendant(node):
                matching = [
                    n
                    for n in tree.descendants()
                    if n.tag == node.tag and decisions[id(n)] == PERMIT
                ]
                if matching:
                    return True
                return any(
                    has_permit_descendant(child)
                    for child in node.element_children()
                )

            for leaf in view_tree.descendants():
                if not any(True for _ in leaf.element_children()):
                    assert has_permit_descendant(leaf)

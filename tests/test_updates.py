"""Tests for document updates under the Skip index (Section 4.1)."""

import pytest

from repro.skipindex.decoder import decode_document
from repro.skipindex.encoder import encode_document
from repro.skipindex.updates import (
    UpdateError,
    delete_element,
    impact_between,
    insert_element,
    reencode_after,
    rename_element,
    update_text,
)
from repro.xmlkit.dom import Node, text_node
from repro.xmlkit.parser import parse_document


def measure_update(old_tree, new_tree):
    """Re-encode after an edit and measure its impact, composed as the
    station's live update path does: ``reencode_after`` reuses the old
    dictionary and reports its growth to ``impact_between``."""
    old_encoded = encode_document(old_tree)
    new_encoded, grew = reencode_after(old_encoded, new_tree)
    impact = impact_between(
        old_encoded, new_encoded, old_tree, new_tree, dictionary_grew=grew
    )
    return new_encoded, impact


def sample():
    return parse_document(
        "<db>"
        + "".join("<rec><id>%d</id><val>v%d</val></rec>" % (i, i) for i in range(20))
        + "</db>"
    )


class TestEditOperations:
    def test_insert_appends(self):
        tree = sample()
        updated = insert_element(tree, [], text_node("extra", "x"))
        assert updated.find("extra") is not None
        assert tree.find("extra") is None  # original untouched

    def test_insert_at_position(self):
        tree = parse_document("<a><b/><d/></a>")
        updated = insert_element(tree, [], Node("c"), position=1)
        assert [n.tag for n in updated.element_children()] == ["b", "c", "d"]

    def test_delete(self):
        tree = sample()
        updated = delete_element(tree, [0])
        assert updated.count_elements() == tree.count_elements() - 3

    def test_delete_root_rejected(self):
        with pytest.raises(UpdateError):
            delete_element(sample(), [])

    def test_update_text(self):
        tree = sample()
        updated = update_text(tree, [0, 1], "changed")
        assert updated.find("rec").find("val").text() == "changed"

    def test_rename(self):
        tree = sample()
        updated = rename_element(tree, [0], "record")
        assert updated.element_children().__next__().tag == "record"

    def test_bad_path(self):
        with pytest.raises(UpdateError):
            update_text(sample(), [99], "x")


class TestUpdateImpact:
    def test_new_encoding_is_decodable(self):
        tree = sample()
        updated = update_text(tree, [5, 1], "changed-value")
        encoded, impact = measure_update(tree, updated)
        assert decode_document(encoded) == updated
        assert impact.changed_bytes > 0

    def test_local_text_edit_is_best_case(self):
        tree = sample()
        updated = update_text(tree, [5, 1], "v5x")  # same length ballpark
        _encoded, impact = measure_update(tree, updated)
        assert not impact.dictionary_grew
        # A tiny local change touches few chunks.
        assert impact.chunks_to_reencrypt <= 2

    def test_rename_with_new_tag_is_worst_case(self):
        tree = sample()
        updated = rename_element(tree, [3], "brand_new_tag")
        _encoded, impact = measure_update(tree, updated)
        assert impact.dictionary_grew
        assert impact.is_worst_case

    def test_rename_to_existing_tag_keeps_dictionary(self):
        tree = parse_document("<a><b/><c/></a>")
        updated = rename_element(tree, [0], "c")
        _encoded, impact = measure_update(tree, updated)
        assert not impact.dictionary_grew

    def test_insert_grows_document(self):
        tree = sample()
        updated = insert_element(
            tree, [], parse_document("<rec><id>99</id><val>v99</val></rec>")
        )
        _encoded, impact = measure_update(tree, updated)
        assert impact.new_size > impact.old_size

    def test_big_growth_can_jump_size_width(self):
        tree = parse_document("<a><b>" + "x" * 100 + "</b></a>")
        updated = insert_element(
            tree, [], parse_document("<c>" + "y" * 5000 + "</c>")
        )
        _encoded, impact = measure_update(tree, updated)
        assert impact.size_width_jumped
        assert impact.is_worst_case

    def test_append_at_end_touches_few_leading_chunks(self):
        """Appending at the document end mostly rewrites the tail."""
        tree = sample()
        updated = insert_element(tree, [], text_node("tail", "t"))
        _encoded, impact = measure_update(tree, updated)
        # The root header (size field) changes + the tail region; the
        # untouched middle chunks must not all be rewritten.
        total_chunks = (impact.new_size // 2048) + 1
        assert impact.chunks_to_reencrypt <= total_chunks

    def test_changed_ranges_are_disjoint_and_sorted(self):
        tree = sample()
        updated = update_text(tree, [10, 1], "completely different text!")
        _encoded, impact = measure_update(tree, updated)
        previous_end = -1
        for start, end in impact.changed_ranges:
            assert start >= previous_end
            assert end > start
            previous_end = end


class TestReencodeHelpers:
    def test_reencode_after_preserves_tag_codes(self):
        tree = sample()
        encoded = encode_document(tree)
        updated = update_text(tree, [5, 1], "changed!")
        new_encoded, grew = reencode_after(encoded, updated)
        assert not grew
        assert new_encoded.dictionary.tags()[: len(encoded.dictionary.tags())] == (
            encoded.dictionary.tags()
        )
        assert decode_document(new_encoded) == updated

    def test_reencode_after_reports_dictionary_growth(self):
        tree = sample()
        encoded = encode_document(tree)
        updated = rename_element(tree, [2], "fresh_tag")
        _new_encoded, grew = reencode_after(encoded, updated)
        assert grew

    def test_identity_reencode_diffs_to_nothing(self):
        """decode -> re-encode with the same dictionary is byte-stable:
        the live update path's diff sees only the actual edit."""
        tree = sample()
        encoded = encode_document(tree)
        same, grew = reencode_after(encoded, decode_document(encoded))
        assert not grew
        assert same.data == encoded.data
        impact = impact_between(encoded, same, tree, tree)
        assert impact.changed_bytes == 0
        assert impact.chunks_to_reencrypt == 0
        assert not impact.is_worst_case

    def test_impact_between_matches_measure_update(self):
        # Left to infer dictionary growth, impact_between agrees with
        # the flag reencode_after reports on the update path.
        tree = sample()
        encoded = encode_document(tree)
        for updated in (
            update_text(tree, [7, 1], "different length text here"),
            rename_element(tree, [2], "fresh_tag"),
        ):
            new_encoded, via_measure = measure_update(tree, updated)
            inferred = impact_between(encoded, new_encoded, tree, updated)
            assert inferred.dictionary_grew == via_measure.dictionary_grew
            assert inferred.changed_bytes == via_measure.changed_bytes
            assert inferred.chunks_to_reencrypt == via_measure.chunks_to_reencrypt
            assert inferred.is_worst_case == via_measure.is_worst_case

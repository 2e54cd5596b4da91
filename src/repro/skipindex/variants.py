"""Encoding variants compared in Fig. 8: NC, TC, TCS, TCSB (and TCSBR).

The paper evaluates the Skip index's storage overhead by decomposing it
into its constituent techniques:

* **NC** — the original, non-compressed XML text;
* **TC** — classic tag compression: each tag is a ``log2(Nt)``-bit
  dictionary code (opening *and* closing markers are needed);
* **TCS** — TC plus a subtree size per element (``log2(doc size)``
  bits), making closing tags unnecessary and skips possible;
* **TCSB** — TCS plus a descendant-tag bitmap of ``Nt`` bits per
  internal element;
* **TCSBR** — the recursive variant of TCSB: the actual Skip index
  (:mod:`repro.skipindex.encoder`).

The variant encoders here reproduce the *size accounting* of the paper
(every per-element metadata burst is byte-aligned); TCSBR sizes come
from the real encoder.  All functions return an
:class:`~repro.skipindex.encoder.EncodingStats`.
"""

from __future__ import annotations

from typing import Dict

from repro.skipindex.bitio import bits_for, bits_for_count, varint_size
from repro.skipindex.encoder import EncodingStats, encode_document
from repro.xmlkit.dom import Node
from repro.xmlkit.serializer import serialize


def _text_bytes(tree: Node) -> int:
    return tree.text_size()


def size_nc(tree: Node) -> EncodingStats:
    """NC: the plain XML serialization."""
    stats = EncodingStats()
    stats.total_bytes = len(serialize(tree).encode("utf-8"))
    stats.text_bytes = _text_bytes(tree)
    return stats


def size_tc(tree: Node) -> EncodingStats:
    """TC: dictionary tag codes + explicit close markers.

    Item codes range over {text} + tags + {close}: ``Nt + 2`` values.
    Every code burst is padded to a byte frontier; text is stored as
    ``varint length + bytes``.
    """
    stats = EncodingStats()
    tag_count = len(tree.distinct_tags())
    code_bytes = (bits_for_count(tag_count + 2) + 7) // 8
    total = 0
    text_total = 0

    def visit(node: Node) -> None:
        nonlocal total, text_total
        total += code_bytes  # open marker
        for child in node.children:
            if isinstance(child, str):
                encoded = child.encode("utf-8")
                total += code_bytes + varint_size(len(encoded)) + len(encoded)
                text_total += len(encoded)
            else:
                visit(child)
        total += code_bytes  # close marker

    visit(tree)
    stats.total_bytes = total
    stats.text_bytes = text_total
    return stats


def _size_with_subtree_sizes(tree: Node, bitmap_bits: int) -> EncodingStats:
    """Shared sizing for TCS (bitmap 0 bits) and TCSB (bitmap Nt bits).

    Per element: tag code + subtree size (+ bitmap), padded to a byte;
    no close markers (the paper stores the size for *every* element in
    these non-recursive variants).  The size field has the fixed width
    ``log2(compressed document size)``, resolved by fixpoint (the width
    depends on the total size it contributes to).
    """
    stats = EncodingStats()
    tag_count = len(tree.distinct_tags())
    code_bits = bits_for_count(tag_count + 1)  # text marker + tags
    text_total = _text_bytes(tree)

    def total_for(size_bits: int) -> int:
        total = 0

        def visit(node: Node) -> None:
            nonlocal total
            bits = code_bits + bitmap_bits + size_bits
            total += (bits + 7) // 8
            for child in node.children:
                if isinstance(child, str):
                    encoded = child.encode("utf-8")
                    total += (
                        (code_bits + 7) // 8
                        + varint_size(len(encoded))
                        + len(encoded)
                    )
                else:
                    visit(child)

        visit(tree)
        return total

    size_bits = 8
    while True:
        total = total_for(size_bits)
        needed = bits_for(total)
        if needed <= size_bits:
            break
        size_bits = needed
    stats.total_bytes = total
    stats.text_bytes = text_total
    return stats


def size_tcs(tree: Node) -> EncodingStats:
    """TCS: tag compression + subtree sizes (no bitmaps)."""
    return _size_with_subtree_sizes(tree, bitmap_bits=0)


def size_tcsb(tree: Node) -> EncodingStats:
    """TCSB: TCS + a flat ``Nt``-bit descendant-tag bitmap per element
    (the non-recursive bitmap of Fig. 8)."""
    tag_count = len(tree.distinct_tags())
    return _size_with_subtree_sizes(tree, bitmap_bits=tag_count)


def size_tcsbr(tree: Node) -> EncodingStats:
    """TCSBR: the real Skip-index encoder's accounting."""
    return encode_document(tree).stats


VARIANTS = {
    "NC": size_nc,
    "TC": size_tc,
    "TCS": size_tcs,
    "TCSB": size_tcsb,
    "TCSBR": size_tcsbr,
}


def encoding_report(tree: Node) -> Dict[str, EncodingStats]:
    """Fig. 8 data point for one document: stats per encoding variant."""
    return {name: fn(tree) for name, fn in VARIANTS.items()}

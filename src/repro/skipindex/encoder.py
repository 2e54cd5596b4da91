"""TCSBR encoder — the Skip index proper (Section 4.1).

The encoded document is self-delimiting and recursively compressed:

* **T**ag compression: an element's tag is a reference into its
  *parent's* descendant-tag set (``log2 |DescTag_parent|`` bits instead
  of ``log2 Nt``);
* **S**ubtree sizes: every internal element stores the byte size of its
  content, with a field width of ``log2 SubtreeSize_parent`` bits —
  closing tags become unnecessary and subtrees can be skipped;
* **B**itmaps: every internal element stores ``TagArray``, the set of
  tags of its subtree, as a bitmap over the parent's set;
* **R**ecursive: all three field widths shrink while descending.

Concrete layout (our concretization of the paper's scheme; DESIGN.md §6)::

    document := magic "XSKP" | version u8 | dictionary | root item
    dictionary := varint count | count * (varint len | utf8 tag)
    item      := code[w_code bits]              (0 = text item)
                 -- text item --
                 | pad | varint len | utf8 bytes
                 -- element item (code c >= 1 names parent_desc[c-1]) --
                 | internal flag (1 bit)
                 -- internal --
                 | TagArray [ |parent_desc| bits ]
                 | SubtreeSize [ w_size bits ] | pad | content bytes
                 -- leaf --
                 | pad | varint len | utf8 bytes

with ``w_code = bits_for_count(|parent_desc| + 1)`` and ``w_size =
bits_for(parent_content_size)`` — except at the root, whose size field
is a fixed 32 bits (it has no parent).  Field widths depend on sizes
that depend on field widths, but only locally: an element's content
size depends on its own subtree and on ``bits_for(own content size)``
(the width of its internal children's size fields).
:func:`encode_document` therefore sizes each element once, bottom-up,
iterating that one width from 0 to its least fixpoint (sizes grow
monotonically, so it settles in a few rounds).

Byte alignment: every item header is padded to a byte frontier before
raw bytes follow, matching the paper's size accounting; the encoder
packs each header into one integer and appends it whole.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Union

from repro.skipindex.bitio import (
    bits_for,
    bits_for_count,
    put_varint,
    varint_size,
)
from repro.xmlkit.dictionary import TagDictionary
from repro.xmlkit.dom import Node

MAGIC = b"XSKP"
VERSION = 1
ROOT_SIZE_BITS = 32


class _Elem:
    """Analysis node: one element, sized once its subtree is known.

    ``mask`` is the descendant-tag set as a bitmask over dictionary
    codes; 0 marks a leaf, which keeps its UTF-8 text in ``text``.  An
    internal element also has ``items`` (merged text runs as ``bytes``
    and child ``_Elem``, in document order), ``codes`` (the descendant
    set as an ascending code list: the order of the TagArray bitmap and
    of child tag codes) and ``size`` (its content size).
    """

    __slots__ = ("code", "mask", "text", "items", "codes", "size")

    def __init__(self, code: int, text: bytes = b""):
        self.code = code
        self.mask = 0
        self.text = text


class EncodingStats:
    """Byte accounting for Fig. 8: structure vs text."""

    def __init__(self):
        self.total_bytes = 0
        self.text_bytes = 0
        self.dictionary_bytes = 0
        # Most width rounds any one element needed (see the module doc).
        self.fixpoint_rounds = 0

    @property
    def structure_bytes(self) -> int:
        """Everything that is not raw text content nor the dictionary."""
        return self.total_bytes - self.text_bytes - self.dictionary_bytes

    def struct_text_ratio(self) -> float:
        """The paper's Y-axis for Fig. 8: structure / text length."""
        if self.text_bytes == 0:
            return float("inf")
        return self.structure_bytes / self.text_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "EncodingStats(total=%d, text=%d, struct=%d)" % (
            self.total_bytes,
            self.text_bytes,
            self.structure_bytes,
        )


class EncodedDocument:
    """The encoded byte stream plus its dictionary and accounting."""

    def __init__(
        self,
        data: bytes,
        dictionary: TagDictionary,
        stats: EncodingStats,
        root_offset: int,
    ):
        self.data = data
        self.dictionary = dictionary
        self.stats = stats
        self.root_offset = root_offset  # offset of the root item

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "EncodedDocument(%d bytes, %d tags)" % (
            len(self.data),
            len(self.dictionary),
        )


def _analyze(
    node: Node, code_of: Callable[[str], int], stats: EncodingStats
) -> _Elem:
    """Build and size ``node``'s analysis subtree in one pre-order walk.

    ``code_of`` maps a tag to its dictionary code (registering it when
    the encoder builds the dictionary itself).  Adjacent text children
    merge into one text item, as the decoder will see them.
    """
    code = code_of(node.tag)
    items: List[Union[bytes, _Elem]] = []
    pending: Optional[str] = None
    mask = 0
    for child in node.children:
        if child.__class__ is str:
            pending = child if pending is None else pending + child
            continue
        if pending is not None:
            items.append(pending.encode("utf-8"))
            pending = None
        sub = _analyze(child, code_of, stats)
        items.append(sub)
        mask |= (1 << sub.code) | sub.mask
    if not mask:
        return _Elem(code, b"" if pending is None else pending.encode("utf-8"))
    if pending is not None:
        items.append(pending.encode("utf-8"))
    elem = _Elem(code)
    elem.mask = mask
    elem.items = items
    elem.codes = codes = []
    while mask:
        low = mask & -mask
        codes.append(low.bit_length() - 1)
        mask ^= low
    # Child headers: text = code | pad; leaf = code | flag | pad;
    # internal = code | flag | TagArray | SubtreeSize | pad, where only
    # the SubtreeSize width depends on this element's own size.
    code_width = bits_for_count(len(codes) + 1)
    text_header = (code_width + 7) >> 3
    leaf_header = (code_width + 8) >> 3
    fixed_bits = code_width + 1 + len(codes) + 7  # +7 rounds up to bytes
    base = 0
    internal_children = 0
    for item in items:
        if item.__class__ is bytes:
            length = len(item)
            base += text_header + varint_size(length) + length
        elif item.mask:  # type: ignore[union-attr]
            base += item.size  # type: ignore[union-attr]
            internal_children += 1
        else:
            length = len(item.text)  # type: ignore[union-attr]
            base += leaf_header + varint_size(length) + length
    # Least fixpoint of size = base + n * header(bits_for(size)), from 0.
    size = 0
    rounds = 0
    while True:
        planned = base + internal_children * ((fixed_bits + bits_for(size)) >> 3)
        if planned == size:
            break
        size = planned
        rounds += 1
        if rounds > 64:
            raise RuntimeError("Skip-index sizing fixpoint did not converge")
    elem.size = size
    if rounds > stats.fixpoint_rounds:
        stats.fixpoint_rounds = rounds
    return elem


def _emit(
    elem: _Elem,
    out: bytearray,
    parent_codes: List[int],
    parent_mask: int,
    size_bits: int,
) -> int:
    """Append ``elem``'s item to ``out``; return its text bytes.

    The header (code | flag | TagArray | SubtreeSize, then pad) is
    packed into one integer and appended with one ``to_bytes``.
    """
    count = len(parent_codes)
    # code | internal flag (0 for now); a child's code is its rank in
    # the parent's code-ordered descendant list, plus one.
    value = ((parent_mask & ((1 << elem.code) - 1)).bit_count() + 1) << 1
    bits = bits_for_count(count + 1) + 1
    mask = elem.mask
    if mask:
        value |= 1
        for candidate in parent_codes:  # TagArray over the parent's list
            value = (value << 1) | ((mask >> candidate) & 1)
        value = (value << size_bits) | elem.size
        bits += count + size_bits
    header = (bits + 7) >> 3
    out += (value << (header * 8 - bits)).to_bytes(header, "big")
    if not mask:
        text = elem.text
        put_varint(out, len(text))
        out += text
        return len(text)
    start = len(out)
    codes = elem.codes
    child_size_bits = bits_for(elem.size)
    text_header = bytes((bits_for_count(len(codes) + 1) + 7) >> 3)
    text_bytes = 0
    for item in elem.items:
        if item.__class__ is bytes:
            out += text_header
            put_varint(out, len(item))
            out += item  # type: ignore[operator]
            text_bytes += len(item)
        else:
            text_bytes += _emit(item, out, codes, mask, child_size_bits)
    emitted = len(out) - start
    if emitted != elem.size:
        raise AssertionError(
            "size mismatch for tag code %d: planned %d, emitted %d"
            % (elem.code, elem.size, emitted)
        )
    return text_bytes


def encode_document(
    root: Node, dictionary: Optional[TagDictionary] = None
) -> EncodedDocument:
    """Encode a DOM tree into the TCSBR Skip-index format.

    ``dictionary`` defaults to the tree's own tag dictionary (first-seen
    order, built during the analysis walk).  Raises ``KeyError`` if a
    supplied dictionary misses tags.
    """
    stats = EncodingStats()
    if dictionary is None:
        dictionary = TagDictionary()
        analyzed = _analyze(root, dictionary.add, stats)
    else:
        analyzed = _analyze(root, dictionary.code, stats)

    out = bytearray(MAGIC)
    out.append(VERSION)
    put_varint(out, len(dictionary))
    for tag in dictionary:
        encoded = tag.encode("utf-8")
        put_varint(out, len(encoded))
        out += encoded
    root_offset = len(out)
    stats.dictionary_bytes = root_offset

    count = len(dictionary)
    stats.text_bytes = _emit(
        analyzed, out, list(range(count)), (1 << count) - 1, ROOT_SIZE_BITS
    )
    data = bytes(out)
    stats.total_bytes = len(data)
    return EncodedDocument(data, dictionary, stats, root_offset)

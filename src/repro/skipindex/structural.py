"""Structural XPath accelerator: a publish-time pre/post index.

The streaming evaluator pays for every byte it *looks at*: even with
subtree skipping, visiting a sibling's header decrypts the whole chunk the
header lives in, so query cost stays linear in document size.  This
module builds, at publish time (over the plaintext TCSBR encoding), a
flat table of every item in the document — offsets, sizes, tags and
descendant-tag bitmaps — plus dense ``pre`` numbers and parent links
over elements.

Because the TCSBR encoding is self-delimiting, byte-interval nesting
and pre/post containment coincide: element ``a`` is an ancestor of
``e`` iff ``a.pre < e.pre and e.post < a.post`` iff
``a.start < e.start and e.end <= a.end``.  The index therefore answers
child/descendant path steps as range predicates without touching the
ciphertext, and :class:`IndexedNavigator` replays the exact event
stream of :class:`~repro.skipindex.decoder.SkipIndexNavigator` while
reading (hence decrypting) only text payloads and captured spans — the
structure bytes are served from the index.  The streaming decoder
remains the oracle: for any plan the two navigators are byte-identical.

Components:

* :func:`build_structural_index` — one forward walk of the encoded
  bytes (mirroring the decoder's SkipStack) producing a
  :class:`StructuralIndex`;
* ``StructuralIndex.to_bytes`` / :func:`parse_structural_index` — the
  compact blob persisted next to the document (MemoryStore attribute,
  LogStore index record);
* ``StructuralIndex.match`` — candidate elements for a wildcard-free
  path, ``()`` meaning *provably empty result* (early exit);
* ``StructuralIndex.planned_chunks`` — the minimal contributing chunk
  set for a candidate list (metrics / trailer material);
* :class:`IndexedNavigator` — the drop-in navigator.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from typing import List, Optional, Sequence, Tuple

from repro.accesscontrol.navigation import SubtreeMeta
from repro.metrics import Meter
from repro.skipindex.bitio import bits_for, bits_for_count, put_varints, varint_size
from repro.skipindex.decoder import SkipIndexNavigator, _OpenFrame
from repro.skipindex.encoder import ROOT_SIZE_BITS, EncodedDocument
from repro.xmlkit.dictionary import TagDictionary
from repro.xmlkit.events import CLOSE, OPEN, TEXT

#: Blob magic + version ("X Structural IndeX").
INDEX_MAGIC = b"XSIX"
INDEX_VERSION = 2

#: Item kinds in the flat table (document order, strictly increasing
#: start offsets).
ITEM_TEXT = 0
ITEM_LEAF = 1
ITEM_INTERNAL = 2


def _column_code(limit: int, signed: bool = False) -> str:
    """Narrowest ``array`` typecode whose range holds ``limit``."""
    codes = "bhiq" if signed else "BHIQ"
    for code in codes[:-1]:
        if limit >> (8 * array(code).itemsize - signed) == 0:
            return code
    return codes[-1]


def _sized_columns(total_size: int, tag_count: int) -> Tuple[array, ...]:
    """Empty item and element columns (``kinds`` to ``elem_parent``) for
    a ``total_size``-byte encoding over ``tag_count`` tags."""
    offset = _column_code(total_size)
    number = _column_code(total_size, signed=True)
    return (
        array("B"), array(offset), array(offset), array(offset),
        array(_column_code(tag_count, signed=True)), array(number), array(number),
    )


def _header_bytes(desc_count: int, size_width: int) -> Tuple[int, int, int]:
    """Header bytes of a text, leaf and internal child item (indexed by
    item kind) of a parent with ``desc_count`` descendant tags and
    ``size_width``-bit SubtreeSize fields: ``code | pad``, ``code | flag
    | pad`` and ``code | flag | TagArray | SubtreeSize | pad``."""
    code_width = bits_for_count(desc_count + 1)
    return (
        (code_width + 7) >> 3,
        (code_width + 8) >> 3,
        (code_width + 1 + desc_count + size_width + 7) >> 3,
    )


def _fingerprint(encoded: EncodedDocument) -> Tuple[int, int, int]:
    """Total size, root offset and tag count of an encoding."""
    return len(encoded.data), encoded.root_offset, len(encoded.dictionary)


class StructuralIndexError(ValueError):
    """Raised on malformed or inconsistent index blobs."""


def _read_varint(data, pos: int) -> Tuple[int, int]:
    """LEB128 varint at ``pos`` → ``(value, next position)``."""
    value = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise EOFError("varint exhausted")
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if byte < 0x80:
            return value, pos
        shift += 7


class _BlobReader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes, pos: int = 0):
        self.data = data
        self.pos = pos

    def varint(self) -> int:
        try:
            value, self.pos = _read_varint(self.data, self.pos)
        except EOFError:
            raise StructuralIndexError("truncated index blob") from None
        return value


class StructuralIndex:
    """Flat item table + pre/post element numbering of one document.

    Parallel per-item columns (document order), each a typed
    ``array.array`` whose typecode :func:`_column_code` sizes to the
    document (bound and candidate typecodes in brackets), so a resident
    index holds no boxed ints and no unused high bytes::

        kinds[i]     [B] ITEM_TEXT | ITEM_LEAF | ITEM_INTERNAL
        starts[i]    [total_size: B/H/I/Q] byte offset of the item
                     header (aligned)
        contents[i]  [total_size: B/H/I/Q] first content byte (after
                     code/bitmap/size)
        sizes[i]     [total_size: B/H/I/Q] content bytes (subtree size
                     internal, text length for leaf/text items); item
                     ends at contents+sizes
        tags[i]      [tag_count: b/h/i/q] global dictionary code of the
                     element (-1 for text)
        descs        one ``bytes``: per item, a ``ceil(tag_count / 8)``
                     byte little-endian descendant-tag bitmap over global
                     codes (internal; 0 otherwise); see :meth:`desc_mask`

    Elements additionally get dense ``pre`` numbers (index into the
    ``elem_*`` arrays, both ``[total_size: b/h/i/q]``, as every item
    takes at least a byte) and their parent's ``pre`` (-1 for the root)
    — derived while building or parsing, never persisted.  The lazy
    per-tag table is two arrays of that typecode: every element's
    ``pre`` number grouped by tag code (document order within a tag),
    and ``tag_count + 1`` bounds, so tag ``c``'s elements are
    ``pres[bounds[c]:bounds[c + 1]]``.  Post order needs no array: the
    byte intervals already give it.

    ``total_size`` / ``root_offset`` / ``tag_count`` fingerprint the
    encoding the index was built from; :meth:`matches_document` is the
    staleness guard the station checks before trusting the index.
    """

    __slots__ = (
        "total_size",
        "root_offset",
        "tag_count",
        "kinds",
        "starts",
        "contents",
        "sizes",
        "tags",
        "descs",
        "elem_items",
        "elem_parent",
        "_by_tag_table",
    )

    def __init__(
        self,
        total_size: int,
        root_offset: int,
        tag_count: int,
        kinds: array,
        starts: array,
        contents: array,
        sizes: array,
        tags: array,
        descs: bytes,
        elem_items: array,
        elem_parent: array,
    ):
        self.total_size = total_size
        self.root_offset = root_offset
        self.tag_count = tag_count
        self.kinds = kinds
        self.starts = starts
        self.contents = contents
        self.sizes = sizes
        self.tags = tags
        self.descs = descs
        self.elem_items = elem_items
        self.elem_parent = elem_parent
        self._by_tag_table: Optional[Tuple[array, array]] = None

    # ------------------------------------------------------------------
    @property
    def item_count(self) -> int:
        return len(self.kinds)

    @property
    def element_count(self) -> int:
        return len(self.elem_items)

    def desc_mask(self, item: int) -> int:
        """Descendant-tag bitmap of ``item`` (0 unless internal)."""
        mask_bytes = (self.tag_count + 7) >> 3
        start = item * mask_bytes
        return int.from_bytes(self.descs[start : start + mask_bytes], "little")

    def elem_span(self, pre: int) -> Tuple[int, int]:
        """Full byte span ``[start, end)`` of element ``pre``'s subtree
        (header included)."""
        item = self.elem_items[pre]
        return self.starts[item], self.contents[item] + self.sizes[item]

    def matches_document(self, encoded: EncodedDocument) -> bool:
        """Staleness guard: does this index describe ``encoded``?

        ``len()`` on a lazily loaded plaintext is metadata-only, so the
        check never forces decryption or a disk read.
        """
        fingerprint = (self.total_size, self.root_offset, self.tag_count)
        return fingerprint == _fingerprint(encoded)

    # ------------------------------------------------------------------
    def _by_tag(self) -> Tuple[array, array]:
        """``(pres, bounds)``: ``pre`` numbers grouped by tag code and
        the ``tag_count + 1`` group bounds (built on first use; one
        attribute store, so concurrent readers see all or nothing)."""
        table = self._by_tag_table
        if table is None:
            tags = self.tags
            codes = [tags[item] for item in self.elem_items]
            # A stable sort keeps document order within each tag.
            number = self.elem_items.typecode
            pres = array(number, sorted(range(len(codes)), key=codes.__getitem__))
            counts = [0] * self.tag_count
            for code in codes:
                counts[code] += 1
            bounds = array(number, [0])
            for count in counts:
                bounds.append(bounds[-1] + count)
            table = self._by_tag_table = (pres, bounds)
        return table

    def match(
        self,
        steps: Sequence[Tuple[str, str]],
        dictionary: TagDictionary,
    ) -> Tuple[int, ...]:
        """Candidate elements (pre numbers) for a wildcard-free path.

        ``steps`` is the :attr:`QueryPlan.structural` tuple of
        ``(axis, tag)`` pairs.  Predicates are ignored, so the result
        is a *superset* of the real matches — which makes the empty
        result exact: ``()`` proves the query selects nothing, however
        its predicates would evaluate.
        """
        candidates: Optional[set] = None
        pres, bounds = self._by_tag()
        for position, (axis, tag) in enumerate(steps):
            if tag not in dictionary:
                return ()
            code = dictionary.code(tag)
            if code >= self.tag_count:
                return ()
            with_tag = pres[bounds[code] : bounds[code + 1]]
            if position == 0:
                if axis == "/":
                    candidates = {
                        pre for pre in with_tag if self.elem_parent[pre] < 0
                    }
                else:
                    candidates = set(with_tag)
            elif axis == "/":
                previous = candidates
                candidates = {
                    pre for pre in with_tag if self.elem_parent[pre] in previous
                }
            else:
                previous = candidates
                matched = set()
                for pre in with_tag:
                    ancestor = self.elem_parent[pre]
                    while ancestor >= 0:
                        if ancestor in previous:
                            matched.add(pre)
                            break
                        ancestor = self.elem_parent[ancestor]
                candidates = matched
            if not candidates:
                return ()
        return tuple(sorted(candidates))

    def planned_chunks(self, candidates: Sequence[int], layout) -> Tuple[int, ...]:
        """Minimal contributing chunk set for ``candidates``.

        Covers each candidate subtree plus the header fields of its
        ancestors (the spine the evaluator walks to reach it) and the
        document header.  Integrity dependencies (MHT sibling digests,
        CBC predecessor blocks) are *not* expanded here — the scheme
        readers pull them on demand — so this is the plaintext-chunk
        floor the ``repro_station_index_planned_chunks_total`` metric reports.
        """
        chunks = set(layout.chunks_covering(0, self.root_offset))
        seen_spine = set()
        for pre in candidates:
            start, end = self.elem_span(pre)
            chunks.update(layout.chunks_covering(start, end - start))
            ancestor = self.elem_parent[pre]
            while ancestor >= 0 and ancestor not in seen_spine:
                seen_spine.add(ancestor)
                item = self.elem_items[ancestor]
                header = self.contents[item] - self.starts[item]
                chunks.update(layout.chunks_covering(self.starts[item], header))
                ancestor = self.elem_parent[ancestor]
        return tuple(sorted(chunks))

    def ranges_only_touch_text(
        self, ranges: Sequence[Tuple[int, int]]
    ) -> bool:
        """True when every ``[start, end)`` range lies wholly inside one
        text payload (text item or leaf-element content).

        This is the non-cascading-edit test: such a change moves no
        structure field, so the index can be reused verbatim when the
        encoded size is unchanged.
        """
        starts = self.starts
        for range_start, range_end in ranges:
            if range_end <= range_start:
                continue
            item = bisect_right(starts, range_start) - 1
            if item < 0:
                return False
            if self.kinds[item] == ITEM_INTERNAL:
                return False
            content = self.contents[item]
            if range_start < content:
                return False
            if range_end > content + self.sizes[item]:
                return False
        return True

    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialize to the persistent blob (format version 2): per item
        a ``head`` varint (0 for text, else ``2 * (tag + 1) + internal``),
        its size and, if internal, its descendant-tag count — nothing the
        encoding's header arithmetic re-derives."""
        out = bytearray(INDEX_MAGIC)
        out.append(INDEX_VERSION)
        fields = [self.total_size, self.root_offset, self.tag_count]
        tags, sizes = self.tags, self.sizes
        for item, kind in enumerate(self.kinds):
            head = 2 * (tags[item] + 1) + kind - ITEM_LEAF if kind else 0
            fields += (head, sizes[item])
            if kind == ITEM_INTERNAL:
                fields.append(self.desc_mask(item).bit_count())
        put_varints(out, fields)
        return bytes(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, StructuralIndex):
            return NotImplemented
        return (
            self.total_size == other.total_size
            and self.root_offset == other.root_offset
            and self.tag_count == other.tag_count
            and self.kinds == other.kinds
            and self.starts == other.starts
            and self.contents == other.contents
            and self.sizes == other.sizes
            and self.tags == other.tags
            and self.descs == other.descs
            and self.elem_items == other.elem_items
            and self.elem_parent == other.elem_parent
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "StructuralIndex(%d items, %d elements, %d bytes)" % (
            self.item_count,
            self.element_count,
            self.total_size,
        )


def parse_structural_index(
    blob: bytes, encoded: Optional[EncodedDocument] = None
) -> StructuralIndex:
    """Parse a blob produced by :meth:`StructuralIndex.to_bytes`.

    One forward pass re-derives what the blob leaves out: each item
    starts where the previous one ends (an internal one: its header),
    header widths follow from the parent's tag count and size, and a
    bitmap is the OR of its children's, checked against the stored
    count when the element closes.  :class:`StructuralIndexError` marks
    items that do not tile the encoding exactly, or a blob describing
    another encoding than ``encoded`` (checked before any item, so the
    real dictionary bounds every derived bitmap).
    """
    blob = bytes(blob)
    if blob[:4] != INDEX_MAGIC:
        raise StructuralIndexError("bad index magic")
    reader = _BlobReader(blob, 4)
    version = reader.varint()  # one byte: versions stay below 0x80
    if version != INDEX_VERSION:
        raise StructuralIndexError("unsupported index version %d" % version)
    total_size = reader.varint()
    root_offset = reader.varint()
    tag_count = reader.varint()
    header = (total_size, root_offset, tag_count)
    if encoded is not None and header != _fingerprint(encoded):
        raise StructuralIndexError("index describes another encoding")
    columns = _sized_columns(total_size, tag_count)
    kinds, starts, contents, sizes, tags, elem_items, elem_parent = columns
    mask_bytes = (tag_count + 7) >> 3
    no_tags = bytes(mask_bytes)
    descs = bytearray()
    # Open elements, innermost last, over a root-level frame: [pre, end,
    # stored tag count, derived bitmap, a child's header bytes by kind].
    stack = [[-1, total_size, 0, 0, _header_bytes(tag_count, ROOT_SIZE_BITS)]]
    offset = root_offset
    try:
        while True:
            head = reader.varint()
            size = reader.varint()
            kind = ITEM_LEAF + (head & 1) if head else ITEM_TEXT
            tag = (head >> 1) - 1
            top = stack[-1]
            if tag >= tag_count or (kind == ITEM_TEXT and len(stack) == 1):
                raise StructuralIndexError("bad item head %d" % head)
            content = offset + top[4][kind]
            if kind != ITEM_INTERNAL:
                content += varint_size(size)
            if content + size > top[1]:
                raise StructuralIndexError("item overruns its parent")
            kinds.append(kind)
            starts.append(offset)
            contents.append(content)
            sizes.append(size)
            tags.append(tag)
            descs += no_tags
            offset = content + size
            if kind != ITEM_TEXT:
                top[3] |= 1 << tag
                elem_parent.append(top[0])
                elem_items.append(len(kinds) - 1)
            if kind == ITEM_INTERNAL:
                count = reader.varint()
                headers = _header_bytes(count, bits_for(size))
                stack.append([len(elem_items) - 1, offset, count, 0, headers])
                offset = content
            while len(stack) > 1 and offset == stack[-1][1]:
                pre, _end, count, mask, _headers = stack.pop()
                if not mask or mask.bit_count() != count:
                    raise StructuralIndexError("descendant tag count mismatch")
                item = elem_items[pre] * mask_bytes
                descs[item : item + mask_bytes] = mask.to_bytes(mask_bytes, "little")
                stack[-1][3] |= mask
            if len(stack) == 1:
                break
    except OverflowError:
        # A field too wide for its typed column: not a blob we wrote.
        raise StructuralIndexError("index field out of range") from None
    if offset != total_size or reader.pos != len(blob):
        raise StructuralIndexError("index does not tile the encoding")
    return StructuralIndex(
        total_size, root_offset, tag_count, kinds, starts, contents, sizes,
        tags, bytes(descs), elem_items, elem_parent,
    )


# ----------------------------------------------------------------------
def build_structural_index(encoded: EncodedDocument) -> StructuralIndex:
    """One forward walk of the (plaintext) encoding → item table.

    Mirrors the decoder's SkipStack exactly, but records offsets instead
    of emitting events.  Each item header is byte-aligned and at most
    ``code | flag | TagArray | SubtreeSize`` wide for its parent, so it
    is read as one integer from that many bytes.  Runs at
    publish/update time over plaintext bytes — never against the
    ciphertext.
    """
    data = encoded.data
    if not isinstance(data, (bytes, bytearray, memoryview)):
        data = bytes(data)
    dictionary = encoded.dictionary
    root_offset = encoded.root_offset

    columns = _sized_columns(len(data), len(dictionary))
    kinds, starts, contents, sizes, tags, elem_items, elem_parent = columns
    mask_bytes = (len(dictionary) + 7) >> 3
    no_tags = bytes(mask_bytes)
    descs = bytearray()

    def frame(desc: Tuple[int, ...], size_width: int, end: int, pre: int):
        # (desc codes, code width, size width, content end, a child's
        # header bytes by kind, the element's pre number)
        code_width = bits_for_count(len(desc) + 1)
        headers = _header_bytes(len(desc), size_width)
        return desc, code_width, size_width, end, headers, pre

    stack: List[tuple] = []
    top = frame(tuple(range(len(dictionary))), ROOT_SIZE_BITS, -1, -1)
    offset = root_offset
    while True:
        while stack and offset >= stack[-1][3]:
            stack.pop()
            top = stack[-1] if stack else top
        if not stack and kinds:
            break
        desc_list, code_width, size_width, _end, headers, parent = top
        start = offset
        window = data[offset : offset + headers[ITEM_INTERNAL]]
        bits = len(window) * 8 - code_width  # window bits after the code
        if bits < 0:
            raise EOFError("bit stream exhausted")
        value = int.from_bytes(window, "big")
        code = value >> bits
        if code == 0:
            length, content = _read_varint(data, offset + headers[ITEM_TEXT])
            kinds.append(ITEM_TEXT)
            starts.append(start)
            contents.append(content)
            sizes.append(length)
            tags.append(-1)
            descs += no_tags
            offset = content + length
            continue
        tag_code = desc_list[code - 1]
        if not bits:
            raise EOFError("bit stream exhausted")
        bits -= 1
        pre = len(elem_items)
        elem_items.append(len(kinds))
        elem_parent.append(parent)
        if (value >> bits) & 1:
            width = len(desc_list)
            pad = bits - width - size_width
            if pad < 0:
                raise EOFError("bit stream exhausted")
            size = (value >> pad) & ((1 << size_width) - 1)
            bitmap = value >> (pad + size_width)
            desc = tuple(
                candidate
                for index, candidate in enumerate(desc_list)
                if bitmap & (1 << (width - 1 - index))
            )
            content = offset + headers[ITEM_INTERNAL]
            mask = 0
            for candidate in desc:
                mask |= 1 << candidate
            kinds.append(ITEM_INTERNAL)
            starts.append(start)
            contents.append(content)
            sizes.append(size)
            tags.append(tag_code)
            descs += mask.to_bytes(mask_bytes, "little")
            top = frame(desc, bits_for(size), content + size, pre)
            stack.append(top)
            offset = content
        else:
            length, content = _read_varint(data, offset + headers[ITEM_LEAF])
            kinds.append(ITEM_LEAF)
            starts.append(start)
            contents.append(content)
            sizes.append(length)
            tags.append(tag_code)
            descs += no_tags
            offset = content + length
    return StructuralIndex(
        len(data), root_offset, len(dictionary), kinds, starts, contents,
        sizes, tags, bytes(descs), elem_items, elem_parent,
    )


# ----------------------------------------------------------------------
class IndexedNavigator(SkipIndexNavigator):
    """Navigator replaying structure from a :class:`StructuralIndex`.

    Serves the *identical* event/meta/skip/capture stream as the
    streaming :class:`SkipIndexNavigator`, but decodes no header bits:
    tags, descendant sets, sizes and item boundaries come from the
    index, so the underlying (lazily decrypting) ``data`` is only read
    for text payloads and captured spans.  With a selective query that
    is the difference between decrypting every chunk a header lands in
    and decrypting only the chunks that contribute to the result.

    Skip operations are inherited unchanged — they only move
    ``_offset``; the item cursor re-synchronizes by bisecting the start
    table on the next decode.
    """

    __slots__ = ("index", "_tag_names", "_item")

    def __init__(
        self,
        data,
        index: StructuralIndex,
        dictionary: TagDictionary,
        meter: Optional[Meter] = None,
        provide_meta: bool = True,
    ):
        SkipIndexNavigator.__init__(
            self, data, dictionary, index.root_offset, meter, provide_meta
        )
        self.index = index
        # Global codes are dense 0..N-1, so the root context's
        # code-ordered desc list doubles as the code → tag table.
        self._tag_names = self._root_context.desc_list
        self._item = 0

    def _desc_names(self, mask: int) -> Tuple[str, ...]:
        # Ascending-code order == the decoder's desc-list order (desc
        # lists are dictionary-code ordered at every level).
        names = self._tag_names
        out = []
        code = 0
        while mask:
            if mask & 1:
                out.append(names[code])
            mask >>= 1
            code += 1
        return tuple(out)

    def next(self):
        if self._done:
            return None
        if self._stack:
            top = self._stack[-1]
            if top.leaf_text is not None:
                length = top.leaf_text
                top.leaf_text = None
                if length:
                    text = bytes(self.data[self._offset : self._offset + length])
                    self._offset += length
                    return (TEXT, text.decode("utf-8"), None)
            if self._offset >= top.end:
                self._stack.pop()
                if not self._stack:
                    self._done = True
                return (CLOSE, top.tag, None)
        index = self.index
        item = self._item
        starts = index.starts
        if item >= len(starts) or starts[item] != self._offset:
            item = bisect_right(starts, self._offset) - 1
            if item < 0 or starts[item] != self._offset:
                raise StructuralIndexError(
                    "index out of sync with document at offset %d"
                    % self._offset
                )
        self._item = item + 1
        kind = index.kinds[item]
        content = index.contents[item]
        size = index.sizes[item]
        if kind == ITEM_TEXT:
            text = bytes(self.data[content : content + size]).decode("utf-8")
            self._offset = content + size
            return (TEXT, text, None)
        tag = self._tag_names[index.tags[item]]
        if kind == ITEM_INTERNAL:
            desc = self._desc_names(index.desc_mask(item))
            self._stack.append(
                _OpenFrame(tag, desc, bits_for(size), content + size)
            )
            self._offset = content
            meta = (
                SubtreeMeta(frozenset(desc), size) if self.provide_meta else None
            )
            return (OPEN, tag, meta)
        self._stack.append(
            _OpenFrame(tag, (), 0, content + size, leaf_text=size)
        )
        self._offset = content
        meta = SubtreeMeta(frozenset(), size) if self.provide_meta else None
        return (OPEN, tag, meta)

"""Structural XPath accelerator: a publish-time pre/post index.

The streaming evaluator pays for every byte it *looks at*: even with
skip-pruning, visiting a sibling's header decrypts the whole chunk the
header lives in, so query cost stays linear in document size.  This
module builds, at publish time (over the plaintext TCSBR encoding), a
flat table of every item in the document — offsets, sizes, tags and
descendant-tag bitmaps — plus the classic ``(pre, post, level)``
numbering over elements.

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

from bisect import bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

from repro.accesscontrol.navigation import SubtreeMeta
from repro.metrics import Meter
from repro.skipindex.bitio import BitReader, bits_for, bits_for_count
from repro.skipindex.decoder import SkipIndexNavigator, _OpenFrame
from repro.skipindex.encoder import ROOT_SIZE_BITS, EncodedDocument
from repro.xmlkit.dictionary import TagDictionary
from repro.xmlkit.events import CLOSE, OPEN, TEXT

#: Blob magic + version ("X Structural IndeX").
INDEX_MAGIC = b"XSIX"
INDEX_VERSION = 1

#: Item kinds in the flat table (document order, strictly increasing
#: start offsets).
ITEM_TEXT = 0
ITEM_LEAF = 1
ITEM_INTERNAL = 2


class StructuralIndexError(ValueError):
    """Raised on malformed or inconsistent index blobs."""


def _write_varint(out: bytearray, value: int) -> None:
    if value < 0:
        raise ValueError("varint must be non-negative")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


class _BlobReader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes, pos: int = 0):
        self.data = data
        self.pos = pos

    def varint(self) -> int:
        value = 0
        shift = 0
        data = self.data
        pos = self.pos
        while True:
            if pos >= len(data):
                raise StructuralIndexError("truncated index blob")
            byte = data[pos]
            pos += 1
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                self.pos = pos
                return value
            shift += 7

    def byte(self) -> int:
        if self.pos >= len(self.data):
            raise StructuralIndexError("truncated index blob")
        value = self.data[self.pos]
        self.pos += 1
        return value


class StructuralIndex:
    """Flat item table + pre/post element numbering of one document.

    Parallel per-item arrays (document order)::

        kinds[i]     ITEM_TEXT | ITEM_LEAF | ITEM_INTERNAL
        starts[i]    byte offset of the item header (aligned)
        contents[i]  first content byte (after code/bitmap/size fields)
        sizes[i]     content bytes (subtree size internal, text length
                     for leaf/text items); item ends at contents+sizes
        tags[i]      global dictionary code of the element (-1 for text)
        descs[i]     descendant-tag bitmap over global codes (internal)

    Elements additionally get dense ``pre`` numbers (index into the
    ``elem_*`` arrays), ``post`` numbers (close order) and ``level``
    (root = 0) — derived from the byte intervals, never persisted.

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
        "elem_level",
        "elem_post",
        "_elems_by_tag",
    )

    def __init__(
        self,
        total_size: int,
        root_offset: int,
        tag_count: int,
        kinds: List[int],
        starts: List[int],
        contents: List[int],
        sizes: List[int],
        tags: List[int],
        descs: List[int],
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
        self._elems_by_tag: Optional[Dict[int, List[int]]] = None
        self._derive_elements()

    # ------------------------------------------------------------------
    def _derive_elements(self) -> None:
        """Replay the item table once to assign pre/post/level/parent."""
        elem_items: List[int] = []
        elem_parent: List[int] = []
        elem_level: List[int] = []
        elem_post: List[int] = []
        open_stack: List[Tuple[int, int]] = []  # (pre, end)
        post = 0
        for item, kind in enumerate(self.kinds):
            start = self.starts[item]
            while open_stack and start >= open_stack[-1][1]:
                elem_post[open_stack.pop()[0]] = post
                post += 1
            if kind == ITEM_TEXT:
                continue
            pre = len(elem_items)
            elem_items.append(item)
            elem_parent.append(open_stack[-1][0] if open_stack else -1)
            elem_level.append(len(open_stack))
            elem_post.append(-1)
            open_stack.append((pre, self.contents[item] + self.sizes[item]))
        while open_stack:
            elem_post[open_stack.pop()[0]] = post
            post += 1
        self.elem_items = elem_items
        self.elem_parent = elem_parent
        self.elem_level = elem_level
        self.elem_post = elem_post

    # ------------------------------------------------------------------
    @property
    def item_count(self) -> int:
        return len(self.kinds)

    @property
    def element_count(self) -> int:
        return len(self.elem_items)

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
        return (
            self.total_size == len(encoded.data)
            and self.root_offset == encoded.root_offset
            and self.tag_count == len(encoded.dictionary)
        )

    # ------------------------------------------------------------------
    def _by_tag(self) -> Dict[int, List[int]]:
        table = self._elems_by_tag
        if table is None:
            table = {}
            for pre, item in enumerate(self.elem_items):
                table.setdefault(self.tags[item], []).append(pre)
            self._elems_by_tag = table
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
        by_tag = self._by_tag()
        for position, (axis, tag) in enumerate(steps):
            if tag not in dictionary:
                return ()
            code = dictionary.code(tag)
            with_tag = by_tag.get(code, ())
            if position == 0:
                if axis == "/":
                    candidates = {
                        pre for pre in with_tag if self.elem_level[pre] == 0
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
        floor the ``repro_station_index_planned_chunks`` metric reports.
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
        """Serialize to the compact persistent blob."""
        out = bytearray()
        out += INDEX_MAGIC
        out.append(INDEX_VERSION)
        _write_varint(out, self.total_size)
        _write_varint(out, self.root_offset)
        _write_varint(out, self.tag_count)
        _write_varint(out, len(self.kinds))
        previous_start = 0
        for item, kind in enumerate(self.kinds):
            start = self.starts[item]
            out.append(kind)
            _write_varint(out, start - previous_start)
            _write_varint(out, self.contents[item] - start)
            _write_varint(out, self.sizes[item])
            if kind != ITEM_TEXT:
                _write_varint(out, self.tags[item])
            if kind == ITEM_INTERNAL:
                _write_varint(out, self.descs[item])
            previous_start = start
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
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "StructuralIndex(%d items, %d elements, %d bytes)" % (
            self.item_count,
            self.element_count,
            self.total_size,
        )


def parse_structural_index(blob: bytes) -> StructuralIndex:
    """Parse a blob produced by :meth:`StructuralIndex.to_bytes`."""
    blob = bytes(blob)
    if blob[:4] != INDEX_MAGIC:
        raise StructuralIndexError("bad index magic")
    reader = _BlobReader(blob, 4)
    version = reader.byte()
    if version != INDEX_VERSION:
        raise StructuralIndexError("unsupported index version %d" % version)
    total_size = reader.varint()
    root_offset = reader.varint()
    tag_count = reader.varint()
    count = reader.varint()
    kinds: List[int] = []
    starts: List[int] = []
    contents: List[int] = []
    sizes: List[int] = []
    tags: List[int] = []
    descs: List[int] = []
    previous_start = 0
    for _ in range(count):
        kind = reader.byte()
        if kind not in (ITEM_TEXT, ITEM_LEAF, ITEM_INTERNAL):
            raise StructuralIndexError("bad item kind %d" % kind)
        start = previous_start + reader.varint()
        header = reader.varint()
        size = reader.varint()
        tag = reader.varint() if kind != ITEM_TEXT else -1
        desc = reader.varint() if kind == ITEM_INTERNAL else 0
        kinds.append(kind)
        starts.append(start)
        contents.append(start + header)
        sizes.append(size)
        tags.append(tag)
        descs.append(desc)
        previous_start = start
    return StructuralIndex(
        total_size, root_offset, tag_count, kinds, starts, contents, sizes,
        tags, descs,
    )


# ----------------------------------------------------------------------
def build_structural_index(encoded: EncodedDocument) -> StructuralIndex:
    """One forward walk of the (plaintext) encoding → item table.

    Mirrors the decoder's SkipStack exactly, but records offsets instead
    of emitting events.  Runs at publish/update time over plaintext
    bytes — never against the ciphertext.
    """
    data = encoded.data
    if not isinstance(data, (bytes, bytearray, memoryview)):
        data = bytes(data)
    dictionary = encoded.dictionary
    root_offset = encoded.root_offset
    root_desc = tuple(range(len(dictionary)))

    kinds: List[int] = []
    starts: List[int] = []
    contents: List[int] = []
    sizes: List[int] = []
    tags: List[int] = []
    descs: List[int] = []

    # Frames: (desc codes, code width, size width, content end).
    stack: List[Tuple[Tuple[int, ...], int, int, int]] = []
    root_frame = (
        root_desc,
        bits_for_count(len(root_desc) + 1),
        ROOT_SIZE_BITS,
        -1,
    )
    offset = root_offset
    while True:
        while stack and offset >= stack[-1][3]:
            stack.pop()
        if not stack and kinds:
            break
        desc_list, code_width, size_width, _end = (
            stack[-1] if stack else root_frame
        )
        start = offset
        reader = BitReader(data, offset)
        code = reader.read_bits(code_width)
        if code == 0:
            length = reader.read_varint()
            content = reader.tell()
            kinds.append(ITEM_TEXT)
            starts.append(start)
            contents.append(content)
            sizes.append(length)
            tags.append(-1)
            descs.append(0)
            offset = content + length
            continue
        tag_code = desc_list[code - 1]
        internal = reader.read_bit()
        if internal:
            width = len(desc_list)
            bitmap = reader.read_bits(width)
            desc = tuple(
                candidate
                for index, candidate in enumerate(desc_list)
                if bitmap & (1 << (width - 1 - index))
            )
            size = reader.read_bits(size_width)
            reader.align()
            content = reader.tell()
            mask = 0
            for candidate in desc:
                mask |= 1 << candidate
            kinds.append(ITEM_INTERNAL)
            starts.append(start)
            contents.append(content)
            sizes.append(size)
            tags.append(tag_code)
            descs.append(mask)
            stack.append(
                (desc, bits_for_count(len(desc) + 1), bits_for(size),
                 content + size)
            )
            offset = content
        else:
            length = reader.read_varint()
            content = reader.tell()
            kinds.append(ITEM_LEAF)
            starts.append(start)
            contents.append(content)
            sizes.append(length)
            tags.append(tag_code)
            descs.append(0)
            offset = content + length
    return StructuralIndex(
        len(data), root_offset, len(dictionary), kinds, starts, contents,
        sizes, tags, descs,
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
            desc = self._desc_names(index.descs[item])
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

"""Document updates under the Skip index (Section 4.1, "Updating the
document").

The paper analyses the cost of updating an indexed document:

    "In the worst case, updating an element induces an update of the
    SubtreeSize, the TagArray and the encoded tag of each of e's
    ancestors and of their direct children.  In the best case, only the
    SubtreeSize of e's ancestors need be updated.  The worst case
    occurs in two rather infrequent situations: [a size] jumps a power
    of 2 [or] the update generates an insertion or deletion in the tag
    dictionary."

This module applies edits to a document, re-encodes it, and *measures*
exactly that impact: which byte ranges of the encoding changed, how
many chunks must be re-encrypted, and whether the edit fell in the
paper's best or worst case (dictionary growth / size-field width jump).

Edits address elements by *index path*: a list of element-child
indexes from the root (``[]`` is the root itself, ``[0, 2]`` the third
element child of the first element child).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.crypto.chunks import ChunkLayout
from repro.skipindex.bitio import bits_for
from repro.skipindex.encoder import EncodedDocument, encode_document
from repro.xmlkit.dictionary import TagDictionary
from repro.xmlkit.dom import Node

IndexPath = Sequence[int]


class UpdateImpact:
    """What an edit costs at the terminal and in the SOE."""

    def __init__(
        self,
        old_size: int,
        new_size: int,
        changed_bytes: int,
        changed_ranges: List[Tuple[int, int]],
        chunks_to_reencrypt: int,
        dictionary_grew: bool,
        size_width_jumped: bool,
    ):
        self.old_size = old_size
        self.new_size = new_size
        self.changed_bytes = changed_bytes
        self.changed_ranges = changed_ranges
        self.chunks_to_reencrypt = chunks_to_reencrypt
        self.dictionary_grew = dictionary_grew
        self.size_width_jumped = size_width_jumped

    @property
    def is_worst_case(self) -> bool:
        """The paper's two "rather infrequent situations"."""
        return self.dictionary_grew or self.size_width_jumped

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            "UpdateImpact(%d->%d bytes, %d changed, %d chunks, %s case)"
            % (
                self.old_size,
                self.new_size,
                self.changed_bytes,
                self.chunks_to_reencrypt,
                "worst" if self.is_worst_case else "best",
            )
        )


class UpdateError(ValueError):
    """Raised for invalid index paths or operations."""


def _clone(node: Node) -> Node:
    copy = Node(node.tag)
    for child in node.children:
        copy.children.append(child if isinstance(child, str) else _clone(child))
    return copy


def _resolve(root: Node, path: IndexPath) -> Node:
    current = root
    for index in path:
        children = [c for c in current.children if isinstance(c, Node)]
        if index < 0 or index >= len(children):
            raise UpdateError("index path %r leaves the tree" % (list(path),))
        current = children[index]
    return current


def _resolve_parent(root: Node, path: IndexPath) -> Tuple[Node, Node]:
    if not path:
        raise UpdateError("the root element cannot be the edit target here")
    parent = _resolve(root, path[:-1])
    child = _resolve(root, path)
    return parent, child


# ----------------------------------------------------------------------
# Edit operations (pure: return a new tree)
# ----------------------------------------------------------------------
def insert_element(root: Node, parent_path: IndexPath, new_child: Node,
                   position: Optional[int] = None) -> Node:
    """Insert ``new_child`` under the element at ``parent_path``."""
    updated = _clone(root)
    parent = _resolve(updated, parent_path)
    if position is None:
        parent.children.append(_clone(new_child))
    else:
        # Position counts element children, mapped onto the mixed list.
        element_seen = 0
        insert_at = len(parent.children)
        for list_index, child in enumerate(parent.children):
            if isinstance(child, Node):
                if element_seen == position:
                    insert_at = list_index
                    break
                element_seen += 1
        parent.children.insert(insert_at, _clone(new_child))
    return updated


def delete_element(root: Node, path: IndexPath) -> Node:
    """Delete the element at ``path``."""
    updated = _clone(root)
    parent, child = _resolve_parent(updated, path)
    parent.children.remove(child)
    return updated


def update_text(root: Node, path: IndexPath, new_text: str) -> Node:
    """Replace the direct text content of the element at ``path``."""
    updated = _clone(root)
    target = _resolve(updated, path)
    target.children = [
        c for c in target.children if not isinstance(c, str)
    ]
    target.children.insert(0, new_text)
    return updated


def rename_element(root: Node, path: IndexPath, new_tag: str) -> Node:
    """Rename the element at ``path`` (may grow the tag dictionary —
    the paper's worst case)."""
    updated = _clone(root)
    target = _resolve(updated, path)
    target.tag = new_tag
    return updated


# ----------------------------------------------------------------------
# Serializable edit operations (the live update path's unit of work)
# ----------------------------------------------------------------------
class UpdateOp:
    """One edit, as data: applicable to a tree and wire-serializable.

    The pure edit functions above are the semantics; an ``UpdateOp``
    names one of them plus its arguments so the same edit can travel
    through :meth:`SecureStation.update`, the server's UPDATE frame
    and the ``repro update`` CLI.  ``insert_element`` payloads travel
    as XML text (``xml``); a :class:`~repro.xmlkit.dom.Node` passed
    programmatically is serialized on demand.
    """

    KINDS = ("insert_element", "delete_element", "update_text", "rename_element")

    __slots__ = ("kind", "path", "text", "tag", "node", "position")

    def __init__(
        self,
        kind: str,
        path: IndexPath,
        text: Optional[str] = None,
        tag: Optional[str] = None,
        node: Optional[Node] = None,
        position: Optional[int] = None,
    ):
        if kind not in self.KINDS:
            raise UpdateError(
                "unknown update kind %r (expected one of %s)" % (kind, self.KINDS)
            )
        self.kind = kind
        self.path = list(path)
        self.text = text
        self.tag = tag
        self.node = node
        self.position = position
        if kind == "insert_element" and node is None:
            raise UpdateError("insert_element needs the new element")
        if kind == "update_text" and text is None:
            raise UpdateError("update_text needs the replacement text")
        if kind == "rename_element" and not tag:
            raise UpdateError("rename_element needs the new tag")

    # -- constructors ---------------------------------------------------
    @classmethod
    def insert(
        cls, path: IndexPath, node: Node, position: Optional[int] = None
    ) -> "UpdateOp":
        return cls("insert_element", path, node=node, position=position)

    @classmethod
    def delete(cls, path: IndexPath) -> "UpdateOp":
        return cls("delete_element", path)

    @classmethod
    def set_text(cls, path: IndexPath, text: str) -> "UpdateOp":
        return cls("update_text", path, text=text)

    @classmethod
    def rename(cls, path: IndexPath, tag: str) -> "UpdateOp":
        return cls("rename_element", path, tag=tag)

    # -- application ----------------------------------------------------
    def apply(self, root: Node) -> Node:
        """The edited tree (the input tree is never mutated)."""
        if self.kind == "insert_element":
            return insert_element(root, self.path, self.node, position=self.position)
        if self.kind == "delete_element":
            return delete_element(root, self.path)
        if self.kind == "update_text":
            return update_text(root, self.path, self.text)
        return rename_element(root, self.path, self.tag)

    # -- wire form ------------------------------------------------------
    def as_dict(self) -> dict:
        body: dict = {"kind": self.kind, "path": list(self.path)}
        if self.text is not None:
            body["text"] = self.text
        if self.tag is not None:
            body["tag"] = self.tag
        if self.position is not None:
            body["position"] = self.position
        if self.node is not None:
            from repro.xmlkit.serializer import serialize

            body["xml"] = serialize(self.node)
        return body

    @classmethod
    def from_dict(cls, body: dict) -> "UpdateOp":
        if not isinstance(body, dict):
            raise UpdateError("update op must be an object, got %r" % type(body))
        kind = body.get("kind")
        path = body.get("path", [])
        if not isinstance(path, (list, tuple)) or not all(
            isinstance(index, int) for index in path
        ):
            raise UpdateError("update path must be a list of integers")
        node = None
        if body.get("xml") is not None:
            from repro.xmlkit.parser import parse_document

            try:
                node = parse_document(body["xml"])
            except Exception as exc:
                raise UpdateError("bad xml payload: %s" % exc)
        position = body.get("position")
        if position is not None and not isinstance(position, int):
            raise UpdateError("position must be an integer")
        return cls(
            kind,
            path,
            text=body.get("text"),
            tag=body.get("tag"),
            node=node,
            position=position,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "UpdateOp(%s at %s)" % (self.kind, self.path)


# ----------------------------------------------------------------------
# Impact measurement
# ----------------------------------------------------------------------
def _diff_ranges(old: bytes, new: bytes) -> List[Tuple[int, int]]:
    """Maximal differing byte ranges between two encodings.

    A pure length change counts the whole tail from the divergence
    point (everything after an insertion shifts)."""
    limit = min(len(old), len(new))
    ranges: List[Tuple[int, int]] = []
    start: Optional[int] = None
    for index in range(limit):
        if old[index] != new[index]:
            if start is None:
                start = index
        elif start is not None:
            ranges.append((start, index))
            start = None
    if start is not None:
        ranges.append((start, limit))
    if len(old) != len(new):
        tail_start = ranges[-1][0] if ranges and ranges[-1][1] == limit else limit
        if ranges and ranges[-1][1] == limit:
            ranges[-1] = (tail_start, max(len(old), len(new)))
        else:
            ranges.append((limit, max(len(old), len(new))))
    return ranges


def reencode_after(
    old_encoded: EncodedDocument, new_tree: Node
) -> Tuple[EncodedDocument, bool]:
    """Re-encode ``new_tree`` reusing (and possibly extending) the old
    encoding's tag dictionary, so unchanged tags keep their codes — the
    realistic in-place update discipline.  Returns ``(new encoding,
    dictionary grew)``.
    """
    dictionary = TagDictionary(old_encoded.dictionary.tags())
    old_tag_count = len(dictionary)
    for node in new_tree.descendants():
        dictionary.add(node.tag)
    new_encoded = encode_document(new_tree, dictionary)
    return new_encoded, len(dictionary) > old_tag_count


def impact_between(
    old_encoded: EncodedDocument,
    new_encoded: EncodedDocument,
    old_tree: Node,
    new_tree: Node,
    layout: Optional[ChunkLayout] = None,
    dictionary_grew: Optional[bool] = None,
) -> UpdateImpact:
    """The paper's update impact between two encodings of one document.

    Diffing the *actual* old encoding (rather than a re-encode of the
    old tree) is what the live update path needs: the dirty chunk set
    must be exact with respect to the bytes the terminal really stores.
    """
    layout = layout if layout is not None else ChunkLayout()
    if dictionary_grew is None:
        dictionary_grew = len(new_encoded.dictionary) > len(old_encoded.dictionary)
    ranges = _diff_ranges(old_encoded.data, new_encoded.data)
    changed = sum(end - start for start, end in ranges)
    chunk_set = set()
    for start, end in ranges:
        for chunk in layout.chunks_covering(start, end - start):
            chunk_set.add(chunk)
    return UpdateImpact(
        old_size=len(old_encoded.data),
        new_size=len(new_encoded.data),
        changed_bytes=changed,
        changed_ranges=ranges,
        chunks_to_reencrypt=len(chunk_set),
        dictionary_grew=dictionary_grew,
        size_width_jumped=_size_width_jumped(old_tree, new_tree),
    )


def _size_width_jumped(old_tree: Node, new_tree: Node) -> bool:
    """Did some element's content size cross a power of two?

    The paper: "The SubtreeSize of e's ancestor's children have to be
    updated if the size of e's father grows (resp. shrinks) and jumps a
    power of 2."  We approximate on element counts per subtree position
    (cheap and monotone with encoded sizes).
    """
    old_sizes = _subtree_sizes(old_tree)
    new_sizes = _subtree_sizes(new_tree)
    for key, old_size in old_sizes.items():
        new_size = new_sizes.get(key)
        if new_size is None or new_size == old_size:
            continue
        if bits_for(new_size) != bits_for(old_size):
            return True
    return False


def _subtree_sizes(tree: Node) -> dict:
    sizes = {}

    def visit(node: Node, key: Tuple[int, ...]) -> int:
        total = len(node.tag)
        for child in node.children:
            if isinstance(child, str):
                total += len(child)
        for index, child in enumerate(
            c for c in node.children if isinstance(c, Node)
        ):
            total += visit(child, key + (index,))
        sizes[key] = total
        return total

    visit(tree, ())
    return sizes


def refresh_structural_index(
    old_index,
    new_encoded: EncodedDocument,
    impact: UpdateImpact,
):
    """Maintain the structural index across one committed update.

    Returns ``(index, mode)`` with ``mode`` one of ``"incremental"``
    (the old index is reused verbatim) or ``"rebuild"`` (a fresh
    crypto-free walk of the new plaintext encoding).

    The incremental case is exactly the non-cascading edit: the encoded
    size is unchanged and every changed byte range lies wholly inside a
    text payload, so no tag code, TagArray bitmap, SubtreeSize field or
    item boundary moved — the old item table still describes the new
    bytes.  Anything else rebuilds: a size change dirties ancestor
    SubtreeSize fields up to the root (and ``_diff_ranges`` charges the
    whole shifted tail), and the paper's worst cases (dictionary growth,
    size-width jump) re-encode wholesale.
    """
    from repro.skipindex.structural import build_structural_index

    if (
        old_index is not None
        and not impact.is_worst_case
        and impact.new_size == impact.old_size
        and old_index.total_size == impact.old_size
        and old_index.ranges_only_touch_text(impact.changed_ranges)
    ):
        return old_index, "incremental"
    return build_structural_index(new_encoded), "rebuild"

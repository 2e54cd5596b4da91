"""The chunk-store contract and its in-memory reference implementation.

A :class:`ChunkStore` owns the station's published documents: the
mapping ``document_id -> (PreparedDocument, document key, version)``
and nothing else (grants, plans and view caches stay in the station —
they are derived state, rebuilt from policies on restart).  The
interface is deliberately small; everything the engine, server,
cluster and CLI layers need goes through it:

``put``
    Register (or re-publish) a document at a version.  Returns the
    :class:`~repro.soe.session.PreparedDocument` the station must serve
    from — a disk-backed store hands back a handle whose chunk records
    are read lazily through its page cache, an in-memory store returns
    the object unchanged.
``apply_update``
    Commit the copy-on-write result of one
    :meth:`SecureStation.update`: the new snapshot plus which chunks
    were re-encrypted, so an append-only store writes only the dirty
    records.
``get``
    One atomic read of ``(prepared, key, version)`` — the snapshot a
    request evaluates and the version it reports must come from the
    same read.
"""

from __future__ import annotations

import threading
from types import MappingProxyType
from typing import Dict, Iterator, List, Mapping, Optional, Set, Tuple

from repro.soe.session import PreparedDocument


class StoreError(RuntimeError):
    """Store misuse or an unrecoverable storage fault."""


class StoredDocument:
    """One store entry: the served snapshot plus its trusted metadata."""

    __slots__ = ("prepared", "key", "version")

    def __init__(self, prepared: PreparedDocument, key: bytes, version: int):
        self.prepared = prepared
        self.key = key
        self.version = version

    def as_tuple(self) -> Tuple[PreparedDocument, bytes, int]:
        return self.prepared, self.key, self.version

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "StoredDocument(v%d, %s)" % (self.version, self.prepared)


class ChunkStore:
    """Abstract document store behind :class:`SecureStation`."""

    kind = "abstract"
    #: Does the corpus survive process death?
    persistent = False
    #: Monotonic operation counts (page hits, commits, ...), exported
    #: whole as ``repro_store_*_total``; the memory store keeps none.
    counters: Mapping[str, int] = MappingProxyType({})

    # -- document lifecycle --------------------------------------------
    def put(
        self,
        document_id: str,
        prepared: PreparedDocument,
        key: bytes,
        version: int,
    ) -> PreparedDocument:
        raise NotImplementedError

    def put_stream(
        self,
        document_id: str,
        encoded,
        scheme,
        key: bytes,
        version: int,
        index=None,
    ) -> PreparedDocument:
        """Publish straight from the scheme's record generator.

        The default materializes (``scheme.protect``) and delegates to
        :meth:`put`; a disk store overrides it to stream chunk records
        into its log without ever holding the whole ciphertext.
        ``index`` is the document's optional structural index; stores
        persist it alongside the chunks.
        """
        from repro.soe.session import PreparedDocument as _Prepared

        secure = scheme.protect(encoded.data, version=version)
        return self.put(
            document_id,
            _Prepared(encoded, scheme, secure, index=index),
            key,
            version,
        )

    def apply_update(
        self,
        document_id: str,
        prepared: PreparedDocument,
        version: int,
        dirty_chunks: Optional[Set[int]] = None,
    ) -> PreparedDocument:
        raise NotImplementedError

    def get(self, document_id: str) -> Optional[StoredDocument]:
        raise NotImplementedError

    # -- catalogue ------------------------------------------------------
    def __contains__(self, document_id: str) -> bool:
        raise NotImplementedError

    def ids(self) -> List[str]:
        raise NotImplementedError

    def __iter__(self) -> Iterator[str]:
        return iter(self.ids())

    def __len__(self) -> int:
        return len(self.ids())

    def versions(self) -> Dict[str, int]:
        raise NotImplementedError

    def version(self, document_id: str) -> Optional[int]:
        entry = self.get(document_id)
        return None if entry is None else entry.version

    # -- lifecycle ------------------------------------------------------
    def flush(self) -> None:
        """Make every committed mutation durable (no-op in memory)."""

    def close(self) -> None:
        """Release file handles / maps.  Must be idempotent."""

    @property
    def closed(self) -> bool:
        return False

    def describe(self) -> Dict[str, object]:
        """Operational snapshot for STATS; its numeric fields that are
        not :attr:`counters` are the ``repro_store_*`` gauges."""
        return {"kind": self.kind, "persistent": self.persistent}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "%s(%d documents)" % (type(self).__name__, len(self))


class MemoryStore(ChunkStore):
    """The seed behaviour as a store: a guarded in-process dict.

    ``put`` detaches documents whose stored bytes live in *another*
    store's log (a cluster repair copying a replica hands the target a
    pager-backed :class:`PreparedDocument`): a memory replica must
    never alias a file mapping it does not own, so the bytes are
    materialized into a plain in-memory document.  Ordinary publishes
    pass through untouched — byte- and object-identical to the
    pre-store station.
    """

    kind = "memory"
    persistent = False

    def __init__(self):
        self._documents: Dict[str, StoredDocument] = {}
        self._lock = threading.Lock()
        self._closed = False

    def put(
        self,
        document_id: str,
        prepared: PreparedDocument,
        key: bytes,
        version: int,
    ) -> PreparedDocument:
        if self._closed:
            raise StoreError("store is closed")
        prepared = _detach(prepared)
        with self._lock:
            if self._closed:
                raise StoreError("store is closed")
            self._documents[document_id] = StoredDocument(prepared, key, version)
        return prepared

    def apply_update(
        self,
        document_id: str,
        prepared: PreparedDocument,
        version: int,
        dirty_chunks: Optional[Set[int]] = None,
    ) -> PreparedDocument:
        with self._lock:
            if self._closed:
                raise StoreError("store is closed")
            entry = self._documents.get(document_id)
            if entry is None:
                raise StoreError("unknown document %r" % document_id)
            self._documents[document_id] = StoredDocument(
                prepared, entry.key, version
            )
        return prepared

    def get(self, document_id: str) -> Optional[StoredDocument]:
        with self._lock:
            return self._documents.get(document_id)

    def __contains__(self, document_id: str) -> bool:
        with self._lock:
            return document_id in self._documents

    def ids(self) -> List[str]:
        with self._lock:
            return list(self._documents)

    def versions(self) -> Dict[str, int]:
        with self._lock:
            return {
                document_id: entry.version
                for document_id, entry in self._documents.items()
            }

    def close(self) -> None:
        with self._lock:
            self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def describe(self) -> Dict[str, object]:
        with self._lock:
            documents = len(self._documents)
            stored = sum(
                entry.prepared.secure.stored_size()
                for entry in self._documents.values()
            )
        return {
            "kind": self.kind,
            "persistent": self.persistent,
            "documents": documents,
            "stored_bytes": stored,
        }


def _detach(prepared: PreparedDocument) -> PreparedDocument:
    """Materialize a pager-backed document into plain process memory."""
    from repro.crypto.integrity import SecureDocument

    stored = prepared.secure.stored
    if isinstance(stored, (bytes, bytearray, memoryview)):
        return prepared
    secure = SecureDocument(
        prepared.secure.scheme,
        bytes(stored),
        prepared.secure.plaintext_size,
        version=prepared.secure.version,
        chunk_versions=list(prepared.secure.chunk_versions),
    )
    encoded = prepared.encoded
    data = encoded.data
    if not isinstance(data, (bytes, bytearray, memoryview)):
        from repro.skipindex.encoder import EncodedDocument

        encoded = EncodedDocument(
            bytes(data), encoded.dictionary, encoded.stats, encoded.root_offset
        )
    return PreparedDocument(
        encoded, prepared.secure.scheme, secure, index=prepared.index
    )

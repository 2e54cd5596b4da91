"""Persistent document lifecycle: the station's chunk store layer.

The paper's trusted-station model assumes the encrypted corpus
outlives any single session; until this layer existed every published
document lived in ``SecureStation``'s process memory, so a restart
lost the corpus and cluster "repair" meant a full re-publish from the
caller.  :class:`ChunkStore` is the seam the whole document lifecycle
now flows through:

* :class:`MemoryStore` — the historical behaviour, verbatim: documents
  are plain in-process objects, nothing touches disk.  The default, so
  every existing caller is byte- and perf-identical.
* :class:`LogStore` — a disk-backed store: an append-only encrypted
  chunk log plus an fsync'd version manifest, ``pread`` reads behind
  an LRU page cache with a configurable byte budget, streaming publish
  for documents larger than RAM, and crash recovery that truncates a
  torn tail record and replays the version chain so a restarted
  station serves byte-identical views at the pre-crash version.

``open_store(None)`` keeps the in-memory default; ``open_store(path)``
opens (or creates) a directory-backed :class:`LogStore`.
"""

from repro.store.base import ChunkStore, MemoryStore, StoreError, StoredDocument
from repro.store.log import LogStore

__all__ = [
    "ChunkStore",
    "MemoryStore",
    "LogStore",
    "StoreError",
    "StoredDocument",
    "open_store",
]


def open_store(
    path=None,
    cache_bytes=None,
    sync="commit",
):
    """Factory behind every ``--store`` flag.

    ``path`` ``None`` -> :class:`MemoryStore`; a directory path (created
    if missing) -> :class:`LogStore` with ``cache_bytes`` of page cache
    (default 64 MiB) and the given ``sync`` policy.
    """
    if path is None:
        return MemoryStore()
    kwargs = {"sync": sync}
    if cache_bytes is not None:
        kwargs["cache_bytes"] = cache_bytes
    return LogStore(path, **kwargs)

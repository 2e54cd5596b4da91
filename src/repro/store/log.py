"""Disk-backed chunk store: append-only log + fsync'd version manifest.

Layout of a store directory (one generation live at a time)::

    CURRENT            -> "<generation>\\n", swapped atomically by compact
    LOCK               -> flock'd for the life of the owning process
    chunks-<gen>.log   -> the encrypted chunk log (untrusted-terminal bytes)
    manifest-<gen>.log -> the version manifest (trusted SOE metadata)

**Chunk log.** A sequence of *segment records*, each holding up to
``SEGMENT_BYTES`` of consecutive chunk records for one document at one
version::

    MAGIC(4) | body_len(u32) | crc32(body)(u32) | body
    body = id_len(u16) | document id | version(u64) | first_record(u32)
           | chunk record bytes...

The log is strictly append-only: an update appends only the dirtied
chunk records; superseded records stay where they are (dead weight
until :meth:`LogStore.compact`), which is what makes the old snapshot's
pager valid for in-flight readers — copy-on-write across the disk
boundary.

**Manifest.** One fsync'd JSON line per committed document version
(``crc32`` prefix, newline terminated), carrying everything trusted
that the paper ships over the secure channel: the document key, the
tag dictionary, the root offset, the update version and per-chunk
versions, plus the run map ``chunk record index -> log offset``.  A
commit orders ``append chunk records -> flush/fsync log -> append
manifest line -> fsync manifest``, so a manifest entry never references
bytes that did not hit the log first.

**Recovery state machine** (at :meth:`open`): replay manifest lines
until the first torn/corrupt line and truncate the manifest there;
take the committed log tail from the last good entry; walk any log
bytes past it (complete records are orphans of an interrupted commit,
an incomplete one is the torn tail) and truncate the log back to the
committed tail; validate each document's entries form a strictly
increasing version chain (a rollback raises
:class:`~repro.crypto.integrity.IntegrityError` — trusted metadata
must never move backwards); keep the newest valid entry per document.
A restarted station therefore serves byte-identical views at exactly
the pre-crash committed version.

**Reads.** Chunk reads go through an LRU *page cache* of verified
segment payloads bounded by ``cache_bytes``.  A miss reads the whole
segment with one ``pread`` and CRC-checks it on its first read (disk
corruption surfaces here, before the crypto layer's MAC check); a hit
is a dictionary lookup — the cache-hit-vs-cold ratio the store
benchmark guards.  A commit drops the cached pages of the document's
segments that its new run map no longer references, so the cache
holds live data only.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib
from bisect import bisect_right
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.crypto.chunks import ChunkLayout
from repro.crypto.integrity import (
    SCHEMES,
    IntegrityError,
    SecureDocument,
    make_scheme,
    storage_spec,
)
from repro.metrics import Meter
from repro.skipindex.encoder import EncodedDocument, EncodingStats
from repro.skipindex.structural import (
    StructuralIndexError,
    parse_structural_index,
)
from repro.soe.session import PreparedDocument
from repro.store.base import ChunkStore, StoreError, StoredDocument
from repro.xmlkit.dictionary import TagDictionary

MAGIC = b"RPCL"
_HEADER = struct.Struct(">4sII")  # magic, body length, crc32(body)
#: ``first_record`` sentinel marking a segment that carries a document's
#: structural-index blob instead of chunk records.  Readers never
#: interpret it — the manifest's ``ix`` span points straight at the
#: payload — but the sentinel keeps log dumps self-describing.
INDEX_RECORD = 0xFFFFFFFF
#: Cap on one segment record's chunk-record payload; a large publish is
#: split into many segments, which bounds both the page-cache entry
#: size and the streaming-publish write buffer.
SEGMENT_BYTES = 256 * 1024
DEFAULT_CACHE_BYTES = 64 * 1024 * 1024

_SYNC_MODES = ("commit", "batch")


def _crc(data) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


def _rle_encode(values: List[int]) -> List[List[int]]:
    runs: List[List[int]] = []
    for value in values:
        if runs and runs[-1][0] == value:
            runs[-1][1] += 1
        else:
            runs.append([value, 1])
    return runs


def _rle_decode(runs: Iterable[Iterable[int]]) -> List[int]:
    values: List[int] = []
    for value, count in runs:
        values.extend([value] * count)
    return values


class _Segment:
    """Index entry for one log record: where its payload lives."""

    __slots__ = ("payload_offset", "payload_len", "crc", "verified")

    def __init__(self, payload_offset: int, payload_len: int, crc: int):
        self.payload_offset = payload_offset
        self.payload_len = payload_len
        self.crc = crc
        self.verified = False


class _DocState:
    """Trusted metadata of one document (the live manifest entry)."""

    __slots__ = (
        "document_id",
        "version",
        "key",
        "scheme_name",
        "cipher_kind",
        "layout",
        "plaintext_size",
        "secure_version",
        "chunk_versions",
        "root_offset",
        "tags",
        "stats",
        "runs",
        "index_span",
        "index_cache",
        "handle",
    )

    def __init__(self):
        self.handle: Optional[StoredDocument] = None
        #: ``(payload_offset, length)`` of the structural-index blob in
        #: the *current* generation's log, or ``None`` (unindexed).
        self.index_span: Optional[Tuple[int, int]] = None
        #: Parsed :class:`~repro.skipindex.structural.StructuralIndex`
        #: (lazy; generation-independent plain data).
        self.index_cache = None


class LazyPlaintext:
    """Decrypt-on-demand stand-in for ``EncodedDocument.data``.

    A store-loaded document does not keep its plaintext encoding in
    RAM — serving needs only the dictionary and root offset, and the
    chunk records decrypt lazily through the scheme reader.  The update
    path is the one consumer of the full plaintext; it materializes
    this object once (through the page cache + decrypt path) and works
    on real bytes.
    """

    __slots__ = ("_loader", "_size", "_data")

    def __init__(self, loader, size: int):
        self._loader = loader
        self._size = size
        self._data: Optional[bytes] = None

    def _materialize(self) -> bytes:
        if self._data is None:
            self._data = self._loader()
        return self._data

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __getitem__(self, item):
        return self._materialize()[item]

    def __bytes__(self) -> bytes:
        return self._materialize()

    def __eq__(self, other) -> bool:
        if isinstance(other, LazyPlaintext):
            other = bytes(other)
        if isinstance(other, (bytes, bytearray, memoryview)):
            return self._materialize() == bytes(other)
        return NotImplemented

    def __hash__(self):  # pragma: no cover - not used as a key
        return hash(self._materialize())


class ChunkPager:
    """Byte-addressed view of one document's chunk records on disk.

    Quacks like the ``stored`` bytearray of an in-memory
    :class:`~repro.crypto.integrity.SecureDocument` — ``len()`` and
    contiguous slicing — but resolves reads through the run map
    ``record index -> log offset`` and the store's page cache, so only
    the touched segments ever occupy RAM.  Immutable by construction
    (the log is append-only); tamper tests operate on the log file.

    The pager snapshots its run map at creation: an update appends new
    records and publishes a *new* pager, while this one keeps reading
    the old offsets — still present in the append-only log — which is
    exactly the copy-on-write snapshot isolation in-flight readers had
    with in-memory documents.
    """

    __slots__ = ("_store", "_generation", "_runs", "_record_size", "_size")

    def __init__(self, store: "LogStore", runs, record_size: int, size: int):
        self._store = store
        self._generation = store._generation
        # Runs sorted by first record index: (first, count, offset).
        self._runs = sorted(runs)
        self._record_size = record_size
        self._size = size

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, item) -> bytes:
        if isinstance(item, slice):
            start, stop, step = item.indices(self._size)
            if step != 1:
                raise ValueError("ChunkPager slices must be contiguous")
            return self._read(start, stop - start)
        if item < 0:
            item += self._size
        data = self._read(item, 1)
        if not data:
            raise IndexError("ChunkPager index out of range")
        return data[0]

    def __bytes__(self) -> bytes:
        return self._read(0, self._size)

    def _read(self, start: int, length: int) -> bytes:
        if length <= 0:
            return b""
        record = self._record_size
        parts: List[bytes] = []
        position = start
        end = start + length
        while position < end:
            index = position // record
            within = position % record
            first, count, offset = self._locate(index)
            # Consecutive records inside one run are contiguous in the
            # file: serve the whole overlap in a single store read.
            run_end = (first + count) * record
            take = min(end, run_end) - position
            file_offset = offset + (index - first) * record + within
            parts.append(
                self._store._read_span(self._generation, file_offset, take)
            )
            position += take
        data = b"".join(parts)
        self._store._count_read(len(data))
        return data

    def _locate(self, record_index: int) -> Tuple[int, int, int]:
        runs = self._runs
        position = bisect_right(runs, (record_index, float("inf"), 0)) - 1
        if position >= 0:
            first, count, offset = runs[position]
            if first <= record_index < first + count:
                return first, count, offset
        raise StoreError(
            "chunk record %d is not mapped in the store" % record_index
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "ChunkPager(%d bytes, %d runs)" % (self._size, len(self._runs))


class LogStore(ChunkStore):
    """Append-only disk store (see the module docstring for formats).

    Parameters
    ----------
    directory:
        Store directory, created if missing.  Guarded by an exclusive
        ``flock`` so two processes never append to the same log.
    cache_bytes:
        Byte budget of the verified-segment LRU page cache.
    sync:
        ``"commit"`` (default) fsyncs log + manifest on every commit —
        a SIGKILL never loses an acknowledged publish/update.
        ``"batch"`` defers fsync to :meth:`flush`/:meth:`close` (bulk
        corpus builds); a crash may lose recent commits but recovery
        still yields a consistent pre-crash prefix of the chain.
    """

    kind = "log"
    persistent = True

    def __init__(
        self,
        directory: str,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        sync: str = "commit",
    ):
        if sync not in _SYNC_MODES:
            raise ValueError("sync must be one of %s" % (_SYNC_MODES,))
        if cache_bytes < 1:
            raise ValueError("cache_bytes must be >= 1")
        self.directory = os.path.abspath(directory)
        self.cache_bytes = cache_bytes
        self.sync = sync
        self._lock = threading.RLock()
        self._closed = False
        self._backend = None
        self._states: Dict[str, _DocState] = {}
        self._segments: List[_Segment] = []
        self._segment_offsets: List[int] = []
        self._pages: "OrderedDict[Tuple[int, int], bytes]" = OrderedDict()
        self._page_bytes = 0
        self.counters: Dict[str, int] = {
            "page_hits": 0,
            "page_misses": 0,
            "bytes_read": 0,
            "bytes_written": 0,
            "commits": 0,
            "manifest_replays": 0,
            "torn_bytes_dropped": 0,
            "orphan_records_dropped": 0,
            "lost_entries_dropped": 0,
            "index_blobs_dropped": 0,
            "compactions": 0,
        }
        os.makedirs(self.directory, exist_ok=True)
        self._acquire_lock()
        self._generation = self._read_current()
        self._open_generation(recover=True)

    # ------------------------------------------------------------------
    # Paths and low-level file plumbing
    # ------------------------------------------------------------------
    def _path(self, name: str) -> str:
        return os.path.join(self.directory, name)

    def _chunk_path(self, generation: int) -> str:
        return self._path("chunks-%06d.log" % generation)

    def _manifest_path(self, generation: int) -> str:
        return self._path("manifest-%06d.log" % generation)

    def _acquire_lock(self) -> None:
        self._lock_file = open(self._path("LOCK"), "a+b")
        try:
            import fcntl

            fcntl.flock(self._lock_file.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except ImportError:  # pragma: no cover - non-POSIX fallback
            pass
        except OSError:
            self._lock_file.close()
            raise StoreError(
                "store %r is locked by another process" % self.directory
            )

    def _read_current(self) -> int:
        try:
            with open(self._path("CURRENT"), "r", encoding="ascii") as handle:
                return int(handle.read().strip() or "0")
        except FileNotFoundError:
            self._write_current(0)
            return 0

    def _write_current(self, generation: int) -> None:
        tmp = self._path("CURRENT.tmp")
        with open(tmp, "w", encoding="ascii") as handle:
            handle.write("%d\n" % generation)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self._path("CURRENT"))
        self._fsync_directory()

    def _fsync_directory(self) -> None:
        fd = os.open(self.directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def _open_generation(self, recover: bool) -> None:
        generation = self._generation
        self._log = open(self._chunk_path(generation), "a+b")
        self._manifest = open(self._manifest_path(generation), "a+b")
        self._log_size = os.path.getsize(self._chunk_path(generation))
        if recover:
            self._recover()

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        entries, manifest_keep = self._replay_manifest()
        committed_tail = 0
        for entry in entries:
            committed_tail = max(committed_tail, int(entry.get("tail", 0)))
        if manifest_keep is not None:
            self._manifest.flush()
            os.truncate(self._manifest_path(self._generation), manifest_keep)
            self._manifest.seek(0, os.SEEK_END)
        committed_tail = min(committed_tail, self._log_size)
        self._truncate_log_tail(committed_tail)
        self._build_segment_index(committed_tail)
        self._build_states(entries)

    def _replay_manifest(self) -> Tuple[List[dict], Optional[int]]:
        """Parse manifest lines up to the first torn/corrupt one.

        Returns ``(entries, keep)`` where ``keep`` is the byte offset
        the manifest must be truncated to (``None`` when intact).
        """
        entries: List[dict] = []
        keep: Optional[int] = None
        offset = 0
        self._manifest.seek(0)
        for line in self._manifest:
            full = line.endswith(b"\n")
            if full:
                try:
                    crc_text, payload = line[:-1].split(b" ", 1)
                    if _crc(payload) != int(crc_text, 16):
                        raise ValueError("crc mismatch")
                    entries.append(json.loads(payload.decode("utf-8")))
                    offset += len(line)
                    continue
                except (ValueError, json.JSONDecodeError):
                    pass
            # Torn or corrupt line: drop it and everything after it.
            keep = offset
            break
        self._manifest.seek(0, os.SEEK_END)
        self.counters["manifest_replays"] += len(entries)
        return entries, keep

    def _truncate_log_tail(self, committed_tail: int) -> None:
        """Walk past-commit log bytes, count them, and cut them off."""
        size = self._log_size
        if size <= committed_tail:
            if size < committed_tail:  # defensive; cannot happen with fsync
                raise IntegrityError(
                    "chunk log shorter than the committed manifest tail"
                )
            return
        position = committed_tail
        orphans = 0
        self._log.seek(position)
        while position + _HEADER.size <= size:
            header = self._log.read(_HEADER.size)
            if len(header) < _HEADER.size:
                break
            magic, body_len, crc = _HEADER.unpack(header)
            if magic != MAGIC or position + _HEADER.size + body_len > size:
                break
            body = self._log.read(body_len)
            if len(body) < body_len or _crc(body) != crc:
                break
            orphans += 1
            position += _HEADER.size + body_len
        self.counters["orphan_records_dropped"] += orphans
        self.counters["torn_bytes_dropped"] += size - committed_tail
        self._log.flush()
        os.truncate(self._chunk_path(self._generation), committed_tail)
        self._log.seek(0, os.SEEK_END)
        self._log_size = committed_tail

    def _build_segment_index(self, tail: int) -> None:
        """Header-walk the committed log into the segment index.

        Only the 12-byte headers are read here; payload CRCs are
        verified lazily, on first (cold) read of each segment.
        """
        self._segments = []
        self._segment_offsets = []
        position = 0
        self._log.seek(0)
        while position + _HEADER.size <= tail:
            header = self._log.read(_HEADER.size)
            magic, body_len, crc = _HEADER.unpack(header)
            if magic != MAGIC or position + _HEADER.size + body_len > tail:
                raise IntegrityError(
                    "chunk log structure damaged at offset %d" % position
                )
            self._segments.append(
                _Segment(position + _HEADER.size, body_len, crc)
            )
            self._segment_offsets.append(position + _HEADER.size)
            position += _HEADER.size + body_len
            self._log.seek(position)
        self._log.seek(0, os.SEEK_END)

    def _build_states(self, entries: List[dict]) -> None:
        self._states = {}
        versions_seen: Dict[str, int] = {}
        for entry in entries:
            document_id = entry["id"]
            version = int(entry["v"])
            prior = versions_seen.get(document_id)
            # Strictly *decreasing* is a rollback (tampered manifest or
            # a replayed old file); an equal version can legitimately
            # appear when two racing publishes serialized at the same
            # counter value — last entry wins, as it did in memory.
            if prior is not None and version < prior:
                raise IntegrityError(
                    "manifest version chain rollback for %r: %d after %d"
                    % (document_id, version, prior)
                )
            versions_seen[document_id] = version
            state = self._state_from_entry(entry)
            if state is not None:
                self._states[document_id] = state

    def _state_from_entry(self, entry: dict) -> Optional[_DocState]:
        state = _DocState()
        state.document_id = entry["id"]
        state.version = int(entry["v"])
        state.key = bytes.fromhex(entry["key"])
        state.scheme_name = entry["scheme"]
        state.cipher_kind = entry["cipher"]
        state.layout = tuple(entry["layout"])
        state.plaintext_size = int(entry["psize"])
        state.secure_version = int(entry["sv"])
        state.chunk_versions = _rle_decode(entry["cv"])
        state.root_offset = int(entry["root"])
        state.tags = list(entry["tags"])
        state.stats = tuple(entry["stats"])
        state.runs = [tuple(run) for run in entry["runs"]]
        record = self._record_size_of(state)
        for first, count, offset in state.runs:
            if offset + count * record > self._log_size:
                # The run points past the recovered log (possible only
                # under sync="batch" crashes): the entry is unusable.
                self.counters["lost_entries_dropped"] += 1
                return None
        span = entry.get("ix")
        if span:
            offset, length = int(span[0]), int(span[1])
            if offset + length <= self._log_size:
                state.index_span = (offset, length)
            else:
                # The blob did not survive the crash; the document still
                # serves — unindexed — from its intact chunk records.
                self.counters["index_blobs_dropped"] += 1
        return state

    @staticmethod
    def _record_size_of(state: _DocState) -> int:
        chunk_size, _fragment, _block, digest_size = state.layout
        has_digest = SCHEMES[state.scheme_name].has_digest
        return chunk_size + (digest_size if has_digest else 0)

    # ------------------------------------------------------------------
    # Reads: pread + page cache
    # ------------------------------------------------------------------
    def _segment_at(self, offset: int) -> _Segment:
        index = bisect_right(self._segment_offsets, offset) - 1
        if index < 0:
            raise StoreError("offset %d precedes the first segment" % offset)
        segment = self._segments[index]
        if offset >= segment.payload_offset + segment.payload_len:
            raise StoreError("offset %d falls between segments" % offset)
        return segment

    def _segment_payload(self, generation: int, segment: _Segment) -> bytes:
        key = (generation, segment.payload_offset)
        page = self._pages.get(key)
        if page is not None:
            self._pages.move_to_end(key)
            self.counters["page_hits"] += 1
            return page
        self.counters["page_misses"] += 1
        # The segment may still sit in the buffered writer.
        self._log.flush()
        data = os.pread(
            self._log.fileno(), segment.payload_len, segment.payload_offset
        )
        if len(data) != segment.payload_len or (
            not segment.verified and _crc(data) != segment.crc
        ):
            raise IntegrityError(
                "chunk log segment at offset %d failed its checksum"
                % segment.payload_offset
            )
        segment.verified = True
        self._pages[key] = data
        self._page_bytes += len(data)
        while self._page_bytes > self.cache_bytes and len(self._pages) > 1:
            _evicted_key, evicted = self._pages.popitem(last=False)
            self._page_bytes -= len(evicted)
        return data

    def _read_span(self, generation: int, offset: int, length: int) -> bytes:
        """Read ``length`` bytes of chunk-record payload at ``offset``.

        Spans come from the pager and always lie inside one run, and a
        run never crosses a segment record (``_append_records`` starts
        a new run per segment, and runs only coalesce when their file
        offsets are record-contiguous — a segment boundary inserts a
        header + id prefix gap that breaks contiguity).
        """
        with self._lock:
            if self._closed:
                raise StoreError("store is closed")
            if generation != self._generation:
                # The pager predates a compact: its offsets belong to a
                # retired generation.  Force its owner to re-read the
                # document from the store.
                raise StoreError(
                    "document handle is stale (store was compacted); "
                    "re-read it from the store"
                )
            segment = self._segment_at(offset)
            start = offset - segment.payload_offset
            if start + length > segment.payload_len:
                raise StoreError(
                    "span [%d, +%d) crosses a segment boundary"
                    % (offset, length)
                )
            payload = self._segment_payload(generation, segment)
            return payload[start : start + length]

    def _referenced_segments(self, state: _DocState) -> Set[int]:
        """Payload offsets of the segments ``state`` reads from."""
        offsets = [offset for _first, _count, offset in state.runs]
        if state.index_span is not None:
            offsets.append(state.index_span[0])
        return {self._segment_at(offset).payload_offset for offset in offsets}

    def _drop_dead_pages(
        self, old: Optional[_DocState], new: _DocState
    ) -> None:
        """Evict the cached pages of ``old``'s segments that ``new`` no
        longer references.  Segments are per-document, so no other
        document loses a page."""
        if old is None:
            return
        dead = self._referenced_segments(old) - self._referenced_segments(new)
        for offset in dead:
            page = self._pages.pop((self._generation, offset), None)
            if page is not None:
                self._page_bytes -= len(page)

    def _count_read(self, amount: int) -> None:
        with self._lock:
            self.counters["bytes_read"] += amount

    # ------------------------------------------------------------------
    # Appends
    # ------------------------------------------------------------------
    def _append_segment(
        self, document_id: str, version: int, first_record: int, payload
    ) -> int:
        """Append one segment record; returns the payload's file offset."""
        encoded_id = document_id.encode("utf-8")
        body = b"".join(
            (
                struct.pack(">H", len(encoded_id)),
                encoded_id,
                struct.pack(">QI", version, first_record),
                bytes(payload),
            )
        )
        crc = _crc(body)
        self._log.write(_HEADER.pack(MAGIC, len(body), crc))
        self._log.write(body)
        payload_offset = (
            self._log_size + _HEADER.size + len(body) - len(payload)
        )
        segment = _Segment(self._log_size + _HEADER.size, len(body), crc)
        segment.verified = True
        self._segments.append(segment)
        self._segment_offsets.append(segment.payload_offset)
        self._log_size += _HEADER.size + len(body)
        self.counters["bytes_written"] += _HEADER.size + len(body)
        return payload_offset

    def _append_records(
        self,
        document_id: str,
        version: int,
        first_record: int,
        records: Iterable[bytes],
        record_size: int,
    ) -> List[Tuple[int, int, int]]:
        """Stream chunk records into bounded segments; returns runs.

        ``records`` may be a generator (the streaming-publish path): at
        most ``SEGMENT_BYTES`` of it is buffered at any moment.
        """
        runs: List[Tuple[int, int, int]] = []
        per_segment = max(1, SEGMENT_BYTES // record_size)
        buffer: List[bytes] = []
        next_record = first_record

        def flush_buffer() -> None:
            nonlocal next_record
            if not buffer:
                return
            payload = b"".join(buffer)
            count = len(buffer)
            offset = self._append_segment(
                document_id, version, next_record, payload
            )
            runs.append((next_record, count, offset))
            next_record += count
            del buffer[:]

        for record in records:
            if len(record) != record_size:
                raise StoreError(
                    "chunk record size %d != expected %d"
                    % (len(record), record_size)
                )
            buffer.append(bytes(record))
            if len(buffer) >= per_segment:
                flush_buffer()
        flush_buffer()
        return runs

    def _commit(self, state: _DocState) -> None:
        """Durably publish ``state``: fsync the log, then the manifest."""
        self._log.flush()
        if self.sync == "commit":
            os.fsync(self._log.fileno())
        payload = json.dumps(
            {
                "id": state.document_id,
                "v": state.version,
                "key": state.key.hex(),
                "scheme": state.scheme_name,
                "cipher": state.cipher_kind,
                "layout": list(state.layout),
                "psize": state.plaintext_size,
                "sv": state.secure_version,
                "cv": _rle_encode(state.chunk_versions),
                "root": state.root_offset,
                "tags": state.tags,
                "stats": list(state.stats),
                "runs": [list(run) for run in state.runs],
                **(
                    {"ix": list(state.index_span)}
                    if state.index_span is not None
                    else {}
                ),
                "tail": self._log_size,
            },
            separators=(",", ":"),
        ).encode("utf-8")
        self._manifest.write(b"%08x " % _crc(payload) + payload + b"\n")
        self._manifest.flush()
        if self.sync == "commit":
            os.fsync(self._manifest.fileno())
        self.counters["commits"] += 1

    # ------------------------------------------------------------------
    # ChunkStore API
    # ------------------------------------------------------------------
    def bind_backend(self, backend) -> None:
        self._backend = backend

    def _state_from_prepared(
        self,
        document_id: str,
        prepared: PreparedDocument,
        key: bytes,
        version: int,
    ) -> _DocState:
        spec = storage_spec(prepared.scheme)
        if spec is None:
            raise StoreError(
                "scheme %r uses a custom cipher factory and cannot be "
                "persisted; use MemoryStore" % prepared.scheme.name
            )
        name, cipher_key, cipher_kind, layout = spec
        state = _DocState()
        state.document_id = document_id
        state.version = version
        # Persist the *cipher* key, not the caller's provisioning key:
        # an externally prepared document (cluster publish, failover
        # republish) was encrypted under its own key, and the scheme
        # rebuilt at load time must decrypt with that one.
        state.key = bytes(cipher_key)
        state.scheme_name = name
        state.cipher_kind = cipher_kind
        state.layout = layout
        state.plaintext_size = prepared.secure.plaintext_size
        state.secure_version = prepared.secure.version
        state.chunk_versions = list(prepared.secure.chunk_versions)
        state.root_offset = prepared.encoded.root_offset
        state.tags = prepared.encoded.dictionary.tags()
        stats = prepared.encoded.stats
        state.stats = (
            stats.total_bytes,
            stats.text_bytes,
            stats.dictionary_bytes,
            stats.fixpoint_rounds,
        )
        state.index_cache = prepared.index
        return state

    def _append_index_blob(self, state: _DocState) -> None:
        """Append the document's structural-index blob (if any) as its
        own log segment and point ``state.index_span`` at it.  Called
        before :meth:`_commit`, so the manifest line never references an
        un-fsynced blob."""
        if state.index_cache is None:
            return
        blob = state.index_cache.to_bytes()
        offset = self._append_segment(
            state.document_id, state.version, INDEX_RECORD, blob
        )
        state.index_span = (offset, len(blob))

    def put(
        self,
        document_id: str,
        prepared: PreparedDocument,
        key: bytes,
        version: int,
    ) -> PreparedDocument:
        return self.put_records(
            document_id,
            prepared,
            key,
            version,
            _record_slices(prepared.secure),
        )

    def put_records(
        self,
        document_id: str,
        prepared: PreparedDocument,
        key: bytes,
        version: int,
        records: Iterable[bytes],
    ) -> PreparedDocument:
        """Publish from a record *iterator* (the streaming entry point).

        ``prepared.secure.stored`` is never touched — callers publishing
        a document larger than RAM pass the scheme's record generator
        and a :class:`SecureDocument` shell; at most one segment's
        worth of records is buffered while the log is written.
        """
        with self._lock:
            if self._closed:
                raise StoreError("store is closed")
            state = self._state_from_prepared(document_id, prepared, key, version)
            record_size = self._record_size_of(state)
            state.runs = self._append_records(
                document_id,
                version,
                0,
                records,
                record_size,
            )
            self._append_index_blob(state)
            self._commit(state)
            self._drop_dead_pages(self._states.get(document_id), state)
            self._states[document_id] = state
            # Leave the handle cache cold: a bulk load (bench corpus,
            # cluster seeding) would otherwise pin a scheme + pager
            # object per document.  The first ``get`` warms it.
            state.handle = None
            served = self._handle(state)
            state.handle = None
            return served.prepared

    def put_stream(
        self,
        document_id: str,
        encoded,
        scheme,
        key: bytes,
        version: int,
        index=None,
    ) -> PreparedDocument:
        """Streaming publish: records flow generator -> log, bounded by
        one segment's buffer — the full ciphertext never exists in RAM
        (documents larger than memory publish fine)."""
        shell = SecureDocument(
            scheme, b"", len(encoded.data), version=version
        )
        prepared = PreparedDocument(encoded, scheme, shell, index=index)
        return self.put_records(
            document_id,
            prepared,
            key,
            version,
            scheme.record_stream(encoded.data, version),
        )

    def apply_update(
        self,
        document_id: str,
        prepared: PreparedDocument,
        version: int,
        dirty_chunks: Optional[Set[int]] = None,
    ) -> PreparedDocument:
        """Commit a copy-on-write update: append only the changed records.

        The changed set is derived from the per-chunk version stamps,
        not from the caller's dirty estimate — a chained scheme
        (CBC-SHA-DOC) cascades re-encryption past the dirtied chunks,
        and every cascaded record carries the bumped version, so the
        diff is exact.
        """
        with self._lock:
            if self._closed:
                raise StoreError("store is closed")
            old = self._states.get(document_id)
            if old is None:
                raise StoreError("unknown document %r" % document_id)
            state = self._state_from_prepared(
                document_id, prepared, old.key, version
            )
            record_size = self._record_size_of(state)
            secure = prepared.secure
            new_count = len(state.chunk_versions)
            changed = set()
            for index in range(new_count):
                if (
                    index >= len(old.chunk_versions)
                    or old.chunk_versions[index] != state.chunk_versions[index]
                ):
                    changed.add(index)
            if dirty_chunks:
                changed.update(
                    index for index in dirty_chunks if index < new_count
                )
            # Carry the surviving runs of the old map, clipped to the
            # new chunk count and minus the re-encrypted records.
            runs: List[Tuple[int, int, int]] = []
            for first, count, offset in sorted(old.runs):
                for index in range(first, min(first + count, new_count)):
                    if index in changed:
                        continue
                    _extend_run(
                        runs, index, offset + (index - first) * record_size
                    )
            appended = self._append_records(
                document_id,
                version,
                0,
                _changed_record_slices(secure, sorted(changed), record_size),
                record_size,
            )
            # _append_records numbers records consecutively from its
            # ``first_record``; re-map the appended runs back onto the
            # real (sparse) changed indexes.
            ordered_changed = sorted(changed)
            for first, count, offset in appended:
                for position in range(count):
                    index = ordered_changed[first + position]
                    _extend_run(runs, index, offset + position * record_size)
            state.runs = _coalesce_runs(runs, record_size)
            # The index describes plaintext offsets, which updates do
            # not relocate retroactively: re-append the (possibly
            # refreshed, possibly reused) blob so the newest manifest
            # entry always owns a live span.
            self._append_index_blob(state)
            self._commit(state)
            self._drop_dead_pages(old, state)
            self._states[document_id] = state
            state.handle = None
            return self._handle(state).prepared

    def get(self, document_id: str) -> Optional[StoredDocument]:
        with self._lock:
            if self._closed:
                raise StoreError("store is closed")
            state = self._states.get(document_id)
            if state is None:
                return None
            return self._handle(state)

    def _handle(self, state: _DocState) -> StoredDocument:
        if state.handle is not None:
            return state.handle
        chunk_size, fragment_size, block_size, digest_size = state.layout
        layout = ChunkLayout(
            chunk_size=chunk_size,
            fragment_size=fragment_size,
            block_size=block_size,
            digest_size=digest_size,
        )
        from repro.crypto.integrity import _CIPHER_FACTORIES

        scheme = make_scheme(
            state.scheme_name,
            key=state.key,
            cipher_factory=_CIPHER_FACTORIES[state.cipher_kind],
            layout=layout,
            backend=self._backend,
        )
        record_size = self._record_size_of(state)
        chunk_count = layout.chunk_count(state.plaintext_size)
        pager = ChunkPager(
            self, state.runs, record_size, chunk_count * record_size
        )
        secure = SecureDocument(
            scheme,
            pager,
            state.plaintext_size,
            version=state.secure_version,
            chunk_versions=list(state.chunk_versions),
        )
        dictionary = TagDictionary(state.tags)
        stats = EncodingStats()
        (
            stats.total_bytes,
            stats.text_bytes,
            stats.dictionary_bytes,
            stats.fixpoint_rounds,
        ) = state.stats
        data = LazyPlaintext(
            lambda secure=secure, scheme=scheme: _decrypt_all(scheme, secure),
            state.plaintext_size,
        )
        encoded = EncodedDocument(data, dictionary, stats, state.root_offset)
        index = state.index_cache
        if index is None and state.index_span is not None:
            try:
                index = parse_structural_index(
                    self._read_span(self._generation, *state.index_span)
                )
                state.index_cache = index
            except (StructuralIndexError, IntegrityError, StoreError):
                # A damaged blob only costs the acceleration, never the
                # document: null the span so we stop retrying.
                state.index_span = None
                self.counters["index_blobs_dropped"] += 1
        prepared = PreparedDocument(encoded, scheme, secure, index=index)
        state.handle = StoredDocument(prepared, state.key, state.version)
        return state.handle

    def __contains__(self, document_id: str) -> bool:
        with self._lock:
            return document_id in self._states

    def ids(self) -> List[str]:
        with self._lock:
            return list(self._states)

    def versions(self) -> Dict[str, int]:
        with self._lock:
            return {
                document_id: state.version
                for document_id, state in self._states.items()
            }

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def flush(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._log.flush()
            os.fsync(self._log.fileno())
            self._manifest.flush()
            os.fsync(self._manifest.fileno())

    def compact(self) -> Dict[str, int]:
        """Rewrite the live records into a fresh generation.

        Dead weight — superseded chunk records and superseded manifest
        entries — is dropped; the swap is crash-safe because the new
        generation is fully written and fsync'd before ``CURRENT`` is
        atomically replaced (a crash at any point leaves a consistent
        store: either still the old generation or entirely the new).
        """
        with self._lock:
            if self._closed:
                raise StoreError("store is closed")
            old_generation = self._generation
            old_size = self._log_size
            new_generation = old_generation + 1
            old_log, old_manifest = self._log, self._manifest
            old_segments = self._segments
            states = list(self._states.values())
            # Materialize every live document's records *before*
            # switching files (reads go through the old generation).
            materialized = []
            for state in states:
                record_size = self._record_size_of(state)
                chunk_count = len(state.chunk_versions)
                pager = ChunkPager(
                    self, state.runs, record_size, chunk_count * record_size
                )
                # Index blobs must cross the generation too; read them
                # while the old generation is still the live one.
                blob = None
                if state.index_cache is not None:
                    blob = state.index_cache.to_bytes()
                elif state.index_span is not None:
                    blob = self._read_span(
                        self._generation, *state.index_span
                    )
                materialized.append((state, record_size, bytes(pager), blob))
            self._generation = new_generation
            self._segments = []
            self._segment_offsets = []
            self._log_size = 0
            self._pages.clear()
            self._page_bytes = 0
            self._log = open(self._chunk_path(new_generation), "a+b")
            self._manifest = open(self._manifest_path(new_generation), "a+b")
            for state, record_size, stored, blob in materialized:
                fresh = _DocState()
                for field in _DocState.__slots__:
                    if field != "handle":
                        setattr(fresh, field, getattr(state, field))
                fresh.handle = None
                # The old generation's blob offset is meaningless here;
                # re-append the blob into the new log.
                fresh.index_span = None
                fresh.runs = self._append_records(
                    state.document_id,
                    state.version,
                    0,
                    _iter_record_bytes(stored, record_size),
                    record_size,
                )
                if blob is not None:
                    offset = self._append_segment(
                        state.document_id,
                        state.version,
                        INDEX_RECORD,
                        blob,
                    )
                    fresh.index_span = (offset, len(blob))
                self._commit(fresh)
                self._states[state.document_id] = fresh
            self.flush()
            self._write_current(new_generation)
            old_log.close()
            old_manifest.close()
            for path in (
                self._chunk_path(old_generation),
                self._manifest_path(old_generation),
            ):
                try:
                    os.unlink(path)
                except OSError:  # pragma: no cover - best effort
                    pass
            self.counters["compactions"] += 1
            return {
                "generation": new_generation,
                "documents": len(self._states),
                "log_bytes_before": old_size,
                "log_bytes_after": self._log_size,
                "segments_before": len(old_segments),
                "segments_after": len(self._segments),
                "reclaimed_bytes": max(0, old_size - self._log_size),
            }

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self.flush()
            self._closed = True
            self._log.close()
            self._manifest.close()
            try:
                import fcntl

                fcntl.flock(self._lock_file.fileno(), fcntl.LOCK_UN)
            except (ImportError, OSError):  # pragma: no cover
                pass
            self._lock_file.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def describe(self) -> Dict[str, object]:
        with self._lock:
            live_bytes = 0
            for state in self._states.values():
                record = self._record_size_of(state)
                live_bytes += len(state.chunk_versions) * record
            info: Dict[str, object] = {
                "kind": self.kind,
                "persistent": self.persistent,
                "directory": self.directory,
                "generation": self._generation,
                "sync": self.sync,
                "documents": len(self._states),
                "log_bytes": self._log_size,
                "live_bytes": live_bytes,
                "segments": len(self._segments),
                "cache_budget_bytes": self.cache_bytes,
                "cache_used_bytes": self._page_bytes,
                "cache_entries": len(self._pages),
            }
            info.update(self.counters)
            return info

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "LogStore(%r, gen %d, %d documents, %d log bytes)" % (
            self.directory,
            self._generation,
            len(self._states),
            self._log_size,
        )


# ----------------------------------------------------------------------
# Record slicing helpers
# ----------------------------------------------------------------------
def _record_size(secure: SecureDocument) -> int:
    layout = secure.layout
    digest = layout.digest_size if secure.scheme.has_digest else 0
    return layout.chunk_size + digest


def _record_slices(secure: SecureDocument):
    """Yield every chunk record of an in-memory document, in order."""
    record = _record_size(secure)
    stored = secure.stored
    for start in range(0, len(stored), record):
        yield bytes(stored[start : start + record])


def _changed_record_slices(
    secure: SecureDocument, indexes: List[int], record: int
):
    stored = secure.stored
    for index in indexes:
        yield bytes(stored[index * record : (index + 1) * record])


def _iter_record_bytes(stored: bytes, record: int):
    for start in range(0, len(stored), record):
        yield stored[start : start + record]


def _extend_run(
    runs: List[Tuple[int, int, int]], index: int, offset: int
) -> None:
    runs.append((index, 1, offset))


def _coalesce_runs(
    runs: List[Tuple[int, int, int]], record_size: int
) -> List[Tuple[int, int, int]]:
    """Merge runs that are contiguous in record index *and* file offset."""
    merged: List[Tuple[int, int, int]] = []
    for first, count, offset in sorted(runs):
        if merged:
            m_first, m_count, m_offset = merged[-1]
            if (
                first == m_first + m_count
                and offset == m_offset + m_count * record_size
            ):
                merged[-1] = (m_first, m_count + count, m_offset)
                continue
        merged.append((first, count, offset))
    return merged


def _decrypt_all(scheme, secure: SecureDocument) -> bytes:
    """Full plaintext of a stored document (the update path's loader)."""
    reader = scheme.reader(secure, Meter())
    size = secure.plaintext_size
    step = scheme.layout.chunk_size
    parts = []
    for offset in range(0, size, step):
        parts.append(reader.read(offset, min(step, size - offset)))
    return b"".join(parts)

"""The persistent chunk store (``repro.store``).

Three families of guarantees:

* **Parity** — a station on a :class:`LogStore` serves byte-identical
  views to one on the default :class:`MemoryStore`, before and after a
  restart, for every scheme (the differential fuzz at the bottom
  hammers this across random documents and update sequences).
* **Crash recovery** — a torn log tail, a half-written manifest line
  or a kill between the log append and the manifest commit must all
  recover to the last committed state; a manifest whose version chain
  rolls backwards must refuse to load (replay protection).
* **Resource discipline** — the page cache respects its byte budget
  and holds only live segments, reads map nothing, ``compact``
  reclaims superseded records and releases the old generation,
  ``close`` is idempotent and releases the directory lock.
"""

import os
import random

import pytest

from repro.accesscontrol.model import AccessRule, Policy
from repro.crypto.integrity import SCHEMES, IntegrityError
from repro.engine import SecureStation, prepare_document
from repro.skipindex.updates import UpdateOp
from repro.store import LogStore, MemoryStore, StoreError, open_store
from repro.xmlkit.serializer import serialize_events

KEY = bytes(range(16))

DOC = "<library>%s</library>" % "".join(
    "<book><title>t%d</title><price>%d</price><internal>x%d</internal></book>"
    % (i, (i * 7) % 50, i)
    for i in range(14)
)

POLICY = Policy(
    [AccessRule("+", "//book"), AccessRule("-", "//internal")],
    subject="alice",
)


def view_of(station, document_id="doc"):
    result = station.evaluate(document_id, POLICY)
    return serialize_events(result.events)


def publish(station, document_id="doc", scheme="ECB-MHT", source=DOC):
    station.publish(document_id, source, scheme=scheme, key=KEY)


# ----------------------------------------------------------------------
# Parity: MemoryStore vs LogStore vs restarted LogStore
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_log_store_parity_all_schemes(tmp_path, scheme):
    with SecureStation(store=MemoryStore()) as memory_station:
        publish(memory_station, scheme=scheme)
        expected = view_of(memory_station)

    with SecureStation(store=LogStore(str(tmp_path))) as log_station:
        publish(log_station, scheme=scheme)
        assert view_of(log_station) == expected

    # Byte-identical after a clean restart.
    with SecureStation(store=LogStore(str(tmp_path))) as restarted:
        assert view_of(restarted) == expected


def test_stored_bytes_identical_across_restart(tmp_path):
    prepared = prepare_document(DOC, scheme="ECB-MHT", key=KEY)
    reference = bytes(prepared.secure.stored)

    store = LogStore(str(tmp_path))
    served = store.put("doc", prepared, KEY, 0).secure
    assert bytes(served.stored) == reference
    store.close()

    store = LogStore(str(tmp_path))
    entry = store.get("doc")
    assert bytes(entry.prepared.secure.stored) == reference
    assert entry.version == 0
    store.close()


def test_updates_survive_restart(tmp_path):
    store = LogStore(str(tmp_path))
    with SecureStation(store=store) as station:
        publish(station)
        station.update("doc", UpdateOp.set_text((0, 0), "changed"))
        station.update("doc", UpdateOp.set_text((2, 1), "99"))
        expected = view_of(station)
        assert station.document_version("doc") == 2

    with SecureStation(store=LogStore(str(tmp_path))) as restarted:
        assert restarted.document_version("doc") == 2
        assert view_of(restarted) == expected
        # The chain keeps going where it left off.
        restarted.update("doc", UpdateOp.set_text((1, 0), "later"))
        assert restarted.document_version("doc") == 3


def test_open_store_dispatch(tmp_path):
    assert isinstance(open_store(None), MemoryStore)
    store = open_store(str(tmp_path / "data"), cache_bytes=1 << 20)
    try:
        assert isinstance(store, LogStore)
        assert store.persistent
        assert store.cache_bytes == 1 << 20
    finally:
        store.close()


# ----------------------------------------------------------------------
# Crash recovery
# ----------------------------------------------------------------------
def _files(directory):
    return (
        os.path.join(directory, "chunks-000000.log"),
        os.path.join(directory, "manifest-000000.log"),
    )


def _populate(directory, documents=("doc",)):
    """Publish ``documents`` and return their serialized views."""
    views = {}
    with SecureStation(store=LogStore(directory)) as station:
        for document_id in documents:
            publish(station, document_id)
        for document_id in documents:
            views[document_id] = view_of(station, document_id)
    return views


def test_torn_log_tail_is_truncated(tmp_path):
    directory = str(tmp_path)
    views = _populate(directory)
    chunk_path, _ = _files(directory)
    committed = os.path.getsize(chunk_path)
    # A crash mid-append leaves a partial segment: a valid-looking
    # header whose body never finished, then garbage.
    with open(chunk_path, "ab") as handle:
        handle.write(b"RPCL" + (9999).to_bytes(4, "big") + b"\x00" * 40)

    store = LogStore(directory)
    try:
        assert store.describe()["torn_bytes_dropped"] == 48
        assert os.path.getsize(chunk_path) == committed
    finally:
        store.close()
    with SecureStation(store=LogStore(directory)) as station:
        assert view_of(station) == views["doc"]


def test_kill_between_log_append_and_manifest_commit(tmp_path):
    directory = str(tmp_path)
    views = _populate(directory)
    chunk_path, manifest_path = _files(directory)
    log_size = os.path.getsize(chunk_path)
    manifest_size = os.path.getsize(manifest_path)

    # Second publish fully lands in the chunk log...
    with SecureStation(store=LogStore(directory)) as station:
        publish(station, "late")
    # ...but the crash ate the manifest line (simulated by rollback).
    with open(manifest_path, "ab") as handle:
        pass
    os.truncate(manifest_path, manifest_size)

    store = LogStore(directory)
    try:
        description = store.describe()
        # The orphaned records past the committed tail are dropped
        # whole — they were never durable as far as readers knew.
        assert description["orphan_records_dropped"] > 0
        assert description["documents"] == 1
        assert "late" not in store
        assert os.path.getsize(chunk_path) == log_size
    finally:
        store.close()
    with SecureStation(store=LogStore(directory)) as station:
        assert view_of(station) == views["doc"]


def test_partial_manifest_line_is_dropped(tmp_path):
    directory = str(tmp_path)
    views = _populate(directory)
    _, manifest_path = _files(directory)
    committed = os.path.getsize(manifest_path)
    with open(manifest_path, "ab") as handle:
        handle.write(b'00000000 {"id":"half-written')  # no newline, bad crc

    with SecureStation(store=LogStore(directory)) as station:
        assert view_of(station) == views["doc"]
    assert os.path.getsize(manifest_path) == committed


def test_corrupt_manifest_crc_drops_line_and_successors(tmp_path):
    directory = str(tmp_path)
    _populate(directory, documents=("a", "b"))
    _, manifest_path = _files(directory)
    with open(manifest_path, "rb") as handle:
        lines = handle.readlines()
    assert len(lines) == 2
    # Flip one byte inside the first entry's JSON: its crc fails, and
    # everything after it is dropped too (the torn line could have
    # been mid-rewrite; nothing later is trustworthy).
    damaged = bytearray(lines[0])
    damaged[12] ^= 0xFF
    with open(manifest_path, "wb") as handle:
        handle.write(bytes(damaged))
        handle.write(lines[1])

    store = LogStore(directory)
    try:
        assert len(store) == 0
        assert os.path.getsize(manifest_path) == 0
    finally:
        store.close()


def test_version_rollback_raises_integrity_error(tmp_path):
    directory = str(tmp_path)
    with SecureStation(store=LogStore(directory)) as station:
        publish(station)
        station.update("doc", UpdateOp.set_text((0, 0), "v1"))
    _, manifest_path = _files(directory)
    with open(manifest_path, "rb") as handle:
        lines = handle.readlines()
    # Replay the *first* (older-version) entry after the newest one —
    # exactly what splicing an old manifest capture would do.
    with open(manifest_path, "ab") as handle:
        handle.write(lines[0])

    with pytest.raises(IntegrityError, match="rollback"):
        LogStore(directory)


def test_tampered_chunk_record_fails_verification(tmp_path):
    directory = str(tmp_path)
    _populate(directory)
    chunk_path, _ = _files(directory)
    with open(chunk_path, "r+b") as handle:
        handle.seek(os.path.getsize(chunk_path) // 2)
        byte = handle.read(1)
        handle.seek(-1, os.SEEK_CUR)
        handle.write(bytes([byte[0] ^ 0xFF]))

    # The segment CRC catches the flip on the first cold read.
    with SecureStation(store=LogStore(directory)) as station:
        with pytest.raises(Exception):
            view_of(station)


# ----------------------------------------------------------------------
# Page cache, compaction, lifecycle
# ----------------------------------------------------------------------
def test_page_cache_hits_and_eviction(tmp_path):
    store = LogStore(str(tmp_path), cache_bytes=4096)
    try:
        with SecureStation(store=store) as station:
            publish(station, "a")
            publish(station, "b")
            view_of(station, "a")
            view_of(station, "b")
            description = store.describe()
            assert description["page_misses"] > 0
            assert description["cache_used_bytes"] <= max(
                4096, description["cache_used_bytes"] - 0
            )
            # The budget admits at most one resident segment here, so
            # eviction must have run while both documents were read.
            assert description["cache_entries"] <= 2
            before_hits = description["page_hits"]
            station.evaluate("a", POLICY, query="//title")
            assert store.describe()["page_hits"] >= before_hits
    finally:
        store.close()


def test_page_cache_serves_hits_within_budget(tmp_path):
    store = LogStore(str(tmp_path))  # default 64 MiB: everything fits
    try:
        with SecureStation(store=store) as station:
            publish(station)
            view_of(station)
            misses = store.describe()["page_misses"]
            station.evaluate("doc", POLICY, query="//price")
            after = store.describe()
            assert after["page_misses"] == misses  # warm reads: no I/O
    finally:
        store.close()


def test_compact_reclaims_and_preserves_views(tmp_path):
    directory = str(tmp_path)
    store = LogStore(directory)
    with SecureStation(store=store) as station:
        publish(station)
        for index in range(4):
            station.update(
                "doc", UpdateOp.set_text((0, 0), "pass %d" % index)
            )
        expected = view_of(station)
        before = store.describe()
        stats = store.compact()
        assert stats["log_bytes_after"] <= stats["log_bytes_before"]
        assert stats["generation"] == before["generation"] + 1
        assert view_of(station) == expected
        # The old generation's files are gone; CURRENT points at the new.
        assert not os.path.exists(os.path.join(directory, "chunks-000000.log"))
        with open(os.path.join(directory, "CURRENT")) as handle:
            assert int(handle.read().strip()) == stats["generation"]

    with SecureStation(store=LogStore(directory)) as restarted:
        assert view_of(restarted) == expected


needs_proc = pytest.mark.skipif(
    not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps"
)


def _mapped_chunk_logs(directory):
    prefix = os.path.join(os.path.realpath(directory), "chunks-")
    with open("/proc/self/maps") as handle:
        return [line.rstrip("\n") for line in handle if prefix in line]


def _open_chunk_logs(directory):
    prefix = os.path.join(os.path.realpath(directory), "chunks-")
    targets = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            targets.append(os.readlink(os.path.join("/proc/self/fd", fd)))
        except OSError:  # the listing's own descriptor is gone already
            pass
    return [target for target in targets if target.startswith(prefix)]


@needs_proc
def test_reads_map_nothing_and_compact_releases_old_generation(tmp_path):
    directory = str(tmp_path)
    store = LogStore(directory)
    with SecureStation(store=store) as station:
        publish(station)
        for index in range(50):
            station.update(
                "doc", UpdateOp.set_text((index % 14, 0), "pass %02d" % index)
            )
            view_of(station)
        assert _mapped_chunk_logs(directory) == []
        expected = view_of(station)

        stats = store.compact()
        assert stats["reclaimed_bytes"] > 0
        old_log = "chunks-%06d.log" % (stats["generation"] - 1)
        pinned = _mapped_chunk_logs(directory) + _open_chunk_logs(directory)
        assert [ref for ref in pinned if old_log in ref] == []
        assert view_of(station) == expected
        assert _mapped_chunk_logs(directory) == []


BOUNDED_SCHEMES = ("ECB-MHT", "CBC-SHAC", "CBC-SHA", "ECB")


def _live_segment_bytes(store):
    """Payload bytes of the segments the live runs and index spans
    reference."""
    live = {}
    for state in store._states.values():
        offsets = [offset for _first, _count, offset in state.runs]
        if state.index_span is not None:
            offsets.append(state.index_span[0])
        for offset in offsets:
            segment = store._segment_at(offset)
            live[segment.payload_offset] = segment.payload_len
    return sum(live.values())


def _read_all(store, ids):
    """Read every record of ``ids`` in order; returns the bytes and the
    page hits and misses the pass cost."""
    before = store.describe()
    data = {
        document_id: bytes(store.get(document_id).prepared.secure.stored)
        for document_id in ids
    }
    after = store.describe()
    return (
        data,
        after["page_hits"] - before["page_hits"],
        after["page_misses"] - before["page_misses"],
    )


def test_page_cache_is_bounded_by_live_data(tmp_path):
    directory = str(tmp_path)
    rng = random.Random(5)
    ids = ["doc-%s" % scheme for scheme in BOUNDED_SCHEMES]
    store = LogStore(directory)
    with SecureStation(store=store) as station:
        for document_id, scheme in zip(ids, BOUNDED_SCHEMES):
            publish(station, document_id, scheme=scheme)
        for step in range(100):
            document_id = ids[step % len(ids)]
            segments = store.describe()["segments"]
            station.update(
                document_id,
                UpdateOp.set_text((rng.randrange(14), 1), str(rng.randint(10, 99))),
            )
            appended = store.describe()["segments"] - segments
            # Only the segments the update appended are cold: the
            # commit dropped dead pages, never live ones.
            _data, _hits, misses = _read_all(store, [document_id])
            assert misses <= appended
        assert store.describe()["cache_used_bytes"] <= _live_segment_bytes(store)
        views = {document_id: view_of(station, document_id) for document_id in ids}
        warm, warm_hits, warm_misses = _read_all(store, ids)
    assert warm_misses == 0

    with SecureStation(store=LogStore(directory)) as fresh:
        assert {
            document_id: view_of(fresh, document_id) for document_id in ids
        } == views
        _read_all(fresh.store, ids)
        cold, fresh_hits, fresh_misses = _read_all(fresh.store, ids)
    assert cold == warm
    assert (fresh_hits, fresh_misses) == (warm_hits, 0)


def test_close_is_idempotent_and_releases_lock(tmp_path):
    store = LogStore(str(tmp_path))
    store.close()
    store.close()
    assert store.closed
    with pytest.raises(StoreError):
        store.get("doc")

    second = LogStore(str(tmp_path))  # the flock is free again
    second.close()


def test_second_opener_is_locked_out(tmp_path):
    store = LogStore(str(tmp_path))
    try:
        with pytest.raises(StoreError, match="locked"):
            LogStore(str(tmp_path))
    finally:
        store.close()


def test_station_close_idempotent_and_context_manager(tmp_path):
    station = SecureStation(store=LogStore(str(tmp_path)))
    publish(station)
    station.close()
    station.close()
    assert station.closed

    with SecureStation() as station:
        publish(station)
        assert not station.closed
    assert station.closed


def test_memory_store_rejects_after_close():
    store = MemoryStore()
    store.close()
    store.close()
    with pytest.raises(StoreError):
        store.put("doc", None, KEY, 0)


# ----------------------------------------------------------------------
# Differential fuzz: memory == log == restarted log
# ----------------------------------------------------------------------
TAGS = ["r", "s", "t", "u"]


def _random_source(rng):
    parts = []
    for i in range(rng.randint(3, 8)):
        tag = rng.choice(TAGS)
        parts.append(
            "<%s><name>n%d</name><val>%d</val></%s>"
            % (tag, i, rng.randint(0, 99), tag)
        )
    return "<root>%s</root>" % "".join(parts)


@pytest.mark.parametrize("seed", range(4))
def test_differential_memory_vs_log_with_updates(tmp_path, seed):
    rng = random.Random(seed)
    scheme = rng.choice(sorted(SCHEMES))
    source = _random_source(rng)
    policy = Policy([AccessRule("+", "//name"), AccessRule("+", "//val")],
                    subject="fuzz")

    directory = str(tmp_path)
    memory_station = SecureStation(store=MemoryStore())
    log_station = SecureStation(store=LogStore(directory))
    try:
        for station in (memory_station, log_station):
            station.publish("doc", source, scheme=scheme, key=KEY)
        for step in range(rng.randint(1, 4)):
            child = rng.randrange(3)
            op = UpdateOp.set_text((child, 1), str(rng.randint(100, 999)))
            memory_station.update("doc", op)
            log_station.update("doc", op)
        expected = serialize_events(
            memory_station.evaluate("doc", policy).events
        )
        assert (
            serialize_events(log_station.evaluate("doc", policy).events)
            == expected
        )
        log_version = log_station.document_version("doc")
        assert log_version == memory_station.document_version("doc")
    finally:
        memory_station.close()
        log_station.close()

    with SecureStation(store=LogStore(directory)) as restarted:
        assert (
            serialize_events(restarted.evaluate("doc", policy).events)
            == expected
        )
        assert restarted.document_version("doc") == log_version

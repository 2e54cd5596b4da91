"""Trimmed last chunk records.

A document's last chunk record is stored only up to the block that
holds its last plaintext byte.  These tests pin that layout on all four
schemes, on the in-memory and the disk log store: served views against
the plaintext reference model, updates across chunk boundaries, tamper
with the trimmed tail, stores written with padded tails, and cluster
repair.
"""

import functools
import hashlib
import json
import pathlib
import shutil

import pytest

from repro import AccessRule, Policy, reference_authorized_view
from repro.cluster.topology import StationCluster
from repro.crypto.integrity import IntegrityError
from repro.engine import PublishOptions, SecureStation, StationConfig
from repro.skipindex.encoder import encode_document
from repro.skipindex.updates import UpdateOp
from repro.store import LogStore, StoreError
from repro.xmlkit.dom import Node
from repro.xmlkit.serializer import serialize_events

CHUNK = 2048
BLOCK = 8
DIGEST = 24
SCHEMES = ["ECB", "CBC-SHA", "CBC-SHAC", "ECB-MHT"]
RESIDUES = [0, 1, 8, 9, 2047]
STORES = ["memory", "log"]
POLICY = Policy(
    [AccessRule("+", "//folder"), AccessRule("-", "//secret")], subject="s"
)
#: The whole view, a structural query the index plans, and one that
#: reads the document's last bytes.
QUERIES = [None, "/folder/rec/name", "/folder/tail"]
RECORDS = 12
TAIL = [RECORDS]  # index path of the <tail> element
FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "padded_tail_store"


def tail_document(pad: int, records: int = RECORDS) -> Node:
    """``records`` records, then a <tail> whose text ends the encoding."""
    root = Node("folder")
    for index in range(records):
        rec = Node("rec")
        for tag, text in (
            ("name", "n%02d" % index),
            ("data", "d" * 150),
            ("secret", "s%02d" % index),
        ):
            child = Node(tag)
            child.add(text)
            rec.add(child)
        root.add(rec)
    tail = Node("tail")
    tail.add("t" * pad)
    root.add(tail)
    return root


@functools.lru_cache(maxsize=None)
def sized_document(residue: int) -> Node:
    """A document of more than one chunk whose encoding is ``residue``
    bytes past a chunk boundary (mod 2048)."""
    pad = 1
    while True:
        tree = tail_document(pad)
        size = len(encode_document(tree).data)
        step = (residue - size) % CHUNK
        if step == 0 and size > CHUNK:
            return tree
        pad += step or CHUNK


def encoded_size(tree: Node) -> int:
    return len(encode_document(tree).data)


def record_sizes(size: int, scheme: str):
    """The stored length of every chunk record of a ``size``-byte
    encoding: full records, then the last cut after its last block."""
    header = 0 if scheme == "ECB" else DIGEST
    count = -(-size // CHUNK)
    last = size - (count - 1) * CHUNK
    return [header + CHUNK] * (count - 1) + [header + -(-last // BLOCK) * BLOCK]


def reference(tree: Node, query=None) -> str:
    return serialize_events(reference_authorized_view(tree, POLICY, query=query))


def open_station(kind: str, directory) -> SecureStation:
    if kind == "memory":
        return SecureStation()
    return SecureStation(StationConfig(store=LogStore(str(directory))))


def publish(station: SecureStation, tree: Node, scheme: str) -> None:
    """``plain`` streams every request; ``indexed`` plans structural ones."""
    for document_id, index in (("plain", False), ("indexed", True)):
        station.publish(document_id, tree, PublishOptions(scheme=scheme, index=index))
        station.grant(document_id, POLICY)


def check_views(station: SecureStation, tree: Node) -> None:
    """Streamed, indexed and cached views all equal the reference."""
    for document_id in ("plain", "indexed"):
        for query in QUERIES:
            expected = reference(tree, query)
            cold = station.evaluate(document_id, "s", query=query)
            hit = station.evaluate(document_id, "s", query=query)
            assert serialize_events(cold.events) == expected, (document_id, query)
            assert serialize_events(hit.events) == expected, (document_id, query)
            assert hit.cache_hit
            if document_id == "indexed" and query == QUERIES[1]:
                assert cold.indexed


def check_stored(station: SecureStation, tree: Node, scheme: str) -> None:
    expected = sum(record_sizes(encoded_size(tree), scheme))
    for document_id in ("plain", "indexed"):
        assert station.document(document_id).secure.stored_size() == expected
    if station.store.persistent:
        assert station.store.describe()["live_bytes"] == 2 * expected


# ----------------------------------------------------------------------
# Views
# ----------------------------------------------------------------------
@pytest.mark.parametrize("residue", RESIDUES)
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("store", STORES)
def test_trimmed_tail_views(store, scheme, residue, tmp_path):
    tree = sized_document(residue)
    assert encoded_size(tree) % CHUNK == residue
    with open_station(store, tmp_path) as station:
        publish(station, tree, scheme)
        check_stored(station, tree, scheme)
        check_views(station, tree)
        if store == "log":
            station.store.compact()
            check_stored(station, tree, scheme)
            check_views(station, tree)
    if store == "log":
        with open_station(store, tmp_path) as restarted:
            for document_id in ("plain", "indexed"):
                restarted.grant(document_id, POLICY)
            check_stored(restarted, tree, scheme)
            check_views(restarted, tree)


# ----------------------------------------------------------------------
# Updates
# ----------------------------------------------------------------------
def _tail_text(tree: Node) -> str:
    return tree.children[RECORDS].children[0]


UPDATES = {
    # (starting residue, new <tail> text from the old one)
    "grow-across": (2040, lambda text: text + "g" * 20),
    "shrink-across": (9, lambda text: text[:-20]),
    "same-length-in-last": (1000, lambda text: text[:-3] + "uuu"),
}


@pytest.mark.parametrize("kind", sorted(UPDATES))
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("store", STORES)
def test_trimmed_tail_updates(store, scheme, kind, tmp_path):
    residue, edit = UPDATES[kind]
    tree = sized_document(residue)
    op = UpdateOp.set_text(TAIL, edit(_tail_text(tree)))
    model = op.apply(tree)
    old_count = -(-encoded_size(tree) // CHUNK)
    new_count = -(-encoded_size(model) // CHUNK)
    assert (new_count - old_count) == {
        "grow-across": 1,
        "shrink-across": -1,
        "same-length-in-last": 0,
    }[kind]
    with open_station(store, tmp_path) as station:
        publish(station, tree, scheme)
        sizes = record_sizes(encoded_size(model), scheme)
        for document_id in ("plain", "indexed"):
            result = station.update(document_id, op)
            assert new_count - 1 in result.dirty_chunks
            if kind == "same-length-in-last":
                assert result.dirty_chunks == {new_count - 1}
            assert result.reencrypted_bytes == sum(
                sizes[index] for index in result.dirty_chunks
            )
        check_stored(station, model, scheme)
        check_views(station, model)
        if store == "log":
            station.store.compact()
            check_stored(station, model, scheme)
            check_views(station, model)
    if store == "log":
        with open_station(store, tmp_path) as restarted:
            for document_id in ("plain", "indexed"):
                restarted.grant(document_id, POLICY)
            check_stored(restarted, model, scheme)
            check_views(restarted, model)


# ----------------------------------------------------------------------
# Tamper with the trimmed tail
# ----------------------------------------------------------------------
TAMPER_RESIDUE = 9  # a 16-byte last payload
TAMPERS = ["append", "cut", "splice-full"]


def _tampered(stored: bytes, last: int, scheme: str, how: str) -> bytes:
    """``stored``, whose final record is ``last`` bytes, with that
    record lengthened by 8 B, cut by 8 B, or replaced by a full-length
    record: the genuine trimmed bytes plus forged padding ciphertext."""
    stored = bytes(stored)
    if how == "append":
        return stored + b"\xa5" * 8
    if how == "cut":
        return stored[:-8]
    full = (0 if scheme == "ECB" else DIGEST) + CHUNK
    return stored + b"\x5a" * (full - last)


def _view_or_error(station: SecureStation) -> str:
    try:
        return serialize_events(station.evaluate("doc", "s").events)
    except (IntegrityError, StoreError):
        return "raised"


def _publish_tamper_target(station: SecureStation, scheme: str):
    tree = sized_document(TAMPER_RESIDUE)
    station.publish("doc", tree, PublishOptions(scheme=scheme))
    station.grant("doc", POLICY)
    return tree, record_sizes(encoded_size(tree), scheme)[-1]


@pytest.mark.parametrize("how", TAMPERS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_tampered_tail_in_memory(scheme, how):
    station = SecureStation(StationConfig(cache_views=False))
    tree, last = _publish_tamper_target(station, scheme)
    secure = station.document("doc").secure
    secure.stored[:] = _tampered(secure.stored, last, scheme, how)
    outcome = _view_or_error(station)
    if scheme == "ECB" and how != "cut":
        # No integrity: only the length check can catch it, and a full
        # (legacy) length is accepted; the padding is never read.
        assert outcome in ("raised", reference(tree))
    else:
        assert outcome == "raised"


def _rewrite_log_tail(directory: pathlib.Path, old: int, new: bytes) -> None:
    """Replace the last ``old`` bytes of the log's last segment with
    ``new``, its header's length and CRC recomputed: what a terminal
    that edits its own log can do."""
    import zlib

    from repro.store.log import _HEADER

    path = directory / "chunks-000000.log"
    data = path.read_bytes()
    position = last = 0
    while position < len(data):
        last = position
        position += _HEADER.size + _HEADER.unpack_from(data, position)[1]
    magic = _HEADER.unpack_from(data, last)[0]
    body = data[last + _HEADER.size : len(data) - old] + new
    header = _HEADER.pack(magic, len(body), zlib.crc32(body) & 0xFFFFFFFF)
    path.write_bytes(data[:last] + header + body)


def _tamper_log(directory, scheme: str, how: str):
    """Publish the tamper target alone in a log store, then rewrite its
    last record on disk; returns the document tree."""
    with open_station("log", directory) as station:
        tree, last = _publish_tamper_target(station, scheme)
        genuine = bytes(station.document("doc").secure.stored)
    if how == "flip":
        tampered = genuine[:-1] + bytes([genuine[-1] ^ 0x01])
    else:
        tampered = _tampered(genuine, last, scheme, how)
    _rewrite_log_tail(directory, last, tampered[len(genuine) - last :])
    return tree


@pytest.mark.parametrize("how", TAMPERS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_tampered_tail_length_in_log(scheme, how, tmp_path):
    """On disk the trusted manifest pins the last record's length (and
    the committed log tail), so a log edit that changes the length
    never reaches a reader."""
    _tamper_log(tmp_path, scheme, how)
    if how == "cut":
        # The committed run now ends past the log: the entry is dropped.
        with open_station("log", tmp_path) as station:
            assert "doc" not in station.store
            assert station.store.counters["lost_entries_dropped"] == 1
    else:
        with pytest.raises(IntegrityError, match="structure damaged"):
            LogStore(str(tmp_path))


@pytest.mark.parametrize("scheme", SCHEMES[1:])
def test_flipped_tail_in_log_fails_verification(scheme, tmp_path):
    """A same-length edit of the trimmed record on disk (segment CRC
    recomputed) fails the scheme's verification of the stored bytes."""
    _tamper_log(tmp_path, scheme, "flip")
    with open_station("log", tmp_path) as station:
        station.grant("doc", POLICY)
        with pytest.raises(IntegrityError):
            station.evaluate("doc", "s")


# ----------------------------------------------------------------------
# Stores written with padded tails
# ----------------------------------------------------------------------
LEGACY = json.loads((FIXTURE / "views.json").read_text())


def _legacy_tree(entry) -> Node:
    tree = sized_document(entry["residue"])
    if entry["edit"]:
        tree = UpdateOp.set_text(*entry["edit"]).apply(tree)
    return tree


def _check_legacy_views(station, document_id, entry, tree) -> None:
    for query, digest in entry["views"].items():
        result = station.evaluate(document_id, "s", query=query or None)
        view = serialize_events(result.events)
        assert hashlib.sha256(view.encode("utf-8")).hexdigest() == digest
        assert view == reference(tree, query or None)


def test_padded_tail_store_serves_identical_views(tmp_path):
    directory = tmp_path / "store"
    shutil.copytree(FIXTURE / "store", directory)
    with open_station("log", directory) as station:
        # Five manifest lines (the cbc-shac edit superseded one), four
        # documents: recovery counts each served entry's dropped blob.
        assert station.store.counters["index_blobs_dropped"] == len(LEGACY)
        assert station.store.counters["lost_entries_dropped"] == 0
        for document_id, entry in LEGACY.items():
            station.grant(document_id, POLICY)
            # A blob without a manifest digest is dropped: served streamed.
            assert station.document(document_id).index is None
            secure = station.document(document_id).secure
            assert secure.plaintext_size == entry["size"]
            assert secure.stored_size() == entry["stored"]
            assert entry["stored"] > sum(record_sizes(entry["size"], entry["scheme"]))
            _check_legacy_views(station, document_id, entry, _legacy_tree(entry))
        station.store.compact()
        for document_id, entry in LEGACY.items():
            secure = station.document(document_id).secure
            assert secure.stored_size() == entry["stored"]
            _check_legacy_views(station, document_id, entry, _legacy_tree(entry))
        # An edit inside the last chunk rewrites it trimmed.
        models = {}
        for document_id, entry in LEGACY.items():
            tree = _legacy_tree(entry)
            op = UpdateOp.set_text(TAIL, _tail_text(tree)[:-3] + "uuu")
            models[document_id] = op.apply(tree)
            station.update(document_id, op)
            size = station.document(document_id).secure.stored_size()
            assert size == sum(record_sizes(entry["size"], entry["scheme"]))
    with open_station("log", directory) as restarted:
        for document_id, model in models.items():
            restarted.grant(document_id, POLICY)
            for query in QUERIES:
                result = restarted.evaluate(document_id, "s", query=query)
                assert serialize_events(result.events) == reference(model, query)


# ----------------------------------------------------------------------
# Cluster repair
# ----------------------------------------------------------------------
@pytest.mark.parametrize("store", STORES)
def test_cluster_repair_copies_trimmed_records(store, tmp_path):
    tree = sized_document(TAMPER_RESIDUE)
    cluster = StationCluster(
        replicas=1, store_dir=str(tmp_path) if store == "log" else None
    )
    try:
        cluster.start_backends(2)
        for scheme in SCHEMES:
            cluster.publish(scheme, tree, [POLICY], scheme=scheme)
        for scheme in SCHEMES:
            source = cluster.nodes[cluster.primary_of(scheme)].station
            (target_name,) = set(cluster.nodes) - {cluster.primary_of(scheme)}
            cluster._republish(scheme, target_name, 0)
            target = cluster.nodes[target_name].station
            stored = bytes(target.document(scheme).secure.stored)
            assert stored == bytes(source.document(scheme).secure.stored)
            assert len(stored) == sum(record_sizes(encoded_size(tree), scheme))
            for query in QUERIES:
                result = target.evaluate(scheme, "s", query=query)
                assert serialize_events(result.events) == reference(tree, query)
    finally:
        cluster.stop()

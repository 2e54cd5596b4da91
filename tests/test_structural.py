"""The structural pre/post index (repro.skipindex.structural).

Three layers under test, each against its streaming oracle:

* the :class:`IndexedNavigator` must be event- and byte-identical to
  :class:`SkipIndexNavigator` under full walks *and* arbitrary
  skip/capture interleavings — the navigator never decrypts structure,
  so any divergence means the item table disagrees with the encoding;
* :meth:`StructuralIndex.match` must be a superset of the real matches
  of any wildcard-free path (exactly empty only when the path provably
  selects nothing), checked against a brute-force DOM matcher;
* the :class:`SecureStation` serving path: indexed views byte-identical
  to streamed ones, early exits decrypting zero chunks, stale indexes
  falling back, updates refreshing incrementally or by rebuild.
"""

import random
from array import array

import pytest

from repro import (
    AccessRule,
    Policy,
    PublishOptions,
    StationConfig,
    connect,
    open_station,
)
from repro.crypto.chunks import ChunkLayout
from repro.engine.pipeline import prepare_document
from repro.engine.plans import compile_query, structural_steps
from repro.engine.station import SecureStation
from repro.skipindex.decoder import SkipIndexNavigator
from repro.skipindex.encoder import encode_document
from repro.skipindex.structural import (
    ITEM_LEAF,
    IndexedNavigator,
    build_structural_index,
    parse_structural_index,
)
from repro.skipindex.updates import UpdateOp, refresh_structural_index
from repro.xmlkit.dom import Node
from repro.xmlkit.parser import parse_document
from repro.xmlkit.serializer import serialize, serialize_events

TAGS = ["a", "b", "c", "d", "e"]
VALUES = ["1", "22", "333", "x"]


def random_tree(rng, max_nodes=40):
    budget = [rng.randint(1, max_nodes)]

    def build(depth):
        node = Node(rng.choice(TAGS))
        while budget[0] > 0 and rng.random() < (0.7 if depth < 4 else 0.25):
            budget[0] -= 1
            if rng.random() < 0.4:
                node.children.append(rng.choice(VALUES))
            else:
                node.children.append(build(depth + 1))
        return node

    return build(1)


def _normalize(item):
    # SubtreeMeta deliberately has no __eq__; compare by value.
    if item is None:
        return None
    kind, payload, meta = item
    if meta is not None:
        meta = (frozenset(meta.desc_tags), meta.size)
    return (kind, payload, meta)


def drain(navigator):
    events = []
    while True:
        item = navigator.next()
        if item is None:
            return events
        events.append(_normalize(item))


def selective_document(records=40):
    """Many bulky siblings plus one rare subtree — the index's win case."""
    root = Node("folder")
    for index in range(records):
        rec = Node("rec")
        name = Node("name")
        name.add("n%d" % index)
        data = Node("data")
        data.add("x" * 300)
        rec.add(name)
        rec.add(data)
        root.add(rec)
    rare = Node("rare")
    val = Node("val")
    val.add("gold")
    rare.add(val)
    root.add(rare)
    return root


FOLDER_POLICY = Policy([AccessRule("+", "//folder")], subject="s")


# ----------------------------------------------------------------------
# Navigator identity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(40))
def test_indexed_navigator_full_walk_identity(seed):
    rng = random.Random(seed)
    encoded = encode_document(random_tree(rng))
    index = build_structural_index(encoded)
    baseline = drain(
        SkipIndexNavigator(
            encoded.data,
            dictionary=encoded.dictionary,
            start_offset=encoded.root_offset,
        )
    )
    indexed = drain(IndexedNavigator(encoded.data, index, encoded.dictionary))
    assert indexed == baseline


@pytest.mark.parametrize("seed", range(40, 70))
def test_indexed_navigator_random_skips_identity(seed):
    """Random interleavings of next/skip/capture on both navigators."""
    rng = random.Random(seed)
    encoded = encode_document(random_tree(rng))
    index = build_structural_index(encoded)
    a = SkipIndexNavigator(
        encoded.data,
        dictionary=encoded.dictionary,
        start_offset=encoded.root_offset,
    )
    b = IndexedNavigator(encoded.data, index, encoded.dictionary)
    for _ in range(600):
        roll = rng.random()
        if roll < 0.6 or not a._stack:
            ea, eb = a.next(), b.next()
            assert _normalize(ea) == _normalize(eb)
            if ea is None:
                break
        elif roll < 0.75:
            a.skip_subtree()
            b.skip_subtree()
        elif roll < 0.9:
            fa, fb = a.skip_and_capture(), b.skip_and_capture()
            assert (fa is None) == (fb is None)
            if fa is not None:
                assert list(fa()) == list(fb())
        else:
            fa, fb = a.skip_rest_and_capture(), b.skip_rest_and_capture()
            assert (fa is None) == (fb is None)
            if fa is not None:
                assert list(fa()) == list(fb())


# ----------------------------------------------------------------------
# Blob round-trip and staleness
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(70, 90))
def test_blob_round_trip(seed):
    tree = random_tree(random.Random(seed))
    if seed % 2:
        # A dictionary past 64 tags: the parser ORs bitmaps wider than
        # any fixed-width slot.
        wide = Node("wide")
        for number in range(70):
            wide.add(Node("w%02d" % number, [str(number)]))
        tree.add(wide)
    encoded = encode_document(tree)
    index = build_structural_index(encoded)
    widest = max(map(index.desc_mask, range(index.item_count)))
    assert (widest.bit_length() > 64) == bool(seed % 2)
    restored = parse_structural_index(index.to_bytes())
    # __eq__ covers every column, the element ones too: building derives
    # them from the decoder's frames, parsing from the blob's sizes.
    assert restored == index
    assert restored.to_bytes() == index.to_bytes()
    assert restored.matches_document(encoded)


def test_parse_rejects_malformed_blobs():
    from repro.skipindex.bitio import put_varints
    from repro.skipindex.structural import INDEX_MAGIC, StructuralIndexError

    def blob(*fields, version=2):
        out = bytearray(INDEX_MAGIC)
        out.append(version)
        put_varints(out, fields)
        return bytes(out)

    # <a><b>xyz</b></a>: 20 bytes, root item at 10, 2 tags.  Internal
    # <a> (head 3) holds 5 bytes and 1 descendant tag; leaf <b> (head 4)
    # holds 3 text bytes and ends the encoding.
    good = blob(20, 10, 2, 3, 5, 1, 4, 3)
    encoded = encode_document(parse_document("<a><b>xyz</b></a>"))
    assert build_structural_index(encoded).to_bytes() == good
    assert parse_structural_index(good).item_count == 2
    assert parse_structural_index(good, encoded).item_count == 2
    other = encode_document(parse_document("<a><b>xyzw</b></a>"))
    with pytest.raises(StructuralIndexError, match="another encoding"):
        # Checked first: a forged tag count would otherwise size bitmaps.
        parse_structural_index(good, other)
    for bad, reason in (
        (b"XSIY" + good[4:], "magic"),
        (good[:-1], "truncated"),
        (blob(20, 10, 2, 3, 5, 1, 4, 3, version=1), "version 1"),
        (blob(20, 10, 2, 0, 5, 1, 4, 3), "head 0"),  # text item as the root
        (blob(20, 10, 2, 3, 5, 1, 6, 3), "head 6"),  # tag 2 >= tag_count
        (blob(1 << 70, 1 << 66, 1, 2, 0), "out of range"),  # start too wide
        (good + b"\x05\x07junk", "tile"),  # trailing bytes
        (blob(20, 10, 2, 3, 5, 1, 4, 4), "overruns"),  # <b> past <a>'s end
        (blob(21, 10, 2, 3, 5, 1, 4, 3), "tile"),  # ends before total_size
        (blob(20, 10, 2, 3, 5, 2, 4, 3), "count"),  # 2 != the bitmap's 1
    ):
        with pytest.raises(StructuralIndexError, match=reason):
            parse_structural_index(bad)


def test_matches_document_rejects_other_encodings():
    a = encode_document(parse_document("<a><b>1</b></a>"))
    b = encode_document(parse_document("<a><b>1</b><c>2</c></a>"))
    index = build_structural_index(a)
    assert index.matches_document(a)
    assert not index.matches_document(b)


# ----------------------------------------------------------------------
# Matcher vs brute force
# ----------------------------------------------------------------------
def _reference_match(tree, steps):
    """Brute-force structural matcher over the DOM (document order)."""
    order = []

    def walk(node, level, parent):
        pre = len(order)
        order.append((node, parent, level))
        for child in node.children:
            if not isinstance(child, str):
                walk(child, level + 1, pre)

    walk(tree, 0, None)
    current = None
    for position, (axis, tag) in enumerate(steps):
        matched = set()
        for pre, (node, parent, level) in enumerate(order):
            if node.tag != tag:
                continue
            if position == 0:
                if axis == "/" and level != 0:
                    continue
                matched.add(pre)
            elif axis == "/":
                if parent in current:
                    matched.add(pre)
            else:
                ancestor = parent
                while ancestor is not None and ancestor not in current:
                    ancestor = order[ancestor][1]
                if ancestor is not None:
                    matched.add(pre)
        current = matched
        if not current:
            return ()
    return tuple(sorted(current))


def _random_structural_path(rng):
    return "".join(
        ("//" if rng.random() < 0.5 else "/") + rng.choice(TAGS)
        for _ in range(rng.randint(1, 3))
    )


@pytest.mark.parametrize("seed", range(90, 140))
def test_match_equals_brute_force(seed):
    rng = random.Random(seed)
    tree = random_tree(rng)
    encoded = encode_document(tree)
    index = build_structural_index(encoded)
    for _ in range(8):
        path = _random_structural_path(rng)
        steps = structural_steps(compile_query(path).path)
        assert steps is not None, path
        assert index.match(steps, encoded.dictionary) == _reference_match(
            tree, steps
        ), path


def _column_match(index, dictionary, steps):
    """Brute-force matcher over the index's own ``tags``/``elem_parent``
    columns: no per-tag table, one scan of every element per step."""
    codes = [index.tags[item] for item in index.elem_items]
    current = None
    for position, (axis, tag) in enumerate(steps):
        code = dictionary.code(tag) if tag in dictionary else -1
        matched = set()
        for pre, element_code in enumerate(codes):
            if element_code != code:
                continue
            parent = index.elem_parent[pre]
            if position == 0:
                if axis == "//" or parent < 0:
                    matched.add(pre)
            elif axis == "/":
                if parent in current:
                    matched.add(pre)
            else:
                while parent >= 0 and parent not in current:
                    parent = index.elem_parent[parent]
                if parent >= 0:
                    matched.add(pre)
        current = matched
        if not current:
            return ()
    return tuple(sorted(current))


@pytest.mark.parametrize("seed", range(90, 140))
def test_match_equals_column_scan(seed):
    rng = random.Random(seed)
    encoded = encode_document(random_tree(rng))
    index = build_structural_index(encoded)
    # The two-array tag table: each tag's slice is its elements in
    # document order.
    pres, bounds = index._by_tag()
    for code in range(index.tag_count):
        expected = [
            pre
            for pre, item in enumerate(index.elem_items)
            if index.tags[item] == code
        ]
        assert list(pres[bounds[code] : bounds[code + 1]]) == expected
    single = [((axis, tag),) for axis in ("/", "//") for tag in TAGS]
    paths = single + [first + second for first in single for second in single]
    for steps in paths:
        assert index.match(steps, encoded.dictionary) == _column_match(
            index, encoded.dictionary, steps
        ), steps


def test_structural_steps_eligibility():
    assert structural_steps(compile_query("/a/b").path) == (
        ("/", "a"),
        ("/", "b"),
    )
    assert structural_steps(compile_query("//a//b").path) == (
        ("//", "a"),
        ("//", "b"),
    )
    # Wildcard steps are plan-ineligible.
    assert structural_steps(compile_query("/a/*").path) is None
    assert structural_steps(compile_query("//*//b").path) is None
    # Predicates do not block eligibility (the match is a superset).
    assert structural_steps(compile_query("/a/b[c]").path) is not None


def test_planned_chunks_subset_and_cover():
    tree = selective_document()
    encoded = encode_document(tree)
    index = build_structural_index(encoded)
    layout = ChunkLayout()
    steps = structural_steps(compile_query("//rare/val").path)
    candidates = index.match(steps, encoded.dictionary)
    assert candidates
    planned = index.planned_chunks(candidates, layout)
    total = layout.chunk_count(len(encoded.data))
    assert set(planned) <= set(range(total))
    # The rare subtree sits at the tail of a multi-chunk document: the
    # plan must be a small fraction of the store.
    assert total > 5
    assert len(planned) < total / 2


# ----------------------------------------------------------------------
# Station serving: identity, early exit, staleness, fewer chunks
# ----------------------------------------------------------------------
def _stations(document, **publish_kw):
    streamed = SecureStation(StationConfig(cache_views=False))
    streamed.publish("d", document)
    streamed.grant("d", FOLDER_POLICY)
    indexed = SecureStation(StationConfig(cache_views=False))
    indexed.publish("d", document, PublishOptions(index=True, **publish_kw))
    indexed.grant("d", FOLDER_POLICY)
    return streamed, indexed


def test_station_indexed_identical_and_fewer_chunks():
    streamed, indexed = _stations(serialize(selective_document()))
    a = streamed.evaluate("d", "s", query="/folder/rare/val")
    b = indexed.evaluate("d", "s", query="/folder/rare/val")
    assert not a.indexed and b.indexed
    assert serialize_events(b.events) == serialize_events(a.events)
    assert b.meter.chunks_accessed < a.meter.chunks_accessed
    assert indexed.stats.indexed_requests == 1
    assert indexed.stats.index_planned_chunks < indexed.stats.index_chunks_total


def test_station_early_exit_zero_chunks():
    streamed, indexed = _stations(serialize(selective_document()))
    a = streamed.evaluate("d", "s", query="/folder/nosuch")
    b = indexed.evaluate("d", "s", query="/folder/nosuch")
    assert b.indexed
    assert b.events == list(a.events) == []
    assert b.meter.chunks_accessed == 0
    assert b.meter.bytes_decrypted == 0
    assert indexed.stats.index_early_exits == 1


def test_station_wildcard_query_streams():
    _, indexed = _stations(serialize(selective_document()))
    result = indexed.evaluate("d", "s", query="//rare/*")
    assert not result.indexed
    assert indexed.stats.streamed_requests == 1


def test_station_unindexed_document_streams():
    station = SecureStation(StationConfig(cache_views=False))
    station.publish("d", serialize(selective_document()))
    station.grant("d", FOLDER_POLICY)
    result = station.evaluate("d", "s", query="/folder/rare/val")
    assert not result.indexed
    assert station.stats.indexed_requests == 0


def test_station_stale_index_falls_back():
    """A PreparedDocument whose index describes other bytes must never
    be trusted: the request streams and the staleness counter ticks."""
    prepared = prepare_document(selective_document(), index=True)
    other = encode_document(parse_document("<folder><x>1</x></folder>"))
    prepared.index = build_structural_index(other)
    station = SecureStation(StationConfig(cache_views=False))
    station.publish("d", prepared)
    station.grant("d", FOLDER_POLICY)
    oracle = SecureStation(StationConfig(cache_views=False))
    oracle.publish("d", serialize(selective_document()))
    oracle.grant("d", FOLDER_POLICY)
    result = station.evaluate("d", "s", query="/folder/rare/val")
    reference = oracle.evaluate("d", "s", query="/folder/rare/val")
    assert not result.indexed
    assert station.stats.index_stale == 1
    assert serialize_events(result.events) == serialize_events(reference.events)


def test_station_cached_hit_replays_indexed_flag():
    station = SecureStation(StationConfig(cache_views=True))
    station.publish("d", serialize(selective_document()), PublishOptions(index=True))
    station.grant("d", FOLDER_POLICY)
    miss = station.evaluate("d", "s", query="/folder/rare/val")
    hit = station.evaluate("d", "s", query="/folder/rare/val")
    assert miss.indexed and hit.indexed and hit.cache_hit
    assert hit.events == miss.events


# ----------------------------------------------------------------------
# Updates: incremental reuse vs rebuild
# ----------------------------------------------------------------------
def test_update_same_length_text_is_incremental():
    streamed, indexed = _stations(serialize(selective_document()))
    op = UpdateOp.set_text([40, 0], "goat")  # "gold" -> same length
    streamed.update("d", op)
    indexed.update("d", op)
    assert indexed.stats.index_incrementals == 1
    assert indexed.stats.index_rebuilds == 0
    a = streamed.evaluate("d", "s", query="/folder/rare/val")
    b = indexed.evaluate("d", "s", query="/folder/rare/val")
    assert b.indexed
    assert serialize_events(b.events) == serialize_events(a.events)


def test_update_structural_change_rebuilds():
    streamed, indexed = _stations(serialize(selective_document()))
    child = Node("zz")
    child.add("fresh")
    op = UpdateOp.insert([40], child)
    streamed.update("d", op)
    indexed.update("d", op)
    assert indexed.stats.index_rebuilds == 1
    a = streamed.evaluate("d", "s", query="/folder/rare/zz")
    b = indexed.evaluate("d", "s", query="/folder/rare/zz")
    assert b.indexed
    assert serialize_events(b.events) == serialize_events(a.events)


def test_refresh_modes_unit():
    from repro.skipindex.updates import impact_between, reencode_after
    from repro.skipindex.decoder import decode_document

    encoded = encode_document(selective_document())
    index = build_structural_index(encoded)
    tree = decode_document(encoded)
    # Same-length text edit: reuse.
    from repro.skipindex.updates import insert_element, update_text

    new_tree = update_text(tree, [40, 0], "goat")
    new_encoded, grew = reencode_after(encoded, new_tree)
    impact = impact_between(
        encoded, new_encoded, tree, new_tree, dictionary_grew=grew
    )
    refreshed, mode = refresh_structural_index(index, new_encoded, impact)
    assert mode == "incremental" and refreshed is index
    assert refreshed == build_structural_index(new_encoded)
    # Different-length text edit: rebuild (offsets after the edit shift).
    longer = update_text(tree, [40, 0], "a-much-longer-value")
    long_encoded, grew = reencode_after(encoded, longer)
    impact = impact_between(
        encoded, long_encoded, tree, longer, dictionary_grew=grew
    )
    refreshed, mode = refresh_structural_index(index, long_encoded, impact)
    assert mode == "rebuild" and refreshed is not index
    assert refreshed == build_structural_index(long_encoded)
    # A new tag grows the dictionary: the worst case, rebuilt.
    child = Node("brand-new")
    child.add("fresh")
    inserted = insert_element(tree, [40], child)
    new_encoded, grew = reencode_after(encoded, inserted)
    impact = impact_between(
        encoded, new_encoded, tree, inserted, dictionary_grew=grew
    )
    refreshed, mode = refresh_structural_index(index, new_encoded, impact)
    assert grew and mode == "rebuild"
    assert refreshed == build_structural_index(new_encoded)


# ----------------------------------------------------------------------
# Layout: typed-array columns
# ----------------------------------------------------------------------
def _column_typecodes(index):
    names = ("kinds", "starts", "contents", "sizes", "tags", "elem_items",
             "elem_parent")
    for name in names:
        assert type(getattr(index, name)) is array, name
    return {name: getattr(index, name).typecode for name in names}


def test_index_columns_are_typed_arrays():
    from repro.datasets.hospital import HospitalConfig, generate_hospital

    # A small hospital document: a few KiB over a few dozen tags.
    encoded = encode_document(generate_hospital(HospitalConfig(folders=2)))
    assert 256 <= len(encoded.data) < 1 << 15
    index = build_structural_index(encoded)
    assert _column_typecodes(index) == {
        "kinds": "B", "starts": "H", "contents": "H", "sizes": "H",
        "tags": "b", "elem_items": "h", "elem_parent": "h",
    }
    assert type(index.descs) is bytes
    assert len(index.descs) == index.item_count * ((index.tag_count + 7) // 8)
    assert parse_structural_index(index.to_bytes(), encoded) == index

    # An encoding past 64 KiB widens offsets and element numbers.
    encoded = encode_document(selective_document(records=250))
    assert len(encoded.data) > 1 << 16
    index = build_structural_index(encoded)
    assert _column_typecodes(index) == {
        "kinds": "B", "starts": "I", "contents": "I", "sizes": "I",
        "tags": "b", "elem_items": "i", "elem_parent": "i",
    }
    restored = parse_structural_index(index.to_bytes(), encoded)
    assert restored == index and _column_typecodes(restored)["starts"] == "I"
    # <rare> follows <folder> and 250 three-element records.
    steps = [("/", "folder"), ("/", "rare")]
    assert index.match(steps, encoded.dictionary) == (751,)
    pres, bounds = index._by_tag()
    assert pres.typecode == bounds.typecode == "i"
    assert len(bounds) == index.tag_count + 1
    assert sorted(pres) == list(range(index.element_count))


def test_column_code_is_the_narrowest_that_holds_the_bound():
    from repro.skipindex.structural import _column_code

    assert [_column_code(n) for n in (255, 256, 65535, 65536)] == list("BHHI")
    assert _column_code((1 << 32) - 1) == "I"
    assert _column_code(1 << 32) == "Q"
    assert [_column_code(n, signed=True) for n in (127, 128, 32768)] == list("bhi")
    assert _column_code(1 << 31, signed=True) == "q"


def test_mean_resident_index_bytes_per_cold_corpus_document():
    import sys

    from repro.datasets.hospital import HospitalConfig, generate_hospital

    # The 128 document shapes of the serving benchmark's cold corpus.
    total = 0
    for number in range(128):
        config = HospitalConfig(
            folders=4, doctors=4, acts_per_folder=3, labresults_per_folder=2,
            seed=7 + number,
        )
        index = build_structural_index(encode_document(generate_hospital(config)))
        columns = [
            index.kinds, index.starts, index.contents, index.sizes, index.tags,
            index.descs, index.elem_items, index.elem_parent, *index._by_tag(),
        ]
        total += sum(map(sys.getsizeof, columns))
    # Four-byte columns and a list of bitmaps summed 7,728 B this way
    # (9,128 with the boxed bitmaps the list points at).
    assert total / 128 <= 5_000


def test_descs_wider_than_64_bits_round_trip():
    # 100 distinct tags under one root: its descendant bitmap needs 100
    # bits, more than any fixed-width array slot holds.
    root = Node("root")
    for number in range(100):
        child = Node("t%03d" % number)
        child.add(str(number))
        root.add(child)
    wrapper = Node("top")
    wrapper.add(root)
    encoded = encode_document(wrapper)
    index = build_structural_index(encoded)
    # 102 tags: 13-byte masks, the widest of them <top>'s.
    assert len(index.descs) == index.item_count * 13
    assert index.desc_mask(0) == (1 << 102) - 2
    assert max(map(index.desc_mask, range(index.item_count))).bit_length() > 64
    restored = parse_structural_index(index.to_bytes())
    assert restored == index
    baseline = drain(
        SkipIndexNavigator(
            encoded.data,
            dictionary=encoded.dictionary,
            start_offset=encoded.root_offset,
        )
    )
    assert drain(IndexedNavigator(encoded.data, restored, encoded.dictionary)) == (
        baseline
    )


# ----------------------------------------------------------------------
# Persistence: LogStore blob, restart, compaction
# ----------------------------------------------------------------------
def test_logstore_persists_index_across_restart(tmp_path):
    from repro.store import LogStore

    source = serialize(selective_document())
    with SecureStation(StationConfig(store=LogStore(str(tmp_path)))) as station:
        station.publish("d", source, PublishOptions(index=True))
        station.grant("d", FOLDER_POLICY)
        first = station.evaluate("d", "s", query="/folder/rare/val")
        assert first.indexed
        original = station.document("d").index.to_bytes()
    with SecureStation(StationConfig(store=LogStore(str(tmp_path)))) as restarted:
        restarted.grant("d", FOLDER_POLICY)
        prepared = restarted.document("d")
        assert prepared.index is not None
        assert prepared.index.to_bytes() == original
        again = restarted.evaluate("d", "s", query="/folder/rare/val")
        assert again.indexed
        assert serialize_events(again.events) == serialize_events(first.events)


def test_logstore_index_survives_update_and_compaction(tmp_path):
    from repro.store import LogStore

    directory = str(tmp_path)
    with SecureStation(StationConfig(store=LogStore(directory))) as station:
        station.publish(
            "d", serialize(selective_document()), PublishOptions(index=True)
        )
        station.grant("d", FOLDER_POLICY)
        station.update("d", UpdateOp.set_text([40, 0], "goat"))
        station.store.compact()
        live = station.evaluate("d", "s", query="/folder/rare/val")
        assert live.indexed
    with SecureStation(StationConfig(store=LogStore(directory))) as restarted:
        restarted.grant("d", FOLDER_POLICY)
        assert restarted.document("d").index is not None
        result = restarted.evaluate("d", "s", query="/folder/rare/val")
        assert result.indexed
        assert serialize_events(result.events) == serialize_events(live.events)


def _logstore_views(station):
    """(indexed?, full view, query view) of document "d" for "s"."""
    full = station.evaluate("d", "s")
    query = station.evaluate("d", "s", query="/folder/rare/val")
    return (
        query.indexed,
        serialize_events(full.events),
        serialize_events(query.events),
    )


def test_logstore_equal_length_edit_appends_only_records(tmp_path):
    from repro.store import LogStore

    directory = str(tmp_path)
    with SecureStation(StationConfig(store=LogStore(directory))) as station:
        station.publish(
            "d", serialize(selective_document()), PublishOptions(index=True)
        )
        station.grant("d", FOLDER_POLICY)
        store = station.store
        span = store._states["d"].index_span
        first_new = len(store._segments)
        station.update("d", UpdateOp.set_text([40, 0], "goat"))
        assert station.stats.index_incrementals == 1
        # The reused index keeps its span; only chunk records append.
        state = store._states["d"]
        assert state.index_span == span
        appended = {segment.payload_offset for segment in store._segments[first_new:]}
        runs = {store._segment_at(offset).payload_offset for *_, offset in state.runs}
        assert appended and appended <= runs
        live = _logstore_views(station)
        assert live[0]
    with SecureStation(StationConfig(store=LogStore(directory))) as restarted:
        restarted.grant("d", FOLDER_POLICY)
        assert _logstore_views(restarted) == live
        # The index parsed back from the log is reused the same way.
        restarted.update("d", UpdateOp.set_text([40, 0], "gold"))
        assert restarted.store._states["d"].index_span == span
        live = _logstore_views(restarted)
        assert live[0] and "gold" in live[2]
        restarted.store.compact()
        assert _logstore_views(restarted) == live
    with SecureStation(StationConfig(store=LogStore(directory))) as compacted:
        compacted.grant("d", FOLDER_POLICY)
        assert _logstore_views(compacted) == live
        assert compacted.store.counters["index_blobs_dropped"] == 0


def _version_1_blob(index):
    """The version 1 layout: per item kind, start delta, header length,
    size, tag and full descendant bitmap."""
    from repro.skipindex.bitio import put_varints
    from repro.skipindex.structural import INDEX_MAGIC, ITEM_TEXT, ITEM_INTERNAL

    fields = [index.total_size, index.root_offset, index.tag_count, index.item_count]
    previous = 0
    for item, kind in enumerate(index.kinds):
        start = index.starts[item]
        fields += (kind, start - previous, index.contents[item] - start)
        fields.append(index.sizes[item])
        if kind != ITEM_TEXT:
            fields.append(index.tags[item])
            if kind == ITEM_INTERNAL:
                fields.append(index.desc_mask(item))
        previous = start
    out = bytearray(INDEX_MAGIC + b"\x01")
    put_varints(out, fields)
    return bytes(out)


def test_logstore_drops_a_version_1_blob_and_streams(tmp_path, monkeypatch):
    from repro.skipindex.structural import StructuralIndex
    from repro.store import LogStore

    directory = str(tmp_path)
    with monkeypatch.context() as patch:
        patch.setattr(StructuralIndex, "to_bytes", _version_1_blob)
        with SecureStation(StationConfig(store=LogStore(directory))) as station:
            station.publish(
                "d", serialize(selective_document()), PublishOptions(index=True)
            )
            station.grant("d", FOLDER_POLICY)
            indexed = _logstore_views(station)
            assert indexed[0]
    with SecureStation(StationConfig(store=LogStore(directory))) as restarted:
        restarted.grant("d", FOLDER_POLICY)
        assert restarted.document("d").index is None
        assert restarted.store.counters["index_blobs_dropped"] == 1
        assert _logstore_views(restarted) == (False,) + indexed[1:]


def _rewritten_blob(index, field, rewrite):
    """``index.to_bytes()`` with the item column ``field`` replaced by
    ``rewrite(values)``.  Sizes, offsets and bit counts that the rewrite
    leaves alone keep their values, so the blob still tiles the
    encoding and keeps its length."""
    original = getattr(index, field)
    setattr(index, field, array(original.typecode, rewrite(list(original))))
    try:
        return index.to_bytes()
    finally:
        setattr(index, field, original)


def _swapped_tags(index):
    """Tag codes 0 and ``tag_count - 1`` swapped in every element."""
    last = index.tag_count - 1

    def rewrite(tags):
        return [last if t == 0 else 0 if t == last else t for t in tags]

    return _rewritten_blob(index, "tags", rewrite)


def _moved_bitmap_bit(index):
    """The last leaf element retagged as the first: one bit of its
    parent's descendant bitmap moves (``rare`` claims ``name``, not
    ``val``)."""
    leaves = [item for item, kind in enumerate(index.kinds) if kind == ITEM_LEAF]

    def rewrite(tags):
        tags[leaves[-1]] = tags[leaves[0]]
        return tags

    return _rewritten_blob(index, "tags", rewrite)


def _swapped_sibling_sizes(index):
    """The sizes of the first two leaf elements, siblings under the
    first ``rec``, swapped; their parent's size still tiles them."""
    first, second = [
        item for item, kind in enumerate(index.kinds) if kind == ITEM_LEAF
    ][:2]

    def rewrite(sizes):
        sizes[first], sizes[second] = sizes[second], sizes[first]
        return sizes

    return _rewritten_blob(index, "sizes", rewrite)


@pytest.mark.parametrize("scheme", ["ECB", "CBC-SHA", "CBC-SHAC", "ECB-MHT"])
def test_logstore_rejects_a_tampered_index_blob(scheme, tmp_path):
    """A blob rewritten in the log with its segment CRC recomputed
    fails the manifest's digest: serving raises, never a shorter view.
    Three rewrites: tag codes permuted, one descendant-bitmap bit
    moved, and two sibling sizes swapped."""
    import zlib

    from repro.crypto.integrity import IntegrityError
    from repro.store import LogStore
    from repro.store.log import _HEADER, MAGIC

    for rewrite in (_swapped_tags, _moved_bitmap_bit, _swapped_sibling_sizes):
        directory = tmp_path / rewrite.__name__
        with SecureStation(StationConfig(store=LogStore(str(directory)))) as station:
            station.publish(
                "d",
                serialize(selective_document()),
                PublishOptions(scheme=scheme, index=True),
            )
            station.grant("d", FOLDER_POLICY)
            assert _logstore_views(station)[0]
            offset, length = station.store._states["d"].index_span
            segment = station.store._segment_at(offset)
            index = station.document("d").index
            tampered = rewrite(index)
            assert len(tampered) == length and tampered != index.to_bytes()
        path = directory / "chunks-000000.log"
        data = bytearray(path.read_bytes())
        data[offset : offset + length] = tampered
        start = segment.payload_offset
        body = bytes(data[start : start + segment.payload_len])
        data[start - _HEADER.size : start] = _HEADER.pack(
            MAGIC, len(body), zlib.crc32(body) & 0xFFFFFFFF
        )
        path.write_bytes(bytes(data))
        with SecureStation(StationConfig(store=LogStore(str(directory)))) as restarted:
            restarted.grant("d", FOLDER_POLICY)
            for query in (None, "/folder/rare/val", "/folder/rec/name", "//name"):
                with pytest.raises(IntegrityError, match="digest"):
                    restarted.evaluate("d", "s", query=query)
            assert restarted.store.counters["index_blobs_rejected"] == 4, rewrite


def test_cluster_repair_ships_index():
    """Publishing a pager-backed PreparedDocument onto another station
    (the repair path) carries the index along."""
    prepared = prepare_document(selective_document(), index=True)
    source = SecureStation()
    source.publish("d", prepared)
    target = SecureStation()
    target.publish("d", source.document("d"), version_floor=3)
    target.grant("d", FOLDER_POLICY)
    result = target.evaluate("d", "s", query="/folder/rare/val")
    assert result.indexed


# ----------------------------------------------------------------------
# The unified construction API
# ----------------------------------------------------------------------
class TestUnifiedAPI:
    def test_station_config_is_frozen_and_comparable(self):
        config = StationConfig(context="sw-lan", cache_views=False)
        with pytest.raises(Exception):
            config.cache_views = True
        assert config == StationConfig(context="sw-lan", cache_views=False)
        assert config.replace(cache_views=True).cache_views is True
        assert "master_secret" not in repr(config)
        with pytest.raises(TypeError):
            StationConfig(prune=True)  # the evaluator has one path

    def test_open_station_overrides_win(self):
        station = open_station(StationConfig(cache_views=False), cache_views=True)
        assert station.cache_views is True
        assert station.config.cache_views is True
        with pytest.raises(TypeError):
            open_station(prune=True)

    def test_legacy_positional_master_secret(self):
        """The secret is a keyword (or config field), never positional."""
        with pytest.raises(TypeError):
            SecureStation(b"legacy-secret")
        with pytest.raises(TypeError):
            SecureStation(b"legacy-secret", context="sw-lan")
        station = SecureStation(master_secret=b"legacy-secret")
        assert station._secret == b"legacy-secret"

    def test_legacy_publish_scheme_string(self):
        """The scheme is a keyword (or options field), never positional."""
        station = SecureStation()
        with pytest.raises(TypeError):
            station.publish("d", "<a>1</a>", "ECB")
        with pytest.raises(TypeError):
            station.publish("d", "<a>1</a>", "ECB", scheme="CBC-SHAC")
        assert "d" not in station.store
        station.publish("d", "<a>1</a>", scheme="ECB")
        assert station.document("d").scheme.name == "ECB"

    def test_publish_options_value(self):
        options = PublishOptions(scheme="CBC-SHAC", index=True)
        assert options.replace(index=False) == PublishOptions(scheme="CBC-SHAC")
        station = SecureStation()
        station.publish("d", "<a>1</a>", options)
        prepared = station.document("d")
        assert prepared.scheme.name == "CBC-SHAC"
        assert prepared.index is not None

    def test_connect_parses_addresses(self):
        with pytest.raises(ValueError):
            connect("no-port-here", "s")
        # Refused before dialling: the resolver would wrap 99999 to 34463.
        for address in ("localhost:99999", "localhost:0"):
            with pytest.raises(ValueError, match="HOST:PORT"):
                connect(address, "s")
        with pytest.raises((ConnectionError, OSError)):
            # Unroutable in test environments: parsing succeeded, the
            # dial failed — which is all this asserts.
            connect("127.0.0.1:1", "s", connect_retry=0.0)

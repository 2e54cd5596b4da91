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
from repro.engine.plans import compile_query, structural_steps
from repro.engine.station import SecureStation
from repro.metrics import Meter
from repro.skipindex.decoder import SkipIndexNavigator
from repro.skipindex.encoder import encode_document
from repro.skipindex.structural import (
    IndexedNavigator,
    StructuralIndex,
    build_structural_index,
    parse_structural_index,
)
from repro.skipindex.updates import UpdateOp, refresh_structural_index
from repro.soe.session import prepare_document
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
    encoded = encode_document(random_tree(random.Random(seed)))
    index = build_structural_index(encoded)
    restored = parse_structural_index(index.to_bytes())
    assert restored == index
    assert restored.matches_document(encoded)


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
    from repro.skipindex.updates import update_text

    new_tree = update_text(tree, [40, 0], "goat")
    new_encoded, grew = reencode_after(encoded, new_tree)
    impact = impact_between(
        encoded, new_encoded, tree, new_tree, dictionary_grew=grew
    )
    refreshed, mode = refresh_structural_index(index, new_encoded, impact)
    assert mode == "incremental" and refreshed is index
    # Different-length text edit: rebuild (offsets after the edit shift).
    longer = update_text(tree, [40, 0], "a-much-longer-value")
    long_encoded, grew = reencode_after(encoded, longer)
    impact = impact_between(
        encoded, long_encoded, tree, longer, dictionary_grew=grew
    )
    refreshed, mode = refresh_structural_index(index, long_encoded, impact)
    assert mode == "rebuild" and refreshed is not index
    assert refreshed == build_structural_index(long_encoded)


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
        config = StationConfig(context="sw-lan", prune=False)
        with pytest.raises(Exception):
            config.prune = True
        assert config == StationConfig(context="sw-lan", prune=False)
        assert config.replace(prune=True).prune is True
        assert "master_secret" not in repr(config)

    def test_open_station_overrides_win(self):
        station = open_station(StationConfig(prune=False), prune=True)
        assert station.prune is True
        assert station.config.prune is True

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
        with pytest.raises((ConnectionError, OSError)):
            # Unroutable in test environments: parsing succeeded, the
            # dial failed — which is all this asserts.
            connect("127.0.0.1:1", "s", connect_retry=0.0)

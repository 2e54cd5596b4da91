"""The station's version-keyed materialized-view cache.

The cache serves :meth:`SecureStation.stream` (every QUERY and
FORWARD) and keeps payload bytes, never events; ``evaluate`` is
uncached.  Covers the guarantees: repeat requests hit the cache without
changing a byte of the view *or* a microsecond of the simulated cost;
updates invalidate (a stale view is never served and the INVALIDATED
broadcast still fires); the LRU bound holds under churn; a cached view
costs its payload plus a fixed allowance; and a served request — cold
or cache-hit — returns the paper-figure path's view bytes, Meter and
simulated costs across every protection scheme and subject.
"""

import gc
import threading
import tracemalloc

import pytest

from repro.datasets.hospital import (
    GROUPS,
    HospitalConfig,
    doctor_policy,
    generate_hospital,
    researcher_policy,
    secretary_policy,
)
from repro.engine import (
    PublishOptions,
    SecureStation,
    compile_policy,
    evaluate_document,
    prepare_document,
)
from repro.skipindex.updates import UpdateOp
from repro.xmlkit.serializer import serialize, serialize_events

CONFIG = HospitalConfig(
    folders=2, doctors=3, acts_per_folder=2, labresults_per_folder=1, seed=11
)
#: Heap bytes one cached view may hold beyond its payload: its key, LRU
#: link, entry, meter and breakdown (~0.9 KiB on CPython 3.11).  A view
#: kept as events costs ~10 KiB more per entry on the same requests.
ENTRY_ALLOWANCE = 1536


def hospital_tree():
    return generate_hospital(CONFIG)


def profiles():
    return [
        secretary_policy(),
        doctor_policy(CONFIG.doctor_names()[0]),
        researcher_policy(GROUPS[:2]),
    ]


def make_station(**kwargs):
    station = SecureStation(**kwargs)
    station.publish("hospital", hospital_tree())
    for policy in profiles():
        station.grant("hospital", policy)
    return station


# ----------------------------------------------------------------------
# Hit/miss behaviour (the served path: SecureStation.stream)
# ----------------------------------------------------------------------
def test_repeat_request_hits_and_is_identical():
    station = make_station()
    first = station.stream("hospital", "secretary")
    assert not first.cached
    assert station.stats.view_misses == 1
    second = station.stream("hospital", "secretary")
    assert second.cached
    assert station.stats.view_hits == 1
    assert second.payload == first.payload
    # The cost model keeps charging the original simulated Table-1
    # costs: a hit reports the exact same simulated seconds and meter.
    assert second.result.seconds == first.result.seconds
    assert second.result.meter.as_dict() == first.result.meter.as_dict()
    assert second.result.document_version == first.result.document_version
    assert second.result.indexed == first.result.indexed
    # The served bytes are the evaluator's events, serialized.
    local = station.evaluate("hospital", "secretary")
    assert serialize_events(local.events).encode("utf-8") == second.payload


def test_evaluate_is_uncached():
    """Local callers always get a fresh evaluation: ``evaluate`` never
    reads or fills the view cache, and its events are the caller's."""
    station = make_station()
    first = station.evaluate("hospital", "secretary")
    first.events.clear()
    second = station.evaluate("hospital", "secretary")
    assert second.events
    assert station.stats.view_hits == station.stats.view_misses == 0
    assert station.cached_views() == 0
    # A served hit stays a hit after local evaluations.
    station.stream("hospital", "secretary")
    station.evaluate("hospital", "secretary")
    assert station.stream("hospital", "secretary").cached
    assert station.stats.requests == 5


def test_distinct_queries_and_subjects_get_distinct_entries():
    station = make_station()
    station.stream("hospital", "secretary")
    station.stream("hospital", "secretary", query="//Folder")
    station.stream("hospital", "researcher")
    assert station.stats.view_misses == 3
    assert station.stats.view_hits == 0
    assert station.cached_views() == 3
    station.stream("hospital", "secretary", query="//Folder")
    assert station.stats.view_hits == 1


def test_cache_disabled_always_runs_cold():
    station = make_station(cache_views=False)
    for _ in range(3):
        result = station.stream("hospital", "secretary")
        assert not result.cached
    assert station.stats.view_hits == 0
    assert station.stats.view_misses == 0
    assert station.cached_views() == 0


def test_stream_reuses_serialized_payload():
    station = make_station()
    first = station.stream("hospital", "secretary")
    second = station.stream("hospital", "secretary")
    assert second.cached
    assert second.payload == first.payload
    # Serialized once, on the miss: the exact same bytes object is reused.
    assert second.payload is first.payload


def test_view_cache_holds_payloads_not_events():
    """Footprint guard: filling the cache with N served views grows the
    heap by their payload bytes plus a fixed allowance per entry (key,
    LRU link, entry, meter, breakdown) — never by the views' events."""
    config = HospitalConfig(
        folders=4, doctors=3, acts_per_folder=2, labresults_per_folder=1, seed=11
    )
    station = SecureStation()
    station.publish("hospital", generate_hospital(config))
    subjects = ["secretary", config.doctor_names()[0], "researcher"]
    for policy in (
        secretary_policy(),
        doctor_policy(subjects[1]),
        researcher_policy(GROUPS[:2]),
    ):
        station.grant("hospital", policy)
    requests = [
        (subject, "//Folder[//Age > %d]" % bound)
        for subject in subjects
        for bound in range(10)
    ]
    # Warm everything but the view cache: plans, compiled queries and
    # the document's decrypted state.
    station.cache_views = False
    for subject, query in requests:
        station.stream("hospital", subject, query=query)
    station.cache_views = True
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        payload = sum(
            len(station.stream("hospital", subject, query=query).payload)
            for subject, query in requests
        )
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert station.cached_views() == len(requests)
    assert grown <= payload + len(requests) * ENTRY_ALLOWANCE, (grown, payload)


# ----------------------------------------------------------------------
# Paper-figure path vs served request: one view, one Meter
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheme", ["ECB", "CBC-SHA", "CBC-SHAC", "ECB-MHT"])
def test_cold_cached_views_and_meters_identical(scheme):
    """A served request runs the same evaluator as the paper-figure
    benches: same view bytes, every Meter field and the same simulated
    breakdown; a cache hit then returns the same bytes and costs."""
    prepared = prepare_document(hospital_tree(), scheme=scheme)
    for policy in profiles():
        plan = compile_policy(policy)
        for query in (None, "//Folder/Admin/Age", "//MedActs//Diagnostic"):
            # The fig-bench path: evaluate_document, no station.
            figure = evaluate_document(prepared, plan, query)
            figure_bytes = serialize_events(figure.events).encode("utf-8")
            context = (policy.subject, query)

            cold_station = SecureStation(cache_views=False)
            cold_station.publish("hospital", prepared)
            local = cold_station.evaluate("hospital", plan, query=query)
            assert serialize_events(local.events).encode("utf-8") == figure_bytes
            assert local.meter.as_dict() == figure.meter.as_dict(), context
            assert local.breakdown.as_dict() == figure.breakdown.as_dict()
            served = cold_station.stream("hospital", plan, query=query)
            assert not served.cached
            assert served.payload == figure_bytes
            assert served.result.meter.as_dict() == figure.meter.as_dict(), context
            assert served.result.breakdown.as_dict() == figure.breakdown.as_dict()

            cached_station = SecureStation(cache_views=True)
            cached_station.publish("hospital", prepared)
            cached_station.stream("hospital", plan, query=query)  # warm
            hit = cached_station.stream("hospital", plan, query=query)
            assert hit.cached
            assert hit.payload == figure_bytes
            assert hit.result.meter.as_dict() == figure.meter.as_dict(), context
            assert hit.result.breakdown.as_dict() == figure.breakdown.as_dict()


@pytest.mark.parametrize("scheme", ["ECB", "CBC-SHA", "CBC-SHAC", "ECB-MHT"])
def test_stream_hits_equal_an_uncached_station(scheme):
    """Every served hit is byte- and cost-identical to what a station
    without a view cache serves for the same request, across updates."""
    tree = serialize(hospital_tree())
    options = PublishOptions(scheme=scheme, index=True)
    cached, uncached = SecureStation(), SecureStation(cache_views=False)
    for station in (cached, uncached):
        station.publish("hospital", tree, options)
        for policy in profiles():
            station.grant("hospital", policy)
    subjects = [policy.subject for policy in profiles()]
    updates = [UpdateOp.set_text([0, 0, 0], "renamed"), UpdateOp.delete([0])]
    hits = 0
    for round_index in range(len(updates) + 1):
        for subject in subjects:
            for query in (None, "//Folder/Admin/Age", "//Admin/*"):
                context = (round_index, subject, query)
                cached.stream("hospital", subject, query=query)
                hit = cached.stream("hospital", subject, query=query)
                cold = uncached.stream("hospital", subject, query=query)
                assert hit.cached and not cold.cached, context
                hits += 1
                assert hit.payload == cold.payload, context
                assert hit.result.meter.as_dict() == cold.result.meter.as_dict()
                assert hit.result.seconds == cold.result.seconds, context
                assert hit.result.document_version == round_index, context
                assert cold.result.document_version == round_index, context
                assert hit.result.indexed == cold.result.indexed, context
        if round_index < len(updates):
            for station in (cached, uncached):
                station.update("hospital", updates[round_index])
    assert hits == cached.stats.view_hits == 27


def test_fig_bench_cold_path_unaffected_by_station_features():
    """The paper-figure benches run evaluate_document — enabling the view
    cache on a station serving the same prepared document must not move
    a single simulated-cost counter on that path."""
    prepared = prepare_document(hospital_tree(), scheme="ECB")
    plan = compile_policy(secretary_policy())
    before = evaluate_document(prepared, plan)
    station = make_station()  # cache on, same document content
    station.stream("hospital", "secretary")
    station.stream("hospital", "secretary")
    after = evaluate_document(prepared, plan)
    assert after.meter.as_dict() == before.meter.as_dict()
    assert after.seconds == before.seconds


# ----------------------------------------------------------------------
# Invalidation
# ----------------------------------------------------------------------
def test_update_invalidates_and_still_notifies():
    station = make_station()
    notifications = []
    station.subscribe(lambda doc, version: notifications.append((doc, version)))
    stale = station.stream("hospital", "secretary")
    assert station.cached_views() == 1

    station.update("hospital", UpdateOp.delete([0]))
    assert notifications == [("hospital", 1)]
    assert station.cached_views() == 0  # proactively dropped
    assert station.stats.view_invalidations == 1

    fresh = station.stream("hospital", "secretary")
    assert not fresh.cached  # the post-update request re-evaluates
    assert fresh.result.document_version == 1
    assert fresh.payload != stale.payload  # a folder disappeared
    # And the re-evaluated view is cacheable again under the new version.
    assert station.stream("hospital", "secretary").cached


def test_republish_invalidates():
    station = make_station()
    station.stream("hospital", "secretary")
    assert station.cached_views() == 1
    station.publish("hospital", hospital_tree())
    for policy in profiles():
        station.grant("hospital", policy)
    assert station.cached_views() == 0
    result = station.stream("hospital", "secretary")
    assert not result.cached
    assert result.result.document_version == 1


def test_stale_version_never_served_even_without_sweep():
    """The version in the key alone keeps stale entries unreachable —
    simulate a racing insert of an old-version entry."""
    station = make_station()
    station.stream("hospital", "secretary")
    # Grab the pre-update entry and force it back in after the update
    # (models a slow evaluation finishing after a concurrent update).
    stale_key, stale_entry = next(iter(station._views.items()))
    station.update("hospital", UpdateOp.delete([0]))
    with station._lock:
        station._views[stale_key] = stale_entry
    result = station.stream("hospital", "secretary")
    assert not result.cached  # key carries version 0, lookup uses 1
    assert result.result.document_version == 1


# ----------------------------------------------------------------------
# LRU bound
# ----------------------------------------------------------------------
def test_lru_bound_respected_under_churn():
    station = make_station()
    station.view_cache_size = 4
    for index in range(12):
        station.stream("hospital", "secretary", query="//Folder[//Age > %d]" % index)
        assert station.cached_views() <= 4
    assert station.cached_views() == 4
    assert station.stats.view_evictions == 8
    # Oldest entries are gone; the most recent four still hit.
    for index in range(8, 12):
        result = station.stream(
            "hospital", "secretary", query="//Folder[//Age > %d]" % index
        )
        assert result.cached, index


def test_lru_churn_is_thread_safe():
    station = make_station()
    station.view_cache_size = 3
    errors = []

    def worker(offset):
        try:
            for index in range(20):
                station.stream(
                    "hospital",
                    "secretary",
                    query="//Folder[//Age > %d]" % ((offset * 20 + index) % 7),
                )
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert station.cached_views() <= 3


# ----------------------------------------------------------------------
# Remote path: trailer flag, STATS counters, wire invalidation
# ----------------------------------------------------------------------
def test_remote_cached_flag_stats_and_invalidation():
    from repro.server.client import RemoteSession
    from repro.server.service import ServerThread, StationServer, hospital_station

    station, subjects = hospital_station(folders=2)
    thread = ServerThread(StationServer(station))
    host, port = thread.start()
    try:
        with RemoteSession(host, port, "secretary", connect_retry=5.0) as session:
            first = session.evaluate("hospital")
            assert not first.cached
            second = session.evaluate("hospital")
            assert second.cached
            assert second.data == first.data
            assert second.seconds == first.seconds  # simulated cost unchanged
            stats = session.stats()
            assert stats["station"]["view_hits"] >= 1
            assert stats["station"]["view_misses"] >= 1
            assert stats["cached_views"] >= 1

            # A remote update must invalidate: INVALIDATED arrives and
            # the next evaluate is a fresh (uncached) view.
            session.update(
                "hospital",
                UpdateOp.set_text([0, 0, 0], "renamed-by-cache-test"),
            )
            third = session.evaluate("hospital")
            assert session.invalidations_seen >= 1
            assert not third.cached
            assert third.trailer["version"] == 1
            assert third.data != first.data
    finally:
        thread.stop()

"""The station's version-keyed materialized-view cache.

Covers the tentpole guarantees: repeat requests hit the cache without
changing a byte of the view *or* a microsecond of the simulated cost;
updates invalidate (a stale view is never served and the INVALIDATED
broadcast still fires); the LRU bound holds under churn; and a served
request — cold or cache-hit — returns the paper-figure path's view
bytes, Meter and simulated costs across every protection scheme and
subject.
"""

import threading

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
    SecureStation,
    compile_policy,
    evaluate_document,
    prepare_document,
)
from repro.skipindex.updates import UpdateOp
from repro.xmlkit.serializer import serialize_events

CONFIG = HospitalConfig(
    folders=2, doctors=3, acts_per_folder=2, labresults_per_folder=1, seed=11
)


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
# Hit/miss behaviour
# ----------------------------------------------------------------------
def test_repeat_request_hits_and_is_identical():
    station = make_station()
    first = station.evaluate("hospital", "secretary")
    assert not first.cache_hit
    assert station.stats.view_misses == 1
    second = station.evaluate("hospital", "secretary")
    assert second.cache_hit
    assert station.stats.view_hits == 1
    assert second.events == first.events
    # The cost model keeps charging the original simulated Table-1
    # costs: a hit reports the exact same simulated seconds and meter.
    assert second.seconds == first.seconds
    assert second.meter.as_dict() == first.meter.as_dict()
    assert second.document_version == first.document_version


def test_distinct_queries_and_subjects_get_distinct_entries():
    station = make_station()
    station.evaluate("hospital", "secretary")
    station.evaluate("hospital", "secretary", query="//Folder")
    station.evaluate("hospital", "researcher")
    assert station.stats.view_misses == 3
    assert station.stats.view_hits == 0
    assert station.cached_views() == 3
    station.evaluate("hospital", "secretary", query="//Folder")
    assert station.stats.view_hits == 1


def test_cache_disabled_always_runs_cold():
    station = make_station(cache_views=False)
    for _ in range(3):
        result = station.evaluate("hospital", "secretary")
        assert not result.cache_hit
    assert station.stats.view_hits == 0
    assert station.stats.view_misses == 0
    assert station.cached_views() == 0


def test_stream_reuses_serialized_payload():
    station = make_station()
    first = station.stream("hospital", "secretary")
    second = station.stream("hospital", "secretary")
    assert second.result.cache_hit
    assert second.payload == first.payload
    # Memoized on the entry: the exact same bytes object is reused.
    assert second.payload is first.payload


# ----------------------------------------------------------------------
# Paper-figure path vs served request: one view, one Meter
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheme", ["ECB", "CBC-SHA", "CBC-SHAC", "ECB-MHT"])
def test_cold_cached_views_and_meters_identical(scheme):
    """A served request runs the same evaluator as the paper-figure
    benches: same view bytes, every Meter field and the same simulated
    breakdown; a cache hit then returns the same bytes."""
    prepared = prepare_document(hospital_tree(), scheme=scheme)
    for policy in profiles():
        plan = compile_policy(policy)
        for query in (None, "//Folder/Admin/Age", "//MedActs//Diagnostic"):
            # The fig-bench path: evaluate_document, no station.
            figure = evaluate_document(prepared, plan, query)
            figure_bytes = serialize_events(figure.events).encode("utf-8")

            cold_station = SecureStation(cache_views=False)
            cold_station.publish("hospital", prepared)
            served = cold_station.evaluate("hospital", plan, query=query)
            assert not served.cache_hit
            assert serialize_events(served.events).encode("utf-8") == figure_bytes
            assert served.meter.as_dict() == figure.meter.as_dict(), (
                policy.subject,
                query,
            )
            assert served.breakdown.as_dict() == figure.breakdown.as_dict()

            cached_station = SecureStation(cache_views=True)
            cached_station.publish("hospital", prepared)
            cached_station.evaluate("hospital", plan, query=query)  # warm
            hit = cached_station.evaluate("hospital", plan, query=query)
            assert hit.cache_hit
            assert serialize_events(hit.events).encode("utf-8") == figure_bytes


def test_fig_bench_cold_path_unaffected_by_station_features():
    """The paper-figure benches run evaluate_document — enabling the view
    cache on a station serving the same prepared document must not move
    a single simulated-cost counter on that path."""
    prepared = prepare_document(hospital_tree(), scheme="ECB")
    plan = compile_policy(secretary_policy())
    before = evaluate_document(prepared, plan)
    station = make_station()  # cache on, same document content
    station.evaluate("hospital", "secretary")
    station.evaluate("hospital", "secretary")
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
    stale = station.evaluate("hospital", "secretary")
    assert station.cached_views() == 1

    station.update("hospital", UpdateOp.delete([0]))
    assert notifications == [("hospital", 1)]
    assert station.cached_views() == 0  # proactively dropped
    assert station.stats.view_invalidations == 1

    fresh = station.evaluate("hospital", "secretary")
    assert not fresh.cache_hit  # the post-update request re-evaluates
    assert fresh.document_version == 1
    assert fresh.events != stale.events  # a folder disappeared
    # And the re-evaluated view is cacheable again under the new version.
    assert station.evaluate("hospital", "secretary").cache_hit


def test_republish_invalidates():
    station = make_station()
    station.evaluate("hospital", "secretary")
    assert station.cached_views() == 1
    station.publish("hospital", hospital_tree())
    for policy in profiles():
        station.grant("hospital", policy)
    assert station.cached_views() == 0
    result = station.evaluate("hospital", "secretary")
    assert not result.cache_hit
    assert result.document_version == 1


def test_stale_version_never_served_even_without_sweep():
    """The version in the key alone keeps stale entries unreachable —
    simulate a racing insert of an old-version entry."""
    station = make_station()
    station.evaluate("hospital", "secretary")
    # Grab the pre-update entry and force it back in after the update
    # (models a slow evaluation finishing after a concurrent update).
    stale_key, stale_entry = next(iter(station._views.items()))
    station.update("hospital", UpdateOp.delete([0]))
    with station._lock:
        station._views[stale_key] = stale_entry
    result = station.evaluate("hospital", "secretary")
    assert not result.cache_hit  # key carries version 0, lookup uses 1
    assert result.document_version == 1


# ----------------------------------------------------------------------
# LRU bound
# ----------------------------------------------------------------------
def test_lru_bound_respected_under_churn():
    station = make_station()
    station.view_cache_size = 4
    for index in range(12):
        station.evaluate("hospital", "secretary", query="//Folder[//Age > %d]" % index)
        assert station.cached_views() <= 4
    assert station.cached_views() == 4
    assert station.stats.view_evictions == 8
    # Oldest entries are gone; the most recent four still hit.
    for index in range(8, 12):
        result = station.evaluate(
            "hospital", "secretary", query="//Folder[//Age > %d]" % index
        )
        assert result.cache_hit, index


def test_lru_churn_is_thread_safe():
    station = make_station()
    station.view_cache_size = 3
    errors = []

    def worker(offset):
        try:
            for index in range(20):
                station.evaluate(
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

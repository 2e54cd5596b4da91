"""Observability layer: registry, tracing, exposition, dashboards.

Covers the ``repro.obs`` package in isolation (instrument semantics,
histogram bucket math, merge associativity, Prometheus text format,
the tracer's slow log and adoption) and end-to-end: trace ids stamped by a
client ride the frame header through gateway and backend and come back
as one combined span tree in the RESULT trailer — including across a
mid-run failover retry.
"""

from __future__ import annotations

import random
import threading
import urllib.request

import pytest

from repro.obs.dashboard import flatten_stats, render_stats, render_top
from repro.obs.http import MetricsServer
from repro.obs.registry import (
    BYTE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import (
    Tracer,
    format_span_tree,
    format_trace_id,
    new_trace_id,
)
from repro.server import protocol
from repro.server.client import RemoteError, RemoteSession
from repro.server.service import ServerThread, StationServer, hospital_station


# ----------------------------------------------------------------------
# Instruments
# ----------------------------------------------------------------------
class TestCounter:
    def test_concurrent_increments_never_lose_updates(self):
        counter = Counter()
        threads = [
            threading.Thread(
                target=lambda: [counter.inc() for _ in range(5000)]
            )
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 8 * 5000

    def test_counters_only_go_up(self):
        counter = Counter()
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_merge_sums(self):
        a, b = Counter(), Counter()
        a.inc(3)
        b.inc(4)
        a.merge(b)
        assert a.value == 7


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge()
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value == 12

    def test_concurrent_incs(self):
        gauge = Gauge()
        threads = [
            threading.Thread(
                target=lambda: [gauge.inc() for _ in range(5000)]
            )
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert gauge.value == 8 * 5000


class TestHistogram:
    def test_bucket_edges_are_inclusive(self):
        # A value exactly on a bound lands in that bound's bucket
        # (Prometheus ``le`` semantics).
        histogram = Histogram(buckets=(1.0, 5.0, 10.0))
        histogram.observe(1.0)
        histogram.observe(5.0)
        histogram.observe(5.0001)
        histogram.observe(10.0)
        histogram.observe(11.0)  # +Inf bucket
        assert histogram.bucket_counts == (1, 1, 2, 1)

    def test_bounds_must_increase(self):
        with pytest.raises(ValueError):
            Histogram(buckets=(5.0, 5.0))
        with pytest.raises(ValueError):
            Histogram(buckets=())

    def test_percentile_interpolates_within_bucket(self):
        histogram = Histogram(buckets=(10.0, 20.0))
        for _ in range(10):
            histogram.observe(15.0)
        # All mass in the (10, 20] bucket: any percentile lies inside it.
        assert 10.0 < histogram.percentile(50) <= 20.0
        assert histogram.percentile(0) == 0.0 or histogram.percentile(0) <= 20.0

    def test_percentile_of_empty_is_zero(self):
        assert Histogram().percentile(99) == 0.0

    def test_overflow_reports_last_finite_bound(self):
        histogram = Histogram(buckets=(1.0, 2.0))
        histogram.observe(1000.0)
        assert histogram.percentile(99) == 2.0

    def test_merge_is_associative_and_equals_raw_feed(self):
        rng = random.Random(7)
        samples = [[rng.uniform(0, 50) for _ in range(40)] for _ in range(3)]
        parts = []
        for chunk in samples:
            histogram = Histogram(buckets=(1.0, 5.0, 10.0, 25.0, 50.0))
            for value in chunk:
                histogram.observe(value)
            parts.append(histogram)
        a, b, c = parts
        left = Histogram.merged([Histogram.merged([a, b]), c])
        right = Histogram.merged([a, Histogram.merged([b, c])])
        assert left.bucket_counts == right.bucket_counts
        assert left.sum == pytest.approx(right.sum)
        # ... and both equal one histogram fed every raw sample.
        raw = Histogram(buckets=(1.0, 5.0, 10.0, 25.0, 50.0))
        for chunk in samples:
            for value in chunk:
                raw.observe(value)
        assert left.bucket_counts == raw.bucket_counts
        assert left.percentile(95) == raw.percentile(95)

    def test_merge_rejects_different_bounds(self):
        with pytest.raises(ValueError):
            Histogram(buckets=(1.0,)).merge(Histogram(buckets=(2.0,)))

    def test_dict_round_trip(self):
        histogram = Histogram(buckets=(1.0, 2.0))
        histogram.observe(0.5)
        histogram.observe(3.0)
        clone = Histogram.from_dict(histogram.as_dict())
        assert clone.bucket_counts == histogram.bucket_counts
        assert clone.sum == histogram.sum


# ----------------------------------------------------------------------
# Registry + exposition
# ----------------------------------------------------------------------
class TestRegistry:
    def test_registration_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total", "help")
        again = registry.counter("x_total")
        assert first is again

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ValueError):
            registry.gauge("x_total")

    def test_label_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total", labelnames=("a",))
        with pytest.raises(ValueError):
            registry.counter("x_total", labelnames=("b",))

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("bad name")
        with pytest.raises(ValueError):
            registry.counter("ok_total", labelnames=("bad-label",))

    def test_labelled_children_are_distinct(self):
        registry = MetricsRegistry()
        family = registry.counter("req_total", labelnames=("type",))
        family.labels(type="QUERY").inc(2)
        family.labels(type="UPDATE").inc()
        assert family.labels(type="QUERY").value == 2
        assert family.labels(type="UPDATE").value == 1
        with pytest.raises(ValueError):
            family.labels(wrong="x")

    def test_render_prometheus_text(self):
        registry = MetricsRegistry()
        registry.counter("req_total", "Requests.", labelnames=("type",)).labels(
            type="QUERY"
        ).inc(3)
        registry.gauge("alive", "Liveness.").set(1)
        histogram = registry.histogram("lat_ms", "Latency.", buckets=(1.0, 5.0))
        histogram.observe(0.5)
        histogram.observe(3.0)
        histogram.observe(100.0)
        text = registry.render()
        assert "# HELP req_total Requests." in text
        assert "# TYPE req_total counter" in text
        assert 'req_total{type="QUERY"} 3' in text
        assert "alive 1" in text
        # Histogram buckets are cumulative and end with +Inf.
        assert 'lat_ms_bucket{le="1"} 1' in text
        assert 'lat_ms_bucket{le="5"} 2' in text
        assert 'lat_ms_bucket{le="+Inf"} 3' in text
        assert "lat_ms_count 3" in text
        assert text.endswith("\n")

    def test_exposed_families_read_at_scrape_time(self):
        registry = MetricsRegistry()
        state = {"hits": 0, "chunks_total": 0, "live": 0}
        registry.expose(
            "x_",
            "counter",
            lambda: {"hits": state["hits"], "chunks_total": state["chunks_total"]},
        )
        registry.expose("x_", "gauge", lambda: {"live": state["live"]})
        registry.expose("x_requests", "counter", lambda: {"b": 2, "a": 1}, label="node")
        state.update(hits=42, chunks_total=5, live=3)
        text = registry.render()
        assert "# TYPE x_hits_total counter\nx_hits_total 42" in text
        # A field already named *_total keeps one suffix.
        assert "# TYPE x_chunks_total counter\nx_chunks_total 5" in text
        assert "# TYPE x_live gauge\nx_live 3" in text
        assert 'x_requests_total{node="a"} 1\nx_requests_total{node="b"} 2' in text
        state["hits"] = 43
        snapshot = registry.snapshot()
        assert snapshot["x_hits_total"]["samples"][0]["value"] == 43
        assert snapshot["x_hits_total"]["type"] == "counter"
        assert snapshot["x_requests_total"]["samples"][1] == {
            "labels": {"node": "b"},
            "value": 2,
        }
        with pytest.raises(ValueError):
            registry.expose("x_", "histogram", dict)
        with pytest.raises(ValueError):
            registry.expose("bad name", "counter", dict)

    def test_label_escaping(self):
        registry = MetricsRegistry()
        registry.counter("esc_total", labelnames=("q",)).labels(
            q='a"b\\c\nd'
        ).inc()
        text = registry.render()
        assert 'q="a\\"b\\\\c\\nd"' in text


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_trace_ids_are_nonzero_and_well_formed(self):
        ids = [new_trace_id() for _ in range(10)]
        assert all(0 < t <= protocol.MAX_TRACE_ID for t in ids)
        assert all(len(format_trace_id(t)) == 16 for t in ids)

    def test_span_tree_and_record(self):
        tracer = Tracer()
        trace = new_trace_id()
        root = tracer.start(trace, "request")
        child = tracer.start(trace, "stage", parent=root.id)
        tracer.finish(child, bytes=10)
        tracer.finish(root)
        record = tracer.end_trace(trace)
        assert record is not None
        assert record.root_name == "request"
        names = [span["name"] for span in record.spans]
        assert names == ["request", "stage"]
        tree = format_span_tree(record.as_dict())
        assert "request" in tree and "  stage" in tree.splitlines()[2]

    def test_slow_log_threshold(self):
        seen = []
        tracer = Tracer(slow_ms=10_000.0, slow_sink=seen.append)
        trace = new_trace_id()
        tracer.finish(tracer.start(trace, "fast"))
        tracer.end_trace(trace)
        assert not tracer.slow_log and not seen
        tracer.slow_ms = 0.0
        trace = new_trace_id()
        tracer.finish(tracer.start(trace, "slow"))
        record = tracer.end_trace(trace)
        assert record.slow
        assert list(tracer.slow_log) == [record] == seen
        assert tracer.slow_records()[-1]["root"] == "slow"

    def test_adopt_remaps_and_reparents(self):
        remote = Tracer()
        trace = new_trace_id()
        remote_root = remote.start(trace, "backend.query")
        remote.finish(remote.start(trace, "stage", parent=remote_root.id))
        remote.finish(remote_root)
        serialized = remote.end_trace(trace).spans

        local = Tracer()
        root = local.start(trace, "gateway")
        adopted = local.adopt(trace, serialized, parent=root.id)
        local.finish(root)
        record = local.end_trace(trace)
        assert adopted == 2
        by_name = {span["name"]: span for span in record.spans}
        assert by_name["backend.query"]["parent"] == by_name["gateway"]["id"]
        assert by_name["stage"]["parent"] == by_name["backend.query"]["id"]
        # Remapped ids must not collide with local ones.
        assert len({span["id"] for span in record.spans}) == 3

    def test_discard_and_active_cap(self):
        tracer = Tracer()
        trace = new_trace_id()
        tracer.start(trace, "r")
        tracer.discard(trace)
        assert tracer.end_trace(trace) is None
        assert tracer.stats()["finished"] == 0


# ----------------------------------------------------------------------
# Protocol v2 (trace header)
# ----------------------------------------------------------------------
class TestTraceFraming:
    def test_untraced_frames_are_byte_identical_to_v1(self):
        assert protocol.encode_frame(
            protocol.PING, 7, b"x", trace=0
        ) == protocol.encode_frame(protocol.PING, 7, b"x")
        data = protocol.encode_frame(protocol.PING, 7, b"x")
        assert data[1] == protocol.VERSION
        assert len(data) == protocol.HEADER_SIZE + 1

    def test_traced_frame_round_trip(self):
        trace = new_trace_id()
        data = protocol.encode_frame(protocol.QUERY, 3, b"payload", trace=trace)
        assert data[1] == protocol.TRACE_VERSION
        decoder = protocol.FrameDecoder()
        frames = decoder.feed(data)
        assert len(frames) == 1
        assert frames[0].trace == trace
        assert bytes(frames[0].payload) == b"payload"

    def test_mixed_version_stream_decodes_in_order(self):
        trace = new_trace_id()
        stream = (
            protocol.encode_frame(protocol.PING, 1, b"a")
            + protocol.encode_frame(protocol.QUERY, 2, b"b", trace=trace)
            + protocol.encode_frame(protocol.PING, 3, b"c")
        )
        decoder = protocol.FrameDecoder()
        # Byte-at-a-time: header boundaries must not confuse the decoder.
        frames = []
        for index in range(len(stream)):
            frames.extend(decoder.feed(stream[index : index + 1]))
        assert [frame.trace for frame in frames] == [0, trace, 0]

    def test_out_of_range_trace_rejected(self):
        with pytest.raises(ValueError):
            protocol.encode_frame(protocol.PING, 1, b"", trace=-1)
        with pytest.raises(ValueError):
            protocol.encode_frame(
                protocol.PING, 1, b"", trace=protocol.MAX_TRACE_ID + 1
            )


# ----------------------------------------------------------------------
# End-to-end: single server
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def traced_server():
    station, subjects = hospital_station(folders=2, seed=11)
    server = StationServer(station, chunk_size=256, slow_ms=0.0)
    thread = ServerThread(server)
    host, port = thread.start()
    yield server, host, port, subjects
    thread.stop()
    station.close()


class TestServerTracing:
    def test_trace_id_rides_query_and_comes_back_with_spans(self, traced_server):
        server, host, port, subjects = traced_server
        trace = new_trace_id()
        with RemoteSession(host, port, subjects[0]) as session:
            result = session.evaluate("hospital", trace=trace)
        assert result.trace_id == format_trace_id(trace)
        spans = result.spans
        names = [span["name"] for span in spans]
        assert "backend.query" in names
        assert "queue" in names and "stream" in names
        assert any(name.startswith("stage:") for name in names)
        # Every non-root span nests under the backend root.
        root = next(span for span in spans if span["name"] == "backend.query")
        assert root["parent"] == 0
        ids = {span["id"] for span in spans}
        assert all(
            span["parent"] in ids for span in spans if span is not root
        )

    def test_cache_miss_records_one_evaluate_span(self):
        station, subjects = hospital_station(folders=2, seed=11)
        server = StationServer(station, chunk_size=256, slow_ms=0.0)
        thread = ServerThread(server)
        host, port = thread.start()
        try:
            with RemoteSession(host, port, subjects[0]) as session:
                result = session.evaluate("hospital", trace=new_trace_id())
        finally:
            thread.stop()
            station.close()
        assert result.trailer.get("cached") is not True
        stages = [span for span in result.spans if span["name"].startswith("stage:")]
        assert [span["name"] for span in stages] == ["stage:evaluate"]
        attrs = stages[0]["attrs"]
        for name in ("chunks_accessed", "bytes_decrypted", "events"):
            assert attrs[name] > 0, name
        assert attrs["backend"] == station.backend.name

    def test_untraced_requests_carry_no_span_payload(self, traced_server):
        server, host, port, subjects = traced_server
        with RemoteSession(host, port, subjects[0]) as session:
            result = session.evaluate("hospital")
        assert result.trace_id == ""
        assert result.spans == []

    def test_session_level_tracing_mints_ids(self, traced_server):
        server, host, port, subjects = traced_server
        with RemoteSession(host, port, subjects[0], trace=True) as session:
            first = session.evaluate("hospital")
            second = session.evaluate("hospital")
        assert first.trace_id and second.trace_id
        assert first.trace_id != second.trace_id
        assert second.trailer.get("cached") is True
        assert [span["name"] for span in second.spans].count("view-cache") == 1

    def test_slow_log_retains_full_tree(self, traced_server):
        server, host, port, subjects = traced_server
        with RemoteSession(host, port, subjects[0], trace=True) as session:
            session.evaluate("hospital")
        records = server.tracer.slow_records()
        assert records, "slow_ms=0 must flag every traced request"
        tree = format_span_tree(records[-1])
        assert "backend.query" in tree

    def test_fast_path_ships_id_only_without_slow_threshold(self):
        # Without a slow threshold a direct traced response carries the
        # trace id but no span payload, and its trace is already
        # counted finished when the RESULT arrives.
        station, subjects = hospital_station(folders=2, seed=11)
        server = StationServer(station, chunk_size=256)
        thread = ServerThread(server)
        host, port = thread.start()
        try:
            trace = new_trace_id()
            with RemoteSession(host, port, subjects[0]) as session:
                result = session.evaluate("hospital", trace=trace)
            assert result.trace_id == format_trace_id(trace)
            assert result.spans == []
            assert "spans" not in result.trailer
            assert server.tracer.stats()["finished"] == 1
        finally:
            thread.stop()
            station.close()

    def test_no_reader_means_no_spans(self):
        # No slow log and no gateway upstream: nothing reads a tree, so
        # a traced miss or hit makes no span at all.
        station, subjects = hospital_station(folders=2, seed=11)
        server = StationServer(station, chunk_size=256)
        made = []
        new_span = server.tracer._new_span

        def counting(*args):
            made.append(args[1])
            return new_span(*args)

        server.tracer._new_span = counting
        thread = ServerThread(server)
        host, port = thread.start()
        try:
            with RemoteSession(host, port, subjects[0], trace=True) as session:
                miss = session.evaluate("hospital")
                hit = session.evaluate("hospital")
            assert miss.trailer.get("cached") is not True
            assert hit.trailer.get("cached") is True
            assert miss.trace_id and hit.trace_id
            assert made == []
            stats = server.tracer.stats()
            assert stats["started"] == stats["finished"] == 2
        finally:
            thread.stop()
            station.close()

    @pytest.mark.parametrize("slow_ms", [None, 0.0])
    def test_every_trace_is_finished_or_dropped(self, slow_ms):
        station, subjects = hospital_station(folders=2, seed=11)
        server = StationServer(station, chunk_size=256, slow_ms=slow_ms)
        thread = ServerThread(server)
        host, port = thread.start()
        try:
            with RemoteSession(host, port, subjects[0], trace=True) as session:
                session.evaluate("hospital")
                with pytest.raises(RemoteError) as excinfo:
                    session.evaluate("no-such-document")
                assert excinfo.value.code == "unknown-document"
            with RemoteSession(host, port, "stranger", trace=True) as session:
                with pytest.raises(RemoteError) as excinfo:
                    session.evaluate("hospital")
                assert excinfo.value.code == "no-grant"
            stats = server.tracer.stats()
            assert stats["started"] == 3
            assert stats["finished"] == 1 and stats["dropped"] == 2
            assert "retained" not in stats
        finally:
            thread.stop()
            station.close()

    def test_stats_body_reports_observability_and_backend(self, traced_server):
        server, host, port, subjects = traced_server
        with RemoteSession(host, port, subjects[0]) as session:
            body = session.stats()
        assert "native_kernels" in body["backend"]
        assert body["observability"]["finished"] >= 0
        assert "slow_log" in body["observability"]


# ----------------------------------------------------------------------
# End-to-end: cluster (gateway adoption + failover)
# ----------------------------------------------------------------------
class TestClusterTracing:
    def test_gateway_grafts_backend_spans_into_one_tree(self):
        from repro.cluster.topology import hospital_cluster

        cluster, docs, subjects = hospital_cluster(
            backends=3, replicas=2, documents=1, folders=2, slow_ms=0.0
        )
        try:
            host, port = cluster.gateway_address
            trace = new_trace_id()
            with RemoteSession(host, port, subjects[0]) as session:
                result = session.evaluate(docs[0], trace=trace)
            assert result.trace_id == format_trace_id(trace)
            names = [span["name"] for span in result.spans]
            assert names[0] == "gateway.request"
            assert any(name.startswith("forward:") for name in names)
            assert "backend.query" in names
            assert any(name.startswith("stage:") for name in names)
            by_id = {span["id"]: span for span in result.spans}
            backend_root = next(
                span for span in result.spans if span["name"] == "backend.query"
            )
            forward = by_id[backend_root["parent"]]
            assert forward["name"].startswith("forward:")
            assert by_id[forward["parent"]]["name"] == "gateway.request"
            # The gateway's slow log holds the same cross-process tree.
            record = cluster.gateway.tracer.slow_records()[-1]
            assert "gateway.request" in format_span_tree(record)
        finally:
            cluster.stop()

    def test_trace_survives_mid_run_failover_retry(self):
        from repro.cluster.topology import hospital_cluster

        cluster, docs, subjects = hospital_cluster(
            backends=3, replicas=2, documents=1, folders=2, slow_ms=0.0
        )
        try:
            host, port = cluster.gateway_address
            document = docs[0]
            with RemoteSession(host, port, subjects[0]) as session:
                warm = session.evaluate(document)
                # Kill the backend that served the query; the gateway
                # still believes it is alive, so the next forward hits
                # the dead socket and must fail over — same trace.
                cluster.kill_backend(warm.trailer["backend"])
                trace = new_trace_id()
                result = session.evaluate(document, trace=trace)
            assert result.trace_id == format_trace_id(trace)
            assert result.trailer["failover"] == 1
            assert result.data == warm.data
            forwards = [
                span
                for span in result.spans
                if span["name"].startswith("forward:")
            ]
            assert len(forwards) == 2
            failed = next(s for s in forwards if "error" in s["attrs"])
            survived = next(s for s in forwards if "error" not in s["attrs"])
            assert failed["name"] != survived["name"]
            assert any(
                span["name"] == "backend.query" for span in result.spans
            )
        finally:
            cluster.stop()

    def test_cluster_stats_aggregates_from_pooled_samples(self):
        from repro.cluster.topology import hospital_cluster
        from repro.metrics import percentile

        cluster, docs, subjects = hospital_cluster(
            backends=3, replicas=2, documents=2, folders=2
        )
        try:
            host, port = cluster.gateway_address
            with RemoteSession(host, port, subjects[0]) as session:
                for document in docs * 3:
                    session.evaluate(document)
                body = session.stats()
            assert body["ring"] == {"alive": 3, "total": 3}
            samples = [
                sample
                for backend in cluster.gateway.backends.values()
                for sample in backend.latencies
            ]
            expected = round(percentile(samples, 95) * 1000, 3)
            assert body["latency_ms"]["p95"] == expected
            # The pooled aggregate is NOT the average of per-backend
            # percentiles (that would dilute a skewed node's tail).
            per_backend_p95 = [
                entry["latency_ms"]["p95"]
                for entry in body["per_backend"].values()
                if entry["requests"]
            ]
            assert min(per_backend_p95) <= body["latency_ms"]["p95"]
            assert body["latency_ms"]["p95"] <= max(per_backend_p95)
            for entry in body["per_backend"].values():
                assert "p99" in entry["latency_ms"]
                if entry["alive"]:
                    assert "native_kernels" in (entry.get("backend") or {})
            assert body["compute"]["native_backends"] in range(0, 4)
        finally:
            cluster.stop()


# ----------------------------------------------------------------------
# Metrics endpoint
# ----------------------------------------------------------------------
class TestMetricsEndpoint:
    def test_scrape_and_health(self, traced_server):
        server, host, port, subjects = traced_server
        metrics = MetricsServer(server.registry, 0).start()
        try:
            with RemoteSession(host, port, subjects[0]) as session:
                session.evaluate("hospital")
            base = "http://%s" % metrics.address
            body = urllib.request.urlopen(base + "/metrics", timeout=10)
            text = body.read().decode("utf-8")
            assert body.headers["Content-Type"].startswith("text/plain")
            for family in (
                "repro_requests_total",
                "repro_request_ms_bucket",
                "repro_view_bytes_bucket",
                "repro_station_",
                "repro_server_",
                "repro_native_kernels",
                "repro_traces_finished",
            ):
                assert family in text, family
            health = urllib.request.urlopen(base + "/healthz", timeout=10)
            assert health.read() == b"ok\n"
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(base + "/nope", timeout=10)
        finally:
            metrics.stop()


    def test_each_station_counter_exported_once(self, tmp_path):
        """Every count the station, the server, its meter, its store and
        a gateway keep lands in exactly one /metrics family, under its
        typed name: stamp each with a distinct value, scrape, and list
        the families carrying it."""
        from repro.cluster.gateway import ClusterGateway
        from repro.engine import SecureStation, StationConfig
        from repro.metrics import Meter
        from repro.store import LogStore

        station = SecureStation(
            StationConfig(store=LogStore(str(tmp_path)))
        )
        server = StationServer(station)
        gateway = ClusterGateway({"node0": ("127.0.0.1", 1)})
        counters = station.store.counters
        owners = (
            (server, "repro_station_", station.stats.__slots__, station.stats),
            (server, "repro_server_", StationServer.STATS, server.stats),
            (server, "repro_meter_", Meter.FIELDS, server.meter),
            (server, "repro_store_", tuple(counters), counters),
            (gateway, "repro_gateway_", ClusterGateway.STATS, gateway.stats),
        )
        stamp = 7_000_003
        expected = {}
        for frame_server, prefix, fields, owner in owners:
            for field in fields:
                stamp += 1
                if isinstance(owner, dict):
                    owner[field] = stamp
                else:
                    setattr(owner, field, stamp)
                name = prefix + field
                if field != "active" and not name.endswith("_total"):
                    name += "_total"
                expected[stamp] = (frame_server, name)
        try:
            for frame_server in (server, gateway):
                carriers = {}
                for name, family in frame_server.registry.snapshot().items():
                    for sample in family["samples"]:
                        carriers.setdefault(sample.get("value"), []).append(name)
                for value, (owner, name) in expected.items():
                    if owner is frame_server:
                        assert carriers.get(value) == [name], name
        finally:
            station.close()


def _family_types(text):
    """``{family: type}`` from the ``# TYPE`` lines of a scrape."""
    return dict(
        line.split()[2:4] for line in text.splitlines() if line.startswith("# TYPE")
    )


class TestMetricTypes:
    """After one query and one update, every monotonic count renders as
    a ``counter`` named ``*_total``, and only point-in-time values are
    gauges."""

    def _check_names(self, types):
        for name, kind in types.items():
            assert name.endswith("_total") == (kind == "counter"), (name, kind)

    def test_station_server_with_log_store(self, tmp_path):
        from repro.engine.station import StationStats
        from repro.metrics import Meter
        from repro.store import LogStore
        from repro.skipindex.updates import UpdateOp
        from repro.xmlkit.parser import parse_document

        store = LogStore(str(tmp_path))
        station, subjects = hospital_station(folders=2, store=store)
        server = StationServer(station)
        thread = ServerThread(server)
        host, port = thread.start()
        try:
            with RemoteSession(host, port, subjects[0]) as session:
                session.evaluate("hospital")
                op = UpdateOp(
                    "insert_element", [], node=parse_document("<Folder>t</Folder>")
                )
                session.update("hospital", op)
            text = server.registry.render()
        finally:
            thread.stop()
            station.close()
        types = _family_types(text)
        self._check_names(types)
        counts = (
            ("repro_station_", StationStats.__slots__),
            ("repro_server_", [f for f in StationServer.STATS if f != "active"]),
            ("repro_meter_", Meter.FIELDS),
            ("repro_store_", tuple(store.counters)),
        )
        for prefix, fields in counts:
            for field in fields:
                assert prefix + field not in types or field.endswith("_total")
                name = prefix + field
                name += "" if name.endswith("_total") else "_total"
                assert types[name] == "counter", name
        for name in (
            "repro_store_lost_entries_dropped_total",
            "repro_store_index_blobs_dropped_total",
            "repro_station_view_hits_total",
        ):
            assert "# TYPE %s counter" % name in text
        assert "repro_meter_bytes_transferred_total 0" not in text
        assert "repro_server_updates_total 1" in text
        for gauge in (
            "repro_server_active",
            "repro_cached_views",
            "repro_cached_plans",
            "repro_native_kernels",
            "repro_store_documents",
            "repro_store_log_bytes",
            "repro_store_cache_used_bytes",
            "repro_store_persistent",
        ):
            assert types[gauge] == "gauge", gauge

    def test_gateway(self):
        from repro.cluster.gateway import ClusterGateway
        from repro.cluster.topology import hospital_cluster
        from repro.skipindex.updates import UpdateOp
        from repro.xmlkit.parser import parse_document

        cluster, _docs, _subjects = hospital_cluster(
            backends=2, replicas=2, documents=1, folders=2
        )
        try:
            with RemoteSession(*cluster.gateway_address, "secretary") as session:
                session.evaluate("hospital")
                op = UpdateOp(
                    "insert_element", [], node=parse_document("<Folder>t</Folder>")
                )
                session.update("hospital", op)
            text = cluster.gateway.registry.render()
        finally:
            cluster.stop()
        types = _family_types(text)
        self._check_names(types)
        for field in ClusterGateway.STATS:
            kind = "gauge" if field == "active" else "counter"
            name = "repro_gateway_" + field + ("" if kind == "gauge" else "_total")
            assert types[name] == kind, name
        assert "repro_gateway_queries_total 1" in text
        assert "repro_gateway_updates_total 1" in text
        assert types["repro_backend_requests_total"] == "counter"
        assert types["repro_ring_alive"] == types["repro_ring_backends"] == "gauge"
        assert types["repro_traces_finished_total"] == "counter"


# ----------------------------------------------------------------------
# Dashboard rendering (pure formatting)
# ----------------------------------------------------------------------
GATEWAY_BODY = {
    "role": "gateway",
    "replicas": 2,
    "ring": {"alive": 2, "total": 3},
    "gateway": {"queries": 10, "updates": 2, "failovers": 1, "repairs": 1},
    "latency_ms": {"p50": 4.0, "p95": 9.0, "p99": 12.0},
    "observability": {"slow_queries": 3},
    "per_backend": {
        "node0": {
            "alive": True,
            "requests": 6,
            "latency_ms": {"p50": 4.0, "p95": 8.0, "p99": 9.0},
            "station": {"view_hits": 3, "view_misses": 1},
            "backend": {"name": "native", "native_kernels": True},
        },
        "node1": {
            "alive": False,
            "requests": 4,
            "latency_ms": {"p50": 5.0, "p95": 9.0, "p99": 12.0},
            "station": {"view_hits": 0, "view_misses": 4},
            "backend": {"name": "pure", "native_kernels": False},
        },
    },
}


class TestDashboard:
    def test_flatten_sorts_dotted_paths(self):
        rows = flatten_stats({"b": {"y": 1, "x": 2}, "a": 3})
        assert rows == [("a", 3), ("b.x", 2), ("b.y", 1)]

    def test_render_stats_formats(self):
        import json as jsonlib

        body = {"server": {"queries": 5}, "list": [1, 2]}
        parsed = jsonlib.loads(render_stats(body, "json"))
        assert parsed == body
        csv = render_stats(body, "csv")
        assert csv.splitlines()[0] == "key,value"
        assert 'list,"[1, 2]"' in csv
        table = render_stats(body, "table")
        assert "server.queries" in table
        with pytest.raises(ValueError):
            render_stats(body, "xml")

    def test_render_stats_table_truncates_bulky_values(self):
        body = {"observability": {"slow_log": [{"x": "y" * 200}]}}
        table = render_stats(body, "table")
        assert max(len(line) for line in table.splitlines()) < 120

    def test_render_top_gateway_frame(self):
        prev = {
            "per_backend": {
                "node0": {"requests": 2},
                "node1": {"requests": 4},
            }
        }
        frame = render_top(GATEWAY_BODY, prev, interval=2.0, address="gw:1")
        assert "backends 2/3 alive" in frame
        assert "queries=10" in frame
        assert "slow=3" in frame
        lines = frame.splitlines()
        node0 = next(line for line in lines if line.startswith("| node0"))
        assert "2.0" in node0  # (6 - 2) / 2s
        assert "75%" in node0
        node1 = next(line for line in lines if line.startswith("| node1"))
        assert "DOWN" in node1
        assert "no" in node1

    def test_render_top_station_frame(self):
        body = {
            "role": "station",
            "server": {"queries": 8, "updates": 1},
            "station": {"view_hits": 6, "view_misses": 2},
            "cached_views": 2,
            "backend": {"name": "native", "native_kernels": True},
            "observability": {"slow_queries": 0},
        }
        frame = render_top(body, None, None, address="st:1")
        assert "station st:1" in frame
        assert "8" in frame and "75%" in frame and "yes" in frame

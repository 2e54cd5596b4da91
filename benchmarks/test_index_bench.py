"""Structural-index benchmark: chunk-range serving vs full streaming.

The acceptance workload for the publish-time (pre, post, level) index:
one highly selective query (``//rare/val``) against a document whose
payload is hundreds of cold sibling records.  The streaming evaluator
must decrypt at least a chunk per sibling header to walk past them; the
indexed station resolves the query to a chunk-range plan before any
decryption and touches only the ranges that contribute to the view.

Guards (the reason this lives in CI):

* identical output — the indexed view is byte-equal to the streamed one;
* wall-clock speedup >= ``MIN_SPEEDUP`` on the selective query;
* chunks decrypted by the indexed path <= ``MAX_CHUNK_FRACTION`` of the
  chunks the streaming path touches (the index is doing the skipping,
  not a cache);
* an ineligible (wildcard) query falls back to streaming with no
  overhead catastrophe (sanity, not a ratio guard).

The full report lands in ``BENCH_index.json`` next to the other
``BENCH_*.json`` artifacts.
"""

import json
import pathlib
import time

from conftest import write_bench
from repro.engine import PublishOptions, SecureStation, StationConfig
from repro.xmlkit.dom import Node
from repro.xmlkit.serializer import serialize_events

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

RECORDS = 400
REPEATS = 5
MIN_SPEEDUP = 5.0
MAX_CHUNK_FRACTION = 0.05


def selective_document(records: int = RECORDS) -> Node:
    """A folder of ``records`` fat cold records plus one hot needle."""
    root = Node("folder")
    for index in range(records):
        record = Node("rec")
        record.add(Node("name").add("record-%04d" % index))
        record.add(Node("data").add("x" * 300))
        root.add(record)
    rare = Node("rare")
    rare.add(Node("val").add("gold"))
    root.add(rare)
    return root


def _station(index: bool) -> SecureStation:
    station = SecureStation(StationConfig(cache_views=False))
    station.publish(
        "doc", selective_document(), PublishOptions(scheme="ECB-MHT", index=index)
    )
    station.grant("doc", _policy())
    return station


def _policy():
    from repro import AccessRule, Policy

    return Policy([AccessRule("+", "//folder")], subject="reader")


def _timed(station: SecureStation, query) -> dict:
    """Best-of-``REPEATS`` wall time plus the final request's meter."""
    best = float("inf")
    result = None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        result = station.evaluate("doc", "reader", query=query)
        best = min(best, time.perf_counter() - t0)
    return {
        "seconds": best,
        "chunks": result.meter.chunks_accessed,
        "bytes_decrypted": result.meter.bytes_decrypted,
        "view": serialize_events(result.events),
        "indexed": result.indexed,
    }


def test_index_bench_writes_report():
    streamed_station = _station(index=False)
    indexed_station = _station(index=True)

    streamed = _timed(streamed_station, "//rare/val")
    indexed = _timed(indexed_station, "//rare/val")

    # Correctness before speed: byte-identical views, and the indexed
    # station really served through the index.
    assert indexed["view"] == streamed["view"]
    assert "gold" in indexed["view"]
    assert indexed["indexed"] and not streamed["indexed"]
    assert indexed_station.stats.indexed_requests == REPEATS

    speedup = streamed["seconds"] / max(indexed["seconds"], 1e-9)
    chunk_fraction = indexed["chunks"] / max(streamed["chunks"], 1)
    assert speedup >= MIN_SPEEDUP, (
        "indexed path only %.1fx faster (streamed %.3fms, indexed %.3fms)"
        % (speedup, streamed["seconds"] * 1e3, indexed["seconds"] * 1e3)
    )
    assert chunk_fraction <= MAX_CHUNK_FRACTION, (
        "indexed path decrypted %d of %d streamed chunks (%.1f%%)"
        % (indexed["chunks"], streamed["chunks"], 100 * chunk_fraction)
    )

    # Ineligible query: wildcard steps fall back to full streaming and
    # still agree with the streaming station.
    wild_streamed = _timed(streamed_station, "//rare/*")
    wild_indexed = _timed(indexed_station, "//rare/*")
    assert wild_indexed["view"] == wild_streamed["view"]
    assert not wild_indexed["indexed"]

    report = {
        "bench": "index",
        "records": RECORDS,
        "repeats": REPEATS,
        "query": "//rare/val",
        "streamed_ms": streamed["seconds"] * 1e3,
        "indexed_ms": indexed["seconds"] * 1e3,
        "speedup": speedup,
        "streamed_chunks": streamed["chunks"],
        "indexed_chunks": indexed["chunks"],
        "chunk_fraction": chunk_fraction,
        "streamed_bytes_decrypted": streamed["bytes_decrypted"],
        "indexed_bytes_decrypted": indexed["bytes_decrypted"],
        "fallback_query": "//rare/*",
        "fallback_ms": wild_indexed["seconds"] * 1e3,
        "min_speedup_guard": MIN_SPEEDUP,
        "max_chunk_fraction_guard": MAX_CHUNK_FRACTION,
    }
    written = write_bench("index", report)

    loaded = json.loads((REPO_ROOT / "BENCH_index.json").read_text())
    assert loaded == json.loads(json.dumps(written))
    assert loaded["bench"] == "index"
    assert loaded["speedup"] >= MIN_SPEEDUP

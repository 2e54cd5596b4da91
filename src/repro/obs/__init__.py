"""Shared observability layer: metrics registry, request tracing, exposition.

The paper's argument is a *linear cost model* (Table 1 / §7): every
request's price is a sum of bytes transferred, bytes decrypted, bytes
hashed and automaton token operations.  ``repro.metrics.Meter`` already
accounts those costs per request; this package makes them — and the
wall-clock reality around them — observable while the system runs:

``repro.obs.registry``
    A process-wide metrics registry: counters, gauges and fixed-bucket
    histograms.  Lock-cheap (one small lock per instrument, none on the
    read path until scrape), mergeable like ``Meter.merged()``, and
    renderable in the Prometheus text exposition format.  The serving
    counts (station, server, meter, store) are not copied into it: it
    exposes each owner's own counters as typed families, read at
    scrape time.

``repro.obs.trace``
    Request tracing: 64-bit trace ids minted at the client or gateway
    and carried in the wire frame header (protocol version 2), and
    per-stage spans (gateway routing, backend queueing, evaluation,
    compute dispatch) built only for a reader: the gateway a FORWARD
    ships them to, or a slow-query log that captures the full span
    tree of any request over a threshold.

``repro.obs.http``
    A tiny stdlib HTTP listener serving ``/metrics`` (Prometheus text
    format) and ``/healthz`` — wired to ``serve|cluster
    --metrics-port``.

``repro.obs.dashboard``
    Rendering for ``repro stats --format table|csv|json`` and the
    ``repro top`` terminal dashboard (per-backend rps, p50/p95/p99,
    view-cache hit rate, native kernels, ring health).

Only the registry and tracer are re-exported: the serving process
loads them, while ``http`` (which pulls in ``http.server``) and
``dashboard`` are ops tools imported from their submodules.

Everything here is stdlib-only and cheap enough to stay on by default:
the cached hot path with tracing enabled is ratio-guarded (≤ 5%
overhead) by ``benchmarks/test_obs_bench.py``.
"""

from repro.obs.registry import (
    BYTE_BUCKETS,
    LATENCY_BUCKETS_MS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import Span, TraceRecord, Tracer, format_span_tree, new_trace_id

__all__ = [
    "BYTE_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS_MS",
    "MetricsRegistry",
    "Span",
    "TraceRecord",
    "Tracer",
    "format_span_tree",
    "new_trace_id",
]

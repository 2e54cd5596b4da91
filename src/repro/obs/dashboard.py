"""Rendering for ``repro stats`` and the ``repro top`` dashboard.

Both commands poll the same STATS wire frame a station or gateway
already serves; everything here is pure formatting over that body so it
can be unit-tested without sockets.  ``repro top`` keeps the previous
poll to turn monotonically increasing request counters into rates.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = ["flatten_stats", "render_stats", "render_top"]


def flatten_stats(body: Dict[str, Any], prefix: str = "") -> List[Tuple[str, Any]]:
    """Depth-first ``("a.b.c", value)`` pairs for csv/table output."""
    rows: List[Tuple[str, Any]] = []
    for key in sorted(body):
        value = body[key]
        path = "%s.%s" % (prefix, key) if prefix else str(key)
        if isinstance(value, dict):
            rows.extend(flatten_stats(value, path))
        elif isinstance(value, (list, tuple)):
            rows.append((path, json.dumps(value)))
        else:
            rows.append((path, value))
    return rows


def _table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for index, row in enumerate(cells):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        if index == 0:
            lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    return "\n".join(lines)


def render_stats(body: Dict[str, Any], fmt: str = "table") -> str:
    """Render a STATS body as ``table``, ``csv`` or ``json``."""
    if fmt == "json":
        return json.dumps(body, indent=2, sort_keys=True)
    if fmt == "csv":
        lines = ["key,value"]
        for key, value in flatten_stats(body):
            text = str(value)
            if "," in text or '"' in text:
                text = '"%s"' % text.replace('"', '""')
            lines.append("%s,%s" % (key, text))
        return "\n".join(lines)
    if fmt != "table":
        raise ValueError("unknown stats format %r" % (fmt,))
    # Table: the per_backend map renders as a real table, the rest as
    # flattened key/value rows.  Bulky nested payloads (the slow-query
    # log's span trees) would blow the value column out to hundreds of
    # columns; they stay reachable via --format json.
    sections: List[str] = []
    per_backend = body.get("per_backend")
    if isinstance(per_backend, dict) and per_backend:
        sections.append(_backend_table(body))
    scalar_body = {k: v for k, v in body.items() if k != "per_backend"}
    rows = [
        (key, value if len(str(value)) <= 60 else str(value)[:57] + "...")
        for key, value in flatten_stats(scalar_body)
    ]
    sections.append(_table(("key", "value"), rows))
    return "\n\n".join(sections)


def _cache_rate(station: Optional[Dict[str, Any]]) -> str:
    if not station:
        return "-"
    hits = int(station.get("view_hits") or 0)
    misses = int(station.get("view_misses") or 0)
    total = hits + misses
    if total == 0:
        return "-"
    return "%d%%" % round(100.0 * hits / total)


def _latency_cell(latency: Optional[Dict[str, Any]], key: str) -> str:
    if not latency:
        return "-"
    value = latency.get(key)
    return "-" if value is None else "%.1f" % float(value)


def _human_bytes(count: int) -> str:
    value = float(count)
    for unit in ("B", "K", "M", "G", "T"):
        if value < 1024.0 or unit == "T":
            if unit == "B":
                return "%d%s" % (int(value), unit)
            return "%.1f%s" % (value, unit)
        value /= 1024.0
    return "%dB" % count


def _store_cell(store: Optional[Dict[str, Any]]) -> str:
    """Condense a store ``describe()`` payload into one table cell."""
    if not store:
        return "-"
    if not store.get("persistent"):
        return "mem"
    hits = int(store.get("page_hits") or 0)
    misses = int(store.get("page_misses") or 0)
    total = hits + misses
    rate = "-" if total == 0 else "%d%%" % round(100.0 * hits / total)
    return "log %s %s" % (_human_bytes(int(store.get("log_bytes") or 0)), rate)


def _backend_rows(
    body: Dict[str, Any],
    prev: Optional[Dict[str, Any]] = None,
    interval: Optional[float] = None,
) -> List[List[str]]:
    prev_backends = (prev or {}).get("per_backend") or {}
    rows: List[List[str]] = []
    for name in sorted(body.get("per_backend") or {}):
        entry = body["per_backend"][name]
        latency = entry.get("latency_ms") or {}
        backend_info = entry.get("backend") or {}
        requests = int(entry.get("requests") or 0)
        if interval and name in prev_backends:
            delta = requests - int(prev_backends[name].get("requests") or 0)
            rps = "%.1f" % (max(0, delta) / interval)
        else:
            rps = "-"
        native = backend_info.get("native_kernels")
        rows.append(
            [
                name,
                "up" if entry.get("alive") else "DOWN",
                str(requests),
                rps,
                _latency_cell(latency, "p50"),
                _latency_cell(latency, "p95"),
                _latency_cell(latency, "p99"),
                _cache_rate(entry.get("station")),
                "-" if native is None else ("yes" if native else "no"),
                _store_cell(entry.get("store")),
            ]
        )
    return rows


_BACKEND_HEADERS = (
    "backend",
    "state",
    "requests",
    "rps",
    "p50ms",
    "p95ms",
    "p99ms",
    "cache%",
    "native",
    "store",
)


def _backend_table(
    body: Dict[str, Any],
    prev: Optional[Dict[str, Any]] = None,
    interval: Optional[float] = None,
) -> str:
    return _table(_BACKEND_HEADERS, _backend_rows(body, prev, interval))


def render_top(
    body: Dict[str, Any],
    prev: Optional[Dict[str, Any]] = None,
    interval: Optional[float] = None,
    address: str = "",
) -> str:
    """One ``repro top`` frame for a gateway or single-station STATS body."""
    lines: List[str] = []
    obs = body.get("observability") or {}
    if body.get("role") == "gateway":
        ring = body.get("ring") or {}
        gateway = body.get("gateway") or {}
        lines.append(
            "repro top — gateway %s · backends %s/%s alive · replicas %s"
            % (
                address or "?",
                ring.get("alive", "?"),
                ring.get("total", "?"),
                body.get("replicas", "?"),
            )
        )
        latency = body.get("latency_ms") or {}
        lines.append(
            "cluster: queries=%d updates=%d failovers=%d repairs=%d "
            "p50=%s p95=%s p99=%s slow=%d"
            % (
                int(gateway.get("queries") or 0),
                int(gateway.get("updates") or 0),
                int(gateway.get("failovers") or 0),
                int(gateway.get("repairs") or 0),
                _latency_cell(latency, "p50"),
                _latency_cell(latency, "p95"),
                _latency_cell(latency, "p99"),
                int(obs.get("slow_queries") or 0),
            )
        )
        lines.append("")
        lines.append(_backend_table(body, prev, interval))
    else:
        station = body.get("station") or {}
        server = body.get("server") or {}
        backend_info = body.get("backend") or {}
        requests = int(server.get("queries") or 0)
        if interval and prev is not None:
            prev_requests = int((prev.get("server") or {}).get("queries") or 0)
            rps = "%.1f" % (max(0, requests - prev_requests) / interval)
        else:
            rps = "-"
        native = backend_info.get("native_kernels")
        lines.append("repro top — station %s" % (address or "?"))
        lines.append("")
        lines.append(
            _table(
                (
                    "queries",
                    "rps",
                    "updates",
                    "cache%",
                    "views",
                    "native",
                    "store",
                    "slow",
                ),
                [
                    [
                        str(requests),
                        rps,
                        str(int(server.get("updates") or 0)),
                        _cache_rate(station),
                        str(body.get("cached_views", "-")),
                        "-" if native is None else ("yes" if native else "no"),
                        _store_cell(body.get("store")),
                        str(int(obs.get("slow_queries") or 0)),
                    ]
                ],
            )
        )
    return "\n".join(lines)

"""Metrics registry: counters, gauges and fixed-bucket histograms.

Design constraints, in order:

1. **Lock-cheap.**  Every instrument owns one tiny ``threading.Lock``
   held only for the few bytecodes of a read-modify-write; nothing is
   locked on the scrape path beyond a snapshot of the family table.
   (Plain ``+=`` on an attribute is *not* atomic across threads in
   CPython — the concurrent-increment test in ``tests/test_obs.py``
   fails without the lock.)

2. **Mergeable**, like ``Meter.merged()``.  Histograms with identical
   bucket bounds merge by summing bucket counts, so a gateway can pool
   per-backend latency histograms into one statistically correct
   aggregate instead of averaging per-backend percentile values
   (averaging percentiles is wrong under skewed backends).

3. **Fixed buckets.**  Bucket upper bounds are chosen at registration
   time and never move, which keeps ``observe()`` at one ``bisect``
   plus two adds and makes merge associative by construction.

Counts that an owner already keeps safely (``StationStats``, each
frame server's ``stats`` dict, the server's ``Meter``, a store's
``counters``) are not copied into instruments: :meth:`MetricsRegistry.expose`
declares typed families over the owner's own values, read only when
the registry renders.  Each count has one home, and STATS and
``/metrics`` read the same numbers.

The registry renders in the Prometheus text exposition format (served
by ``repro.obs.http``) and snapshots to plain dicts for the STATS wire
frame and ``repro stats``.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "BYTE_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS_MS",
    "MetricsRegistry",
]

# Latency buckets in *milliseconds* — the unit every report in this repo
# already uses (gateway STATS, bench tables, perfbench).
LATENCY_BUCKETS_MS: Tuple[float, ...] = (
    1.0,
    2.5,
    5.0,
    10.0,
    25.0,
    50.0,
    100.0,
    250.0,
    500.0,
    1000.0,
    2500.0,
    5000.0,
    10000.0,
)

# Byte-size buckets for payload/chunk histograms.
BYTE_BUCKETS: Tuple[float, ...] = (
    256.0,
    1024.0,
    4096.0,
    16384.0,
    65536.0,
    262144.0,
    1048576.0,
    4194304.0,
    16777216.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _fmt_value(value: float) -> str:
    """Prometheus sample value: integral floats render without decimals."""
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return "%d" % int(value)
    return repr(float(value))


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace('"', '\\"')
    )


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up, got %r" % (amount,))
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def merge(self, other: "Counter") -> None:
        self.inc(other.value)


class Gauge:
    """Value that can go up and down (or be set outright)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value

    def merge(self, other: "Gauge") -> None:
        # Gauges merge by sum: every use in this repo is a total
        # (cached views, live connections) where summing across
        # processes is the meaningful aggregate.
        with self._lock:
            self._value += other._value


class Histogram:
    """Fixed-bucket histogram with inclusive (``le``) upper bounds.

    ``observe(v)`` lands ``v`` in the first bucket whose bound is
    ``>= v``; values above the last bound land in the implicit ``+Inf``
    bucket.  Merging requires identical bounds and is associative and
    commutative (it just sums counts), so ``Histogram.merged()`` over
    per-backend histograms equals one histogram fed every raw sample.
    """

    __slots__ = ("bounds", "_counts", "_sum", "_lock")

    def __init__(self, buckets: Sequence[float] = LATENCY_BUCKETS_MS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(
                "bucket bounds must be strictly increasing: %r" % (bounds,)
            )
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        idx = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value

    @property
    def count(self) -> int:
        return sum(self._counts)

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def bucket_counts(self) -> Tuple[int, ...]:
        """Per-bucket counts, last entry being the ``+Inf`` bucket."""
        return tuple(self._counts)

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile estimated by linear interpolation
        inside the owning bucket (the ``+Inf`` bucket reports the last
        finite bound — the histogram cannot see beyond it)."""
        if not 0 <= q <= 100:
            raise ValueError("percentile q must be in [0, 100], got %r" % (q,))
        with self._lock:
            counts = list(self._counts)
            total = sum(counts)
        if total == 0:
            return 0.0
        rank = max(1, math.ceil((q / 100.0) * total))
        cumulative = 0
        for idx, count in enumerate(counts):
            if count == 0:
                continue
            before = cumulative
            cumulative += count
            if cumulative >= rank:
                if idx >= len(self.bounds):
                    return self.bounds[-1]
                lower = self.bounds[idx - 1] if idx > 0 else 0.0
                upper = self.bounds[idx]
                return lower + (upper - lower) * ((rank - before) / count)
        return self.bounds[-1]

    def merge(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise ValueError(
                "cannot merge histograms with different bounds: %r vs %r"
                % (self.bounds, other.bounds)
            )
        with other._lock:
            counts = list(other._counts)
            total = other._sum
        with self._lock:
            for idx, count in enumerate(counts):
                self._counts[idx] += count
            self._sum += total

    @classmethod
    def merged(cls, histograms: Iterable["Histogram"]) -> "Histogram":
        items = list(histograms)
        if not items:
            return cls()
        out = cls(items[0].bounds)
        for item in items:
            out.merge(item)
        return out

    def as_dict(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "buckets": list(self.bounds),
                "counts": list(self._counts),
                "sum": self._sum,
            }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Histogram":
        out = cls(data["buckets"])
        counts = [int(c) for c in data["counts"]]
        if len(counts) != len(out._counts):
            raise ValueError("histogram counts/buckets length mismatch")
        out._counts = counts
        out._sum = float(data.get("sum", 0.0))
        return out


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class _Family:
    """One named metric family; children are keyed by label values."""

    __slots__ = ("name", "kind", "help", "labelnames", "_children", "_lock", "_factory")

    def __init__(
        self,
        name: str,
        kind: str,
        help_text: str,
        labelnames: Tuple[str, ...],
        factory: Callable[[], Any],
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.labelnames = labelnames
        self._children: Dict[Tuple[str, ...], Any] = {}
        self._lock = threading.Lock()
        self._factory = factory

    def labels(self, **labels: str) -> Any:
        if tuple(sorted(labels)) != tuple(sorted(self.labelnames)):
            raise ValueError(
                "metric %r takes labels %r, got %r"
                % (self.name, self.labelnames, tuple(labels))
            )
        key = tuple(str(labels[name]) for name in self.labelnames)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.setdefault(key, self._factory())
        return child

    def _default_child(self) -> Any:
        if self.labelnames:
            raise ValueError(
                "metric %r declares labels %r: use .labels(...)"
                % (self.name, self.labelnames)
            )
        return self.labels()

    # Convenience delegation for unlabelled families.
    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default_child().dec(amount)

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)

    @property
    def value(self) -> float:
        return self._default_child().value

    def collect(self) -> List[Tuple[Tuple[str, ...], Any]]:
        with self._lock:
            return sorted(self._children.items())


class MetricsRegistry:
    """Named families of instruments + Prometheus text exposition."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}
        self._exposed: List[tuple] = []

    # -- registration --------------------------------------------------
    def _family(
        self,
        name: str,
        kind: str,
        help_text: str,
        labelnames: Sequence[str],
        factory: Callable[[], Any],
    ) -> _Family:
        if not _NAME_RE.match(name):
            raise ValueError("invalid metric name %r" % (name,))
        names = tuple(labelnames)
        for label in names:
            if not _LABEL_RE.match(label):
                raise ValueError("invalid label name %r" % (label,))
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind or family.labelnames != names:
                    raise ValueError(
                        "metric %r already registered as %s%r"
                        % (name, family.kind, family.labelnames)
                    )
                return family
            family = _Family(name, kind, help_text, names, factory)
            self._families[name] = family
            return family

    def counter(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> _Family:
        return self._family(name, "counter", help_text, labelnames, Counter)

    def gauge(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> _Family:
        return self._family(name, "gauge", help_text, labelnames, Gauge)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Sequence[float] = LATENCY_BUCKETS_MS,
        labelnames: Sequence[str] = (),
    ) -> _Family:
        bounds = tuple(float(b) for b in buckets)
        return self._family(
            name, "histogram", help_text, labelnames, lambda: Histogram(bounds)
        )

    def expose(
        self,
        prefix: str,
        kind: str,
        read: Callable[[], Dict[str, float]],
        *,
        label: Optional[str] = None,
        help_text: str = "",
    ) -> None:
        """Declare families over an owner's ``{field: value}`` counts.

        ``read`` is called only by :meth:`render` and :meth:`snapshot`,
        so the owner's hot path pays nothing.  Each field becomes the
        family ``prefix + field``; with ``label``, ``prefix`` is one
        family and each field is a value of that label.  A ``counter``
        name ends in ``_total`` (added unless the field already has it).
        """
        if kind not in ("counter", "gauge"):
            raise ValueError("an exposed family is a counter or a gauge: %r" % kind)
        if not _NAME_RE.match(prefix):
            raise ValueError("invalid metric name %r" % (prefix,))
        if label is not None and not _LABEL_RE.match(label):
            raise ValueError("invalid label name %r" % (label,))
        with self._lock:
            self._exposed.append((prefix, kind, read, label, help_text))

    # -- exposition ----------------------------------------------------
    def _collect(self) -> List[_Family]:
        """Every family to render: the registered instruments, then one
        read of each exposed owner."""
        with self._lock:
            families = list(self._families.values())
            exposed = list(self._exposed)
        for prefix, kind, read, label, help_text in exposed:
            # Each read value is held in a throwaway Gauge; ``kind``
            # alone decides the rendered type.
            if label is not None:
                family = _Family(_named(prefix, kind), kind, help_text, (label,), Gauge)
                for key, value in read().items():
                    family.labels(**{label: key}).set(value)
                families.append(family)
                continue
            for field, value in read().items():
                name = _named(prefix + field, kind)
                family = _Family(name, kind, help_text, (), Gauge)
                family.set(value)
                families.append(family)
        return families

    def render(self) -> str:
        """Prometheus text exposition format 0.0.4."""
        lines: List[str] = []
        for family in self._collect():
            children = family.collect()
            if not children:
                continue
            if family.help:
                lines.append("# HELP %s %s" % (family.name, family.help))
            lines.append("# TYPE %s %s" % (family.name, family.kind))
            for key, child in children:
                labels = dict(zip(family.labelnames, key))
                if family.kind == "histogram":
                    lines.extend(self._render_histogram(family.name, labels, child))
                else:
                    lines.append(
                        "%s %s"
                        % (_sample_name(family.name, labels), _fmt_value(child.value))
                    )
        return "\n".join(lines) + "\n"

    @staticmethod
    def _render_histogram(
        name: str, labels: Dict[str, str], histogram: Histogram
    ) -> List[str]:
        lines: List[str] = []
        cumulative = 0
        counts = histogram.bucket_counts
        for bound, count in zip(histogram.bounds, counts):
            cumulative += count
            bucket_labels = dict(labels)
            bucket_labels["le"] = _fmt_value(bound)
            lines.append(
                "%s %d" % (_sample_name(name + "_bucket", bucket_labels), cumulative)
            )
        cumulative += counts[-1]
        inf_labels = dict(labels)
        inf_labels["le"] = "+Inf"
        lines.append(
            "%s %d" % (_sample_name(name + "_bucket", inf_labels), cumulative)
        )
        lines.append(
            "%s %s" % (_sample_name(name + "_sum", labels), _fmt_value(histogram.sum))
        )
        lines.append("%s %d" % (_sample_name(name + "_count", labels), cumulative))
        return lines

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able view of every family (for STATS / ``repro stats``)."""
        out: Dict[str, Any] = {}
        for family in self._collect():
            entries = []
            for key, child in family.collect():
                labels = dict(zip(family.labelnames, key))
                if family.kind == "histogram":
                    entry: Dict[str, Any] = {"labels": labels}
                    entry.update(child.as_dict())
                    entry["count"] = child.count
                else:
                    entry = {"labels": labels, "value": child.value}
                entries.append(entry)
            out[family.name] = {"type": family.kind, "samples": entries}
        return out


def _named(name: str, kind: str) -> str:
    if kind == "counter" and not name.endswith("_total"):
        return name + "_total"
    return name


def _sample_name(name: str, labels: Dict[str, str]) -> str:
    if not labels:
        return name
    rendered = ",".join(
        '%s="%s"' % (key, _escape_label(value))
        for key, value in sorted(labels.items())
    )
    return "%s{%s}" % (name, rendered)

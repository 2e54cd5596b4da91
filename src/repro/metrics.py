"""Work accounting shared by the evaluator, navigators and the SOE.

The paper's performance is governed by a handful of linear costs
(Table 1 and Section 7): bytes communicated to the SOE, bytes decrypted
inside it, hashing work, and the CPU cost of the access-control
automata (proportional to token operations).  A :class:`Meter` counts
every one of these primitive quantities; the SOE cost model
(:mod:`repro.soe.costmodel`) converts the counts into simulated time.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Iterable, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (q in [0, 100]).

    The smallest sample such that at least ``q`` percent of the data is
    less than or equal to it: ``ordered[ceil(q/100 * n) - 1]``.  Linear
    interpolation would invent latencies no request ever had and, at
    small sample counts, report a "p99" *below* the worst observed
    request; nearest-rank degrades honestly — with 5 samples, p99 is
    the maximum.  Used by the cluster gateway's per-backend STATS.
    """
    if not 0 <= q <= 100:
        raise ValueError("percentile q must be in [0, 100], got %r" % (q,))
    if not values:
        return 0.0
    ordered = sorted(values)
    if q == 0:
        return ordered[0]
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[min(rank, len(ordered)) - 1]


class Meter:
    """Mutable counter bundle; every field is a plain integer.

    Communication / crypto quantities are in bytes, the rest are event
    or operation counts.
    """

    FIELDS = (
        # --- communication & crypto -----------------------------------
        "bytes_transferred",  # bytes entering the SOE from the terminal
        "bytes_decrypted",  # bytes block-decrypted inside the SOE
        "bytes_hashed",  # bytes hashed inside the SOE (integrity)
        "bytes_delivered",  # bytes of authorized output leaving the SOE
        "digest_decrypts",  # encrypted chunk digests decrypted
        "hash_nodes",  # Merkle-tree node recombinations in the SOE
        "chunks_accessed",  # distinct chunks touched
        # --- parsing / evaluation --------------------------------------
        "events",  # open/value/close events processed
        "token_ops",  # automaton transition firings
        "auth_pushes",  # Authorization Stack pushes
        "decisions",  # DecideNode computations
        "killed_tokens",  # tokens discarded by Skip-index filtering
        "skipped_subtrees",  # subtrees skipped outright (denied/irrelevant)
        "deferred_subtrees",  # pending subtrees skipped + read back later
        "readback_events",  # events re-fetched when pending parts resolve
        "skipped_bytes",  # encoded bytes never sent to the SOE
        "pending_nodes",  # nodes buffered with an undecided condition
    )

    __slots__ = FIELDS

    def __init__(self):
        for field in self.FIELDS:
            setattr(self, field, 0)

    def reset(self) -> None:
        for field in self.FIELDS:
            setattr(self, field, 0)

    def as_dict(self) -> Dict[str, int]:
        return {field: getattr(self, field) for field in self.FIELDS}

    def merge(self, other: "Meter") -> None:
        for field in self.FIELDS:
            setattr(self, field, getattr(self, field) + getattr(other, field))

    def copy(self) -> "Meter":
        """A fresh plain-:class:`Meter` with the same counts."""
        duplicate = Meter()
        for field in self.FIELDS:
            setattr(duplicate, field, getattr(self, field))
        return duplicate

    @classmethod
    def merged(cls, meters: Iterable["Meter"]) -> "Meter":
        """A fresh meter holding the sum of ``meters``."""
        total = cls()
        for meter in meters:
            total.merge(meter)
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        interesting = {k: v for k, v in self.as_dict().items() if v}
        return "Meter(%s)" % interesting


class ThreadSafeMeter(Meter):
    """A :class:`Meter` usable as a cross-thread aggregation point.

    Plain meters are single-owner by design: the hot paths increment
    fields with ``meter.events += 1`` and taking a lock per event would
    be absurd.  Concurrent components (the network server, one request
    per executor thread) therefore fold each request's private plain
    :class:`Meter` into one shared ``ThreadSafeMeter`` as the request
    completes; only the fold and the reads (STATS, ``/metrics``) are
    serialized here.
    """

    __slots__ = ("_lock",)

    def __init__(self):
        # The lock must exist before Meter.__init__ zeroes the fields
        # (reset() below takes it).
        object.__setattr__(self, "_lock", threading.Lock())
        super().__init__()

    def merge(self, other: "Meter") -> None:
        with self._lock:
            super().merge(other)

    def reset(self) -> None:
        with self._lock:
            super().reset()

    def as_dict(self) -> Dict[str, int]:
        with self._lock:
            return super().as_dict()

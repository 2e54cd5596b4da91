"""SOE-side result types of the secure pipeline (Fig. 2).

:class:`PreparedDocument` is the publisher's output — the Skip-index
encoding plus its encrypted/digested form at the terminal — and
:class:`SessionResult` is one SOE run's authorized view with its cost
accounting: the :class:`~repro.metrics.Meter` counts and their
conversion to simulated seconds by the :mod:`~repro.soe.costmodel`.
The functions that produce them live in :mod:`repro.engine.pipeline`
(:func:`~repro.engine.pipeline.prepare_document`,
:func:`~repro.engine.pipeline.evaluate_document`); multi-client
serving lives in :class:`~repro.engine.station.SecureStation`.

:func:`lwb_seconds` is the theoretical LWB oracle of Section 7.
"""

from __future__ import annotations

from typing import List, Optional, Union

from repro.crypto.integrity import BaseScheme, SecureDocument
from repro.metrics import Meter
from repro.skipindex.encoder import EncodedDocument, encode_document
from repro.soe.costmodel import CONTEXTS, CostModel, PlatformContext, TimeBreakdown
from repro.xmlkit.events import OPEN, TEXT, Event, events_to_tree


class PreparedDocument:
    """Publisher output: the encoded document + its protected form.

    ``index`` optionally carries the publish-time
    :class:`~repro.skipindex.structural.StructuralIndex`; it travels
    with the document through stores, updates and cluster repair so an
    indexed document stays indexed wherever its chunks go.
    """

    def __init__(
        self,
        encoded: EncodedDocument,
        scheme: BaseScheme,
        secure: SecureDocument,
        index=None,
    ):
        self.encoded = encoded
        self.scheme = scheme
        self.secure = secure
        self.index = index

    @property
    def encoded_size(self) -> int:
        return len(self.encoded.data)

    @property
    def stored_size(self) -> int:
        return self.secure.stored_size()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "PreparedDocument(%s, %d encoded bytes)" % (
            self.scheme.name,
            self.encoded_size,
        )


def delivered_bytes(events: List[Event]) -> int:
    """Size estimate of the authorized view leaving the SOE.

    The view leaves in its compact encoded form: tags cost a dictionary
    code (~1 byte in our accounting) and text costs its UTF-8 length —
    comparable to the TC encoding of the result.
    """
    total = 0
    for event in events:
        if event[0] == TEXT:
            total += len(event[1].encode("utf-8"))
        elif event[0] == OPEN:
            total += 2
        else:
            total += 1
    return total


class SessionResult:
    """Authorized view + cost accounting of one SOE run.

    ``document_version`` is stamped by :meth:`SecureStation.evaluate`
    with the update version of the exact snapshot evaluated (read
    atomically with the snapshot itself); ``None`` outside the station
    path.  ``cache_hit`` marks a
    result served from the station's version-keyed view cache — its
    events/breakdown are then shared read-only with the cache entry,
    and the meter still carries the simulated Table-1 costs of the
    original evaluation (cached and uncached responses report
    identical simulated seconds).
    """

    def __init__(
        self,
        events: List[Event],
        meter: Meter,
        breakdown: TimeBreakdown,
        context: PlatformContext,
    ):
        self.events = events
        self.meter = meter
        self.breakdown = breakdown
        self.context = context
        self.document_version: Optional[int] = None
        self.cache_hit = False
        #: True when the station served this result through the
        #: structural index (indexed navigation or a provably-empty
        #: early exit) instead of full streaming.
        self.indexed = False
        #: Station-internal: the view-cache entry backing this result
        #: (lets :meth:`SecureStation.stream` reuse the serialized
        #: payload).  ``None`` outside the station path.
        self.cache_entry = None

    @property
    def seconds(self) -> float:
        return self.breakdown.total

    @property
    def result_bytes(self) -> int:
        return delivered_bytes(self.events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SessionResult(%.3fs, %d events)" % (self.seconds, len(self.events))


def lwb_bytes(view_events: List[Event]) -> int:
    """Encoded size of the authorized view — what the LWB oracle reads.

    The oracle knows in advance where the authorized fragments are; it
    reads exactly their encoded bytes.  We measure that as the size of
    the Skip-index encoding of the view itself.
    """
    if not view_events:
        return 0
    tree = events_to_tree(view_events)
    return len(encode_document(tree).data)


def lwb_seconds(
    view_events: List[Event],
    context: Union[str, PlatformContext] = "smartcard",
    with_integrity: bool = False,
) -> float:
    """Simulated time of the theoretical LWB oracle (Section 7)."""
    platform = CONTEXTS[context] if isinstance(context, str) else context
    return CostModel(platform).lower_bound_seconds(
        lwb_bytes(view_events), with_integrity=with_integrity
    )

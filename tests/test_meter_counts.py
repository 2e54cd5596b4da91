"""Exact Meter counts of every served read path on every scheme.

The simulated Table-1 costs are linear in these counts, so a reader
refactor that keeps views identical must also keep every count
identical: bytes transferred, decrypted and hashed, digest decrypts,
Merkle recombinations and chunks touched, down to the unit.  The
figures below were taken from the readers' per-scheme form and are
compared with ``Meter.as_dict()`` exactly (fields not listed are 0).
"""

from __future__ import annotations

import pytest

from repro.datasets.hospital import (
    HospitalConfig,
    doctor_policy,
    generate_hospital,
)
from repro.engine import pipeline
from repro.engine.pipeline import audit_integrity
from repro.engine.station import PublishOptions, SecureStation
from repro.metrics import Meter

SCHEMES = ("ECB", "CBC-SHA", "CBC-SHAC", "ECB-MHT")
DOCTOR = "doctor1"
STRUCTURAL_QUERY = "/Hospital/Folder/Admin"
WILDCARD_QUERY = "//Admin/*"


#: Meter fields charged by the scheme readers, in tuple order below.
CRYPTO_FIELDS = (
    "bytes_transferred",
    "bytes_decrypted",
    "bytes_hashed",
    "digest_decrypts",
    "hash_nodes",
    "chunks_accessed",
)

#: Per scheme and case, the CRYPTO_FIELDS counts.
CRYPTO = {
    "ECB": {
        "whole": (3176, 3176, 0, 0, 0, 8),
        "structural": (408, 408, 0, 0, 0, 3),
        "wildcard": (920, 920, 0, 0, 0, 4),
        "audit": (6696, 6696, 0, 0, 0, 4),
    },
    "CBC-SHA": {
        "whole": (16576, 16576, 16384, 8, 0, 8),
        "structural": (6216, 6216, 6144, 3, 0, 3),
        "wildcard": (8288, 8288, 8192, 4, 0, 4),
        "audit": (8288, 8288, 8192, 4, 0, 4),
    },
    "CBC-SHAC": {
        "whole": (16576, 3368, 16384, 8, 0, 8),
        "structural": (6216, 480, 6144, 3, 0, 3),
        "wildcard": (8288, 1016, 8192, 4, 0, 4),
        "audit": (8288, 6792, 8192, 4, 0, 4),
    },
    "ECB-MHT": {
        "whole": (9672, 3368, 7680, 8, 90, 8),
        "structural": (3548, 480, 2816, 3, 33, 3),
        "wildcard": (6100, 1016, 4864, 4, 57, 4),
        "audit": (7048, 6792, 6912, 4, 25, 4),
    },
}

#: Per case, the non-zero evaluation counts: the same on every scheme.
EVALUATION = {
    "whole": {
        "bytes_delivered": 2787,
        "events": 163,
        "token_ops": 61,
        "auth_pushes": 18,
        "decisions": 77,
        "killed_tokens": 112,
        "skipped_subtrees": 8,
        "deferred_subtrees": 29,
        "readback_events": 35,
        "skipped_bytes": 6145,
        "pending_nodes": 19,
    },
    "structural": {
        "bytes_delivered": 306,
        "events": 163,
        "token_ops": 68,
        "auth_pushes": 18,
        "decisions": 77,
        "killed_tokens": 112,
        "skipped_subtrees": 49,
        "readback_events": 3,
        "skipped_bytes": 6145,
    },
    "wildcard": {
        "bytes_delivered": 306,
        "events": 199,
        "token_ops": 82,
        "auth_pushes": 18,
        "decisions": 95,
        "killed_tokens": 122,
        "skipped_subtrees": 49,
        "readback_events": 18,
        "skipped_bytes": 6109,
    },
}


def _station(scheme: str) -> SecureStation:
    station = SecureStation(cache_views=False)
    station.publish(
        "h",
        generate_hospital(HospitalConfig(folders=3, seed=7)),
        PublishOptions(scheme=scheme, index=True),
    )
    station.grant("h", doctor_policy(DOCTOR))
    return station


def _audit_meter(prepared, monkeypatch) -> Meter:
    """The private meter :func:`audit_integrity` charges its sweep to."""
    made = []

    class Recording(Meter):
        __slots__ = ()

        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(pipeline, "Meter", Recording)
    report = audit_integrity(prepared)
    monkeypatch.undo()
    assert report["ok"] and len(made) == 1
    return made[0]


def _measure(scheme: str, monkeypatch):
    """``{case: Meter.as_dict()}`` for one scheme."""
    with _station(scheme) as station:
        whole = station.evaluate("h", DOCTOR)
        structural = station.evaluate("h", DOCTOR, query=STRUCTURAL_QUERY)
        wildcard = station.evaluate("h", DOCTOR, query=WILDCARD_QUERY)
        assert not whole.indexed and structural.indexed and not wildcard.indexed
        audit = _audit_meter(station.document("h"), monkeypatch)
    return {
        "whole": whole.meter.as_dict(),
        "structural": structural.meter.as_dict(),
        "wildcard": wildcard.meter.as_dict(),
        "audit": audit.as_dict(),
    }


@pytest.mark.parametrize("scheme", SCHEMES)
def test_meter_counts_are_pinned(scheme, monkeypatch):
    measured = _measure(scheme, monkeypatch)
    assert list(measured) == list(CRYPTO[scheme])
    for case, counts in measured.items():
        expected = dict.fromkeys(Meter.FIELDS, 0)
        expected.update(zip(CRYPTO_FIELDS, CRYPTO[scheme][case]))
        expected.update(EVALUATION.get(case, {}))
        assert counts == expected, (scheme, case)

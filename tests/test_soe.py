"""Integration tests of the full secure pipeline (Fig. 2 architecture).

Document -> Skip-index encode -> encrypt/digest -> SOE session
(decrypt + verify + decode + evaluate) -> authorized view.
"""

import pytest

from repro import reference_authorized_view
from repro.crypto.integrity import IntegrityError
from repro.datasets import (
    HospitalConfig,
    doctor_policy,
    generate_hospital,
    researcher_policy,
    secretary_policy,
)
from repro.engine import evaluate_document, prepare_document
from repro.soe.session import delivered_bytes, lwb_bytes, lwb_seconds
from repro.xmlkit.events import CLOSE, OPEN, TEXT


@pytest.fixture(scope="module")
def hospital():
    return generate_hospital(HospitalConfig(folders=12, seed=3))


@pytest.fixture(scope="module", params=["ECB", "ECB-MHT", "CBC-SHA", "CBC-SHAC"])
def prepared(request, hospital):
    return prepare_document(hospital, scheme=request.param)


class TestEndToEnd:
    def test_secretary_view_matches_reference(self, hospital, prepared):
        result = evaluate_document(prepared, secretary_policy())
        assert result.events == reference_authorized_view(
            hospital, secretary_policy()
        )

    def test_doctor_view_matches_reference(self, hospital, prepared):
        policy = doctor_policy("doctor1")
        result = evaluate_document(prepared, policy)
        assert result.events == reference_authorized_view(hospital, policy)

    def test_researcher_view_matches_reference(self, hospital, prepared):
        policy = researcher_policy()
        result = evaluate_document(prepared, policy)
        assert result.events == reference_authorized_view(hospital, policy)

    def test_query_view_matches_reference(self, hospital, prepared):
        policy = doctor_policy("doctor0")
        query = "//Folder[//Age > 50]"
        result = evaluate_document(prepared, policy, query=query)
        assert result.events == reference_authorized_view(
            hospital, policy, query=query
        )

    def test_brute_force_same_view(self, hospital, prepared):
        policy = secretary_policy()
        skip = evaluate_document(prepared, policy, use_skip_index=True)
        brute = evaluate_document(prepared, policy, use_skip_index=False)
        assert skip.events == brute.events


class TestCostAccounting:
    def test_skip_index_reduces_costs(self):
        # Needs a document large enough that skipped subtrees dominate
        # the chunk-granularity overheads of the integrity scheme.
        doc = generate_hospital(HospitalConfig(folders=80, seed=4))
        policy = secretary_policy()
        for scheme in ["ECB", "ECB-MHT"]:
            prepared = prepare_document(doc, scheme=scheme)
            skip = evaluate_document(prepared, policy, use_skip_index=True)
            brute = evaluate_document(prepared, policy, use_skip_index=False)
            assert skip.meter.bytes_transferred < brute.meter.bytes_transferred
            assert skip.meter.bytes_decrypted < brute.meter.bytes_decrypted
            assert skip.seconds < brute.seconds

    def test_brute_force_reads_whole_document(self, hospital):
        prepared = prepare_document(hospital, scheme="ECB")
        result = evaluate_document(
            prepared, secretary_policy(), use_skip_index=False
        )
        # Every payload byte crosses the channel (block-aligned).
        assert result.meter.bytes_decrypted >= prepared.encoded_size * 0.95

    def test_integrity_costs_ordering(self, hospital):
        policy = secretary_policy()
        times = {}
        for scheme in ["ECB", "ECB-MHT", "CBC-SHAC", "CBC-SHA"]:
            prepared = prepare_document(hospital, scheme=scheme)
            times[scheme] = evaluate_document(prepared, policy).seconds
        # Fig. 11 ordering: ECB < ECB-MHT < CBC-SHAC < CBC-SHA.
        assert times["ECB"] < times["ECB-MHT"]
        assert times["ECB-MHT"] < times["CBC-SHAC"]
        assert times["CBC-SHAC"] <= times["CBC-SHA"]

    def test_lwb_is_a_lower_bound(self, hospital):
        prepared = prepare_document(hospital, scheme="ECB")
        for policy in [secretary_policy(), doctor_policy("doctor0"),
                       researcher_policy()]:
            result = evaluate_document(prepared, policy)
            lwb = lwb_seconds(result.events, "smartcard")
            assert lwb <= result.seconds * 1.5  # near or below the real time
            assert lwb <= evaluate_document(
                prepared, policy, use_skip_index=False
            ).seconds

    def test_breakdown_components_positive(self, hospital):
        prepared = prepare_document(hospital, scheme="ECB-MHT")
        result = evaluate_document(prepared, doctor_policy("doctor0"))
        breakdown = result.breakdown
        assert breakdown.communication > 0
        assert breakdown.decryption > 0
        assert breakdown.access_control > 0
        assert breakdown.integrity > 0
        assert abs(sum(breakdown.shares().values()) - 1.0) < 1e-9

    def test_decryption_dominates_on_smartcard(self, hospital):
        # Fig. 9: decryption 53-60%, communication 30-38%, AC 2-15%.
        prepared = prepare_document(hospital, scheme="ECB")
        result = evaluate_document(prepared, doctor_policy("doctor0"))
        shares = result.breakdown.shares()
        assert shares["decryption"] > shares["communication"]
        assert shares["communication"] > shares["access_control"]

    def test_contexts_change_tradeoffs(self, hospital):
        prepared = prepare_document(hospital, scheme="ECB")
        policy = secretary_policy()
        card = evaluate_document(prepared, policy, context="smartcard")
        lan = evaluate_document(prepared, policy, context="sw-lan")
        assert lan.seconds < card.seconds

    def test_delivered_bytes_counts_text(self):
        from repro.xmlkit.events import Event

        events = [Event(OPEN, "a"), Event(TEXT, "hello"), Event(CLOSE, "a")]
        assert delivered_bytes(events) == 2 + 5 + 1

    def test_lwb_bytes_empty_view(self):
        assert lwb_bytes([]) == 0


class TestTamperingEndToEnd:
    def test_tampered_document_detected_during_session(self, hospital):
        prepared = prepare_document(hospital, scheme="ECB-MHT")
        prepared.secure.stored[len(prepared.secure.stored) // 3] ^= 0x10
        with pytest.raises(IntegrityError):
            evaluate_document(prepared, secretary_policy(), use_skip_index=False)

    def test_ecb_session_not_protected(self, hospital):
        # Without integrity the pipeline may fail arbitrarily or return
        # garbage, but it must not *silently verify* anything.
        prepared = prepare_document(hospital, scheme="ECB")
        # Tamper inside the document body (the header region before
        # root_offset is SOE-resident and never read back).
        prepared.secure.stored[len(prepared.secure.stored) // 2] ^= 0x01
        try:
            result = evaluate_document(
                prepared, secretary_policy(), use_skip_index=False
            )
        except Exception as error:  # garbled stream: decode errors are fine
            assert not isinstance(error, IntegrityError)
        else:
            assert result.events != reference_authorized_view(
                hospital, secretary_policy()
            )

"""Tests for the secure-channel provisioning layer."""

import pytest

from repro.accesscontrol.model import AccessRule, Policy
from repro.soe.provisioning import (
    Credential,
    ProvisioningError,
    ProvisioningServer,
    SoeKeyStore,
    deserialize_policy,
    serialize_policy,
)

SECRET = b"channel-secret-0123456789abcdef"
DOC_KEY = bytes(range(16))


def sample_policy(subject="doctor0"):
    return Policy(
        [
            AccessRule("+", "//Folder/Admin", "D1"),
            AccessRule("+", "//MedActs[//RPhys = USER]", "D2"),
            AccessRule("-", "//Act[RPhys != USER]/Details", "D3"),
        ],
        subject=subject,
    )


def server():
    srv = ProvisioningServer(SECRET)
    srv.register_document("folders-2004", DOC_KEY)
    srv.grant("folders-2004", "doctor0", sample_policy())
    return srv


class TestPolicySerialization:
    def test_round_trip(self):
        policy = sample_policy()
        restored = deserialize_policy(serialize_policy(policy))
        assert restored.subject == policy.subject
        assert list(restored.rules) == list(policy.rules)

    def test_dummy_tag_preserved(self):
        policy = Policy([AccessRule("+", "//a")], dummy_tag="_")
        restored = deserialize_policy(serialize_policy(policy))
        assert restored.dummy_tag == "_"

    def test_user_binding_survives(self):
        policy = sample_policy("alice")
        restored = deserialize_policy(serialize_policy(policy))
        # The USER variable was bound to 'alice' before serialization.
        rendered = [str(rule.object) for rule in restored.rules]
        assert any("alice" in text for text in rendered)


class TestIssueInstall:
    def test_end_to_end(self):
        credential = server().issue("folders-2004", "doctor0")
        store = SoeKeyStore(SECRET)
        document_id = store.install(credential, now=100.0)
        assert document_id == "folders-2004"
        assert store.key_for(document_id, now=100.0) == DOC_KEY
        policy = store.policy_for(document_id, now=100.0)
        assert policy.subject == "doctor0"
        assert len(policy) == 3

    def test_unknown_document(self):
        with pytest.raises(ProvisioningError):
            server().issue("nope", "doctor0")

    def test_unknown_subject(self):
        with pytest.raises(ProvisioningError):
            server().issue("folders-2004", "stranger")

    def test_revocation_blocks_new_credentials(self):
        srv = server()
        srv.revoke("folders-2004", "doctor0")
        with pytest.raises(ProvisioningError):
            srv.issue("folders-2004", "doctor0")

    def test_expiry_enforced_at_install(self):
        credential = server().issue("folders-2004", "doctor0", expires_at=50.0)
        store = SoeKeyStore(SECRET)
        with pytest.raises(ProvisioningError):
            store.install(credential, now=100.0)

    def test_expiry_enforced_at_use(self):
        credential = server().issue("folders-2004", "doctor0", expires_at=150.0)
        store = SoeKeyStore(SECRET)
        store.install(credential, now=100.0)
        assert store.key_for("folders-2004", now=120.0) == DOC_KEY
        with pytest.raises(ProvisioningError):
            store.key_for("folders-2004", now=200.0)
        # The expired entry is purged.
        with pytest.raises(ProvisioningError):
            store.policy_for("folders-2004", now=120.0)

    def test_tampered_credential_rejected(self):
        credential = server().issue("folders-2004", "doctor0")
        blob = bytearray(credential.blob)
        blob[len(blob) // 2] ^= 0x01
        store = SoeKeyStore(SECRET)
        with pytest.raises(ProvisioningError):
            store.install(Credential(bytes(blob)), now=0.0)

    def test_wrong_channel_secret_rejected(self):
        credential = server().issue("folders-2004", "doctor0")
        store = SoeKeyStore(b"another-secret-0123456789abcdef")
        with pytest.raises(ProvisioningError):
            store.install(credential, now=0.0)

    def test_credential_is_opaque(self):
        credential = server().issue("folders-2004", "doctor0")
        assert b"doctor0" not in credential.blob
        assert DOC_KEY.hex().encode() not in credential.blob

    def test_short_secret_rejected(self):
        with pytest.raises(ValueError):
            ProvisioningServer(b"short")


class TestProvisionedSession:
    def test_credential_drives_a_real_session(self):
        """Full circle: credential -> key + policy -> SOE session."""
        from repro.datasets import HospitalConfig, generate_hospital
        from repro.engine import evaluate_document, prepare_document
        from repro import reference_authorized_view

        doc = generate_hospital(HospitalConfig(folders=6, seed=8))
        srv = ProvisioningServer(SECRET)
        srv.register_document("hospital", DOC_KEY)
        srv.grant("hospital", "doctor0", sample_policy())
        credential = srv.issue("hospital", "doctor0", expires_at=1e9)

        store = SoeKeyStore(SECRET)
        store.install(credential, now=0.0)
        key = store.key_for("hospital", now=0.0)
        policy = store.policy_for("hospital", now=0.0)

        prepared = prepare_document(doc, scheme="ECB-MHT", key=key)
        result = evaluate_document(prepared, policy)
        assert result.events == reference_authorized_view(doc, policy)

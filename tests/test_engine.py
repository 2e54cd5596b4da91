"""Tests for the engine layer: plans, pipeline, SecureStation."""

import pytest

from repro import (
    AccessRule,
    Policy,
    authorized_view,
    compile_policy,
    reference_authorized_view,
)
from repro.accesscontrol.evaluator import StreamingEvaluator
from repro.engine import (
    QueryPlan,
    SecureStation,
    StationError,
    audit_integrity,
    compile_query,
    evaluate_document,
    open_sealed,
    policy_digest,
    prepare_document,
)
from repro.xmlkit.events import events_to_tree
from repro.xmlkit.parser import parse_document
from repro.xmlkit.serializer import serialize_events
from repro.xpath import nfa
from repro.xpath import parser as xparser

DOC = (
    "<folder><admin><name>ann</name><ssn>123</ssn></admin>"
    "<acts><act><doctor>ann</doctor><result>ok</result></act>"
    "<act><doctor>bob</doctor><result>bad</result></act></acts></folder>"
)

DOC2 = "<folder><admin><name>zoe</name></admin><notes>private</notes></folder>"


def make_docs():
    return parse_document(DOC), parse_document(DOC2)


def secretary():
    return Policy(
        [AccessRule("+", "//admin"), AccessRule("-", "//ssn")], subject="sec"
    )


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------
class TestPolicyPlan:
    def test_plan_matches_policy_path(self):
        tree, _ = make_docs()
        policy = secretary()
        plan = compile_policy(policy)
        assert authorized_view(tree, plan) == authorized_view(tree, policy)

    def test_plan_is_reused_without_recompilation(self):
        tree, tree2 = make_docs()
        plan = compile_policy(secretary())
        compiles = nfa.compile_calls()
        parses = xparser.parse_calls()
        for document in (tree, tree2, tree, tree2):
            authorized_view(document, plan)
        assert nfa.compile_calls() == compiles
        assert xparser.parse_calls() == parses

    def test_plan_accepts_rule_pairs(self):
        tree, _ = make_docs()
        plan = compile_policy([("+", "//admin"), ("-", "//ssn")])
        reference = reference_authorized_view(
            tree, Policy([AccessRule("+", "//admin"), AccessRule("-", "//ssn")])
        )
        assert authorized_view(tree, plan) == reference

    def test_compile_policy_passthrough(self):
        plan = compile_policy(secretary())
        assert compile_policy(plan) is plan

    def test_digest_stability(self):
        assert policy_digest(secretary()) == policy_digest(secretary())
        other = Policy([AccessRule("+", "//admin")], subject="sec")
        assert policy_digest(secretary()) != policy_digest(other)
        resubjected = Policy(secretary().rules, subject="other")
        assert policy_digest(secretary()) != policy_digest(resubjected)

    def test_digest_resists_field_collisions(self):
        # Crafted rule text must not collapse two different rule lists
        # onto one digest (the plan cache would serve the wrong rules).
        split = Policy(
            [AccessRule("+", "//a", name="x"), AccessRule("+", "//b", name="y")],
            subject="s",
        )
        joined = Policy(
            [AccessRule("+", "//a", name="x|+|//b|y")], subject="s"
        )
        assert policy_digest(split) != policy_digest(joined)

    def test_query_memo_is_bounded(self):
        plan = compile_policy(secretary())
        for index in range(plan.QUERY_CACHE_SIZE + 20):
            plan.query_plan("//admin[name = u%d]" % index)
        assert plan.cached_queries() == plan.QUERY_CACHE_SIZE
        # Most-recent entries survive the LRU.
        last = "//admin[name = u%d]" % (plan.QUERY_CACHE_SIZE + 19)
        assert plan.query_plan(last) is plan.query_plan(last)

    def test_label_sets(self):
        plan = compile_policy(secretary())
        assert frozenset(["admin"]) in plan.label_sets
        assert "ssn" in plan.required_labels()

    def test_query_plan_memoized(self):
        tree, _ = make_docs()
        plan = compile_policy(secretary())
        first = plan.query_plan("//admin[name]")
        again = plan.query_plan("//admin[name]")
        assert first is again
        assert isinstance(first, QueryPlan)
        assert plan.cached_queries() == 1
        view = StreamingEvaluator(plan, query="//admin[name]").run_events(
            list(tree.iter_events()), with_index=True
        )
        reference = reference_authorized_view(
            tree, secretary(), query="//admin[name]"
        )
        assert view == reference

    def test_compile_query_binds_user(self):
        query = compile_query("//act[doctor = USER]", subject="ann")
        assert "ann" in str(query.path)


# ----------------------------------------------------------------------
# Pipeline
# ----------------------------------------------------------------------
class TestPipelineFunctions:
    def test_end_to_end_matches_reference(self):
        plan = compile_policy(secretary())
        result = evaluate_document(prepare_document(DOC), plan)
        reference = reference_authorized_view(parse_document(DOC), secretary())
        assert result.events == reference
        assert serialize_events(result.events).startswith("<folder>")

    def test_publisher_then_consumer_reusable(self):
        plan = compile_policy(secretary())
        prepared = prepare_document(DOC)
        first = evaluate_document(prepared, plan)
        second = evaluate_document(prepared, plan)
        assert first.events == second.events
        assert first.meter is not second.meter  # fresh meter per run
        assert first.meter.as_dict() == second.meter.as_dict()

    def test_breakdown_and_meter_populated(self):
        plan = compile_policy(secretary())
        result = evaluate_document(prepare_document(DOC), plan)
        assert result.breakdown.total > 0
        assert result.meter.bytes_transferred > 0
        assert result.meter.bytes_delivered > 0

    def test_integrity_audit_ok(self):
        report = audit_integrity(prepare_document(DOC, scheme="ECB-MHT"))
        assert report["ok"] is True
        assert report["verifies"] is True
        assert report["bytes_checked"] > 0

    def test_integrity_audit_detects_tampering(self):
        prepared = prepare_document(DOC, scheme="ECB-MHT")
        stored = bytearray(prepared.secure.stored)
        stored[len(stored) // 2] ^= 0xFF
        prepared.secure.stored = bytes(stored)
        assert audit_integrity(prepared)["ok"] is False


# ----------------------------------------------------------------------
# SecureStation
# ----------------------------------------------------------------------
class TestSecureStation:
    def subjects(self):
        return {
            "sec": secretary(),
            "ann": Policy(
                [AccessRule("+", "//act[doctor = USER]")], subject="ann"
            ),
            "aud": Policy(
                [AccessRule("+", "//acts"), AccessRule("-", "//result")],
                subject="aud",
            ),
        }

    def build_station(self, **kwargs):
        station = SecureStation(**kwargs)
        station.publish("folder", DOC)
        for subject, policy in self.subjects().items():
            station.grant("folder", policy, subject=subject)
        return station

    def test_evaluate_matches_reference(self):
        station = self.build_station()
        tree = parse_document(DOC)
        for subject, policy in self.subjects().items():
            result = station.evaluate("folder", subject)
            assert result.events == reference_authorized_view(tree, policy), subject
            assert result.seconds > 0

    def test_plan_cache_hits(self):
        station = self.build_station()
        station.evaluate("folder", "sec")
        compiles = nfa.compile_calls()
        station.evaluate("folder", "sec")
        station.evaluate("folder", "sec")
        assert nfa.compile_calls() == compiles
        assert station.stats.plan_hits >= 2
        assert station.stats.plan_misses >= 1

    def test_plan_cache_lru_eviction(self):
        station = self.build_station()
        station.plan_cache_size = 2
        station.evaluate("folder", "sec")
        station.evaluate("folder", "ann")
        station.evaluate("folder", "aud")  # evicts sec
        assert station.cached_plans() == 2
        assert station.stats.plan_evictions == 1

    def test_sessions_and_sealed_views(self):
        station = self.build_station()
        session = station.connect("sec")
        other = station.connect("sec")
        assert session.session_key != other.session_key
        blobs = list(session.stream_view("folder", seal=True).chunks())
        payload = b"".join(open_sealed(session.session_key, blob) for blob in blobs)
        assert payload.decode("utf-8").startswith("<folder>")
        with pytest.raises(ValueError):
            open_sealed(other.session_key, blobs[0])  # wrong session key

    def test_unknown_document_and_grant(self):
        station = self.build_station()
        with pytest.raises(StationError):
            station.evaluate("nope", "sec")
        with pytest.raises(StationError):
            station.evaluate("folder", "stranger")
        station.revoke("folder", "sec")
        with pytest.raises(StationError):
            station.evaluate("folder", "sec")

    def test_queries_through_station(self):
        station = self.build_station()
        tree = parse_document(DOC)
        result = station.evaluate("folder", "aud", query="//act[doctor]")
        reference = reference_authorized_view(
            tree, self.subjects()["aud"], query="//act[doctor]"
        )
        assert result.events == reference

    def test_view_roundtrips_to_tree(self):
        station = self.build_station()
        result = station.evaluate("folder", "sec")
        tree = events_to_tree(result.events)
        assert tree.tag == "folder"

"""Tests for XPath containment and the static policy optimizer."""

import random

import pytest

from repro import AccessRule, Policy, reference_authorized_view
from repro.accesscontrol.evaluator import StreamingEvaluator
from repro.accesscontrol.optimizer import deduplicate, optimize_policy
from repro.xpath.containment import covers
from repro.xpath.parser import parse_xpath


def c(general: str, specific: str) -> bool:
    return covers(parse_xpath(general), parse_xpath(specific))


class TestCovers:
    @pytest.mark.parametrize(
        "general, specific",
        [
            ("//a", "/a"),
            ("//a", "/b/a"),
            ("//a", "//b/a"),
            ("//a", "//a[b]"),
            ("/a/b", "/a/b"),
            ("//*", "/a"),
            ("//*", "//b"),
            ("/a//c", "/a/b/c"),
            ("//a//b", "//a/x/b"),
            ("//a[b]", "//a[b][c]"),
            ("//a[b]", "//a[b = 3]"),
            ("//a[b > 10]", "//a[b > 20]"),
            ("//a[b < 10]", "//a[b < 5]"),
            ("//a[b > 10]", "//a[b = 20]"),
            ("/a/*/c", "/a/b/c"),
            ("//c", "/a/b/c[d]"),
        ],
    )
    def test_positive_cases(self, general, specific):
        assert c(general, specific)

    @pytest.mark.parametrize(
        "general, specific",
        [
            ("/a", "//a"),
            ("/a/b", "/a/c"),
            ("/a/b", "/a//b"),
            ("//a[b]", "//a"),
            ("//a[b = 3]", "//a[b]"),
            ("//a[b > 20]", "//a[b > 10]"),
            ("//a[b]", "//a[c]"),
            ("/a/b/c", "/a//c"),
            ("//a/b", "//b"),
            ("//a", "//b"),
            ("/a", "/a/b"),  # different output nodes
        ],
    )
    def test_negative_cases(self, general, specific):
        assert not c(general, specific)

    def test_soundness_on_random_documents(self):
        """Whenever covers() says yes, the match sets must nest."""
        from repro.accesscontrol.reference import match_path
        from test_differential import random_path, random_tree

        rng = random.Random(7)
        checked = 0
        for _ in range(300):
            tree = random_tree(rng)
            p = parse_xpath(random_path(rng))
            q = parse_xpath(random_path(rng))
            if covers(p, q):
                p_nodes = match_path(tree, p)
                q_nodes = match_path(tree, q)
                assert q_nodes <= p_nodes, (p, q)
                checked += 1
        assert checked > 10  # the test must actually exercise positives


class TestOptimizer:
    def test_deduplicate(self):
        rules = [
            AccessRule("+", "//a"),
            AccessRule("+", "//a"),
            AccessRule("-", "//a"),
        ]
        assert len(deduplicate(rules)) == 2

    def test_single_sign_elimination(self):
        policy = Policy(
            [
                AccessRule("+", "//a"),
                AccessRule("+", "/x/a"),
                AccessRule("+", "//b"),
            ]
        )
        optimized = optimize_policy(policy)
        assert len(optimized) == 2

    def test_mixed_sign_not_touched_by_default(self):
        policy = Policy(
            [
                AccessRule("+", "//a"),
                AccessRule("+", "//b//a"),
                AccessRule("-", "//b"),
            ]
        )
        optimized = optimize_policy(policy)
        # //b//a is contained in //a but the negative //b sits between:
        # removing it would change the view. Safe mode keeps everything.
        assert len(optimized) == 3

    def test_safe_optimization_preserves_views(self):
        from test_differential import random_tree

        rng = random.Random(21)
        for seed in range(30):
            local = random.Random(seed)
            sign = "+" if local.random() < 0.5 else "-"
            rules = [
                AccessRule(sign, "//a"),
                AccessRule(sign, "/a/b"),
                AccessRule(sign, "//a//b"),
                AccessRule(sign, "//c[d]"),
                AccessRule(sign, "//c[d = 1]"),
            ]
            policy = Policy(rules)
            optimized = optimize_policy(policy)
            assert len(optimized) <= len(policy)
            tree = random_tree(rng)
            original = reference_authorized_view(tree, policy)
            reduced = reference_authorized_view(tree, optimized)
            assert original == reduced

    def test_optimized_policy_runs_in_evaluator(self):
        policy = optimize_policy(
            Policy([AccessRule("+", "//a"), AccessRule("+", "//a/b")])
        )
        from repro.xmlkit import parse_document

        doc = parse_document("<r><a><b>x</b></a></r>")
        events = StreamingEvaluator(policy).run_events(
            list(doc.iter_events()), with_index=True
        )
        assert events == reference_authorized_view(doc, policy)

    def test_subject_and_dummy_preserved(self):
        policy = Policy(
            [AccessRule("+", "//a")], subject="bob", dummy_tag="_"
        )
        optimized = optimize_policy(policy)
        assert optimized.subject == "bob"
        assert optimized.dummy_tag == "_"

    def test_aggressive_mode_respects_sandwich(self):
        policy = Policy(
            [
                AccessRule("+", "//a"),
                AccessRule("+", "//b//a"),
                AccessRule("-", "//b"),
            ]
        )
        optimized = optimize_policy(policy, aggressive=True)
        # The negative //b is nested inside //a's scope: the sandwich
        # condition must preclude dropping //b//a.
        assert len(optimized) == 3


class TestScopeCovers:
    def test_scope_includes_descendants(self):
        from repro.xpath.containment import scope_covers

        def sc(general, specific):
            return scope_covers(parse_xpath(general), parse_xpath(specific))

        # Rule propagation: //a's scope covers everything below a's.
        assert sc("//a", "//a/b")
        assert sc("//a", "//a//b[c]")
        assert sc("//Admin", "//Admin/SSN")
        assert not sc("//a/b", "//a")
        assert not sc("//a", "//b")
        # Plain node-set containment still implies scope containment.
        assert sc("//a", "/x/a")

    def test_optimizer_uses_scope_containment(self):
        policy = Policy(
            [
                AccessRule("+", "//Admin"),
                AccessRule("+", "//Admin/SSN"),
                AccessRule("+", "//Admin//Age"),
            ]
        )
        optimized = optimize_policy(policy)
        assert len(optimized) == 1

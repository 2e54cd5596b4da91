"""Unit tests for the XPath fragment: parser, AST, NFA compilation."""

import pytest

from repro.xpath import (
    AXIS_CHILD,
    AXIS_DESCENDANT,
    Comparison,
    XPathSyntaxError,
    compile_path,
    parse_xpath,
)
from repro.xpath.ast import USER_VARIABLE


class TestParser:
    def test_simple_child_path(self):
        path = parse_xpath("/a/b/c")
        assert [s.test for s in path.steps] == ["a", "b", "c"]
        assert all(s.axis == AXIS_CHILD for s in path.steps)

    def test_descendant_axis(self):
        path = parse_xpath("//a//b")
        assert [s.axis for s in path.steps] == [AXIS_DESCENDANT, AXIS_DESCENDANT]

    def test_mixed_axes(self):
        path = parse_xpath("/a//b/c")
        assert [s.axis for s in path.steps] == [
            AXIS_CHILD,
            AXIS_DESCENDANT,
            AXIS_CHILD,
        ]

    def test_leading_slash_optional(self):
        assert parse_xpath("a/b") == parse_xpath("/a/b")

    def test_wildcard(self):
        path = parse_xpath("//*/b")
        assert path.steps[0].is_wildcard()

    def test_existence_predicate(self):
        path = parse_xpath("//a[b]")
        predicate = path.steps[0].predicates[0]
        assert predicate.comparison is None
        assert predicate.path.steps[0].test == "b"

    def test_comparison_predicate_number(self):
        path = parse_xpath("//a[b > 250]")
        cmp_ = path.steps[0].predicates[0].comparison
        assert cmp_.operator == ">"
        assert cmp_.literal == 250

    def test_comparison_predicate_string(self):
        path = parse_xpath('//a[b = "G3"]')
        assert path.steps[0].predicates[0].comparison.literal == "G3"

    def test_bareword_literal(self):
        path = parse_xpath("//a[b = G3]")
        assert path.steps[0].predicates[0].comparison.literal == "G3"

    def test_user_variable(self):
        path = parse_xpath("//MedActs[//RPhys = USER]")
        assert path.steps[0].predicates[0].comparison.literal == USER_VARIABLE

    def test_predicate_with_descendant_path(self):
        path = parse_xpath("//a[//b = 3]")
        predicate = path.steps[0].predicates[0]
        assert predicate.path.steps[0].axis == AXIS_DESCENDANT

    def test_predicate_nested_path(self):
        path = parse_xpath("//Folder[Protocol/Type = G3]")
        predicate = path.steps[0].predicates[0]
        assert [s.test for s in predicate.path.steps] == ["Protocol", "Type"]

    def test_multiple_predicates(self):
        path = parse_xpath("//a[b][c = 1]")
        assert len(path.steps[0].predicates) == 2

    def test_nested_predicates(self):
        path = parse_xpath("//a[b[c]/d]")
        outer = path.steps[0].predicates[0]
        inner = outer.path.steps[0].predicates[0]
        assert inner.path.steps[0].test == "c"

    def test_self_comparison_predicate(self):
        path = parse_xpath("//a[. = 5]")
        predicate = path.steps[0].predicates[0]
        assert predicate.path.steps[0].is_self()
        assert predicate.comparison.literal == 5

    def test_paper_rules_parse(self):
        for expression in [
            "//Folder/Admin",
            "//MedActs[//RPhys = USER]",
            "//Act[RPhys != USER]/Details",
            "//Folder[MedActs//RPhys = USER]/Analysis",
            "//Folder[Protocol]//Age",
            "//Folder[Protocol/Type=G3]//LabResults//G3",
            "//G3[Cholesterol > 250]",
            "//Admin",
            "//Folder[//Age>25]",
        ]:
            parse_xpath(expression)

    @pytest.mark.parametrize(
        "bad",
        ["", "/", "//", "a[", "a]", "a[]", "a[=3]", "a[b=]", "a/[b]", "a[b!]",
         "a['x]", "a[.]"],
    )
    def test_syntax_errors(self, bad):
        with pytest.raises(XPathSyntaxError):
            parse_xpath(bad)

    def test_round_trip_rendering(self):
        for expression in ["/a/b", "//a//b", "//a[b > 1]/c", "//x[y/z = 2]"]:
            path = parse_xpath(expression)
            assert parse_xpath(str(path)) == path


class TestComparison:
    def test_numeric_semantics(self):
        assert Comparison(">", 250).matches("300")
        assert not Comparison(">", 250).matches("200")
        assert Comparison("=", 5).matches(" 5 ")
        assert Comparison("!=", 5).matches("6")
        assert Comparison("<=", 5).matches("5")
        assert Comparison(">=", 5.5).matches("5.5")

    def test_non_numeric_text_vs_number(self):
        assert not Comparison("=", 5).matches("abc")
        assert Comparison("!=", 5).matches("abc")

    def test_string_semantics(self):
        assert Comparison("=", "G3").matches("G3")
        assert not Comparison("=", "G3").matches("G4")
        assert Comparison("<", "b").matches("a")

    def test_numeric_coercion_of_string_literal(self):
        # "250" vs 250.0 should compare numerically.
        assert Comparison("=", "250").matches("250.0")

    def test_user_binding(self):
        cmp_ = Comparison("=", USER_VARIABLE)
        bound = cmp_.bind_user("alice")
        assert bound.literal == "alice"
        with pytest.raises(ValueError):
            cmp_.matches("alice")

    def test_invalid_operator(self):
        with pytest.raises(ValueError):
            Comparison("~", 1)


class TestPathHelpers:
    def test_required_labels(self):
        path = parse_xpath("//a[b/c]/d/*")
        assert path.required_labels() == {"a", "b", "c", "d"}

    def test_has_predicates(self):
        assert parse_xpath("//a[b]").has_predicates()
        assert not parse_xpath("//a/b").has_predicates()
        assert parse_xpath("//a[b[c]]").has_predicates()

    def test_has_descendant_axis(self):
        assert parse_xpath("//a").has_descendant_axis()
        assert not parse_xpath("/a/b").has_descendant_axis()
        assert parse_xpath("/a[//b]").has_descendant_axis()

    def test_bind_user_deep(self):
        path = parse_xpath("//a[b = USER]")
        bound = path.bind_user("bob")
        assert bound.steps[0].predicates[0].comparison.literal == "bob"


class TestNfa:
    def test_child_chain(self):
        automaton = compile_path(parse_xpath("/a/b"))
        s0 = automaton.states[automaton.initial]
        assert not s0.self_loop
        (s1,) = s0.targets("a")
        assert automaton.states[s1].targets("b") == [automaton.nav_final]
        assert automaton.states[automaton.nav_final].is_final

    def test_descendant_self_loop(self):
        automaton = compile_path(parse_xpath("//a"))
        s0 = automaton.states[automaton.initial]
        assert s0.self_loop
        assert s0.targets("a") == [automaton.nav_final]
        assert s0.targets("zzz") == []

    def test_wildcard_matches_everything(self):
        automaton = compile_path(parse_xpath("/*"))
        s0 = automaton.states[automaton.initial]
        assert s0.targets("anything") == [automaton.nav_final]

    def test_predicate_chain_anchored(self):
        automaton = compile_path(parse_xpath("//b[c]/d"))
        (spec,) = automaton.predicate_specs
        # The anchor is the state reached on 'b'.
        s0 = automaton.states[automaton.initial]
        (b_state_id,) = s0.targets("b")
        b_state = automaton.states[b_state_id]
        assert b_state.anchors == [spec]
        assert automaton.states[spec.final].is_final
        assert automaton.states[spec.final].comparison is None

    def test_comparison_on_pred_final(self):
        automaton = compile_path(parse_xpath("//a[b = 3]"))
        (spec,) = automaton.predicate_specs
        assert spec.comparison is not None
        assert automaton.states[spec.final].comparison == spec.comparison

    def test_self_predicate_start_is_final(self):
        automaton = compile_path(parse_xpath("//a[. = 5]"))
        (spec,) = automaton.predicate_specs
        assert spec.start == spec.final

    def test_remaining_labels_nav(self):
        automaton = compile_path(parse_xpath("/a/b/c"))
        s0 = automaton.states[automaton.initial]
        assert s0.remaining_labels == {"a", "b", "c"}
        (s1,) = s0.targets("a")
        assert automaton.states[s1].remaining_labels == {"b", "c"}
        assert automaton.states[automaton.nav_final].remaining_labels == frozenset()

    def test_remaining_labels_include_future_predicates(self):
        automaton = compile_path(parse_xpath("/a/b[x]/c"))
        s0 = automaton.states[automaton.initial]
        assert s0.remaining_labels == {"a", "b", "c", "x"}
        (s1,) = s0.targets("a")
        # From 'a', the predicate on 'b' is still ahead.
        assert automaton.states[s1].remaining_labels == {"b", "c", "x"}

    def test_remaining_labels_ignore_wildcards(self):
        automaton = compile_path(parse_xpath("//*/b"))
        s0 = automaton.states[automaton.initial]
        assert s0.remaining_labels == {"b"}

    def test_describe_smoke(self):
        automaton = compile_path(parse_xpath("//a[b]/c"))
        text = automaton.describe()
        assert "FINAL" in text and "anchors" in text

    def test_nested_predicate_specs(self):
        automaton = compile_path(parse_xpath("//a[b[c]]"))
        assert len(automaton.predicate_specs) == 2

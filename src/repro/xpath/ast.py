"""Abstract syntax tree for the XPath fragment ``XP{[],*,//}``.

A :class:`Path` is a sequence of :class:`Step`.  Each step has an axis
(child or descendant), a node test (an element tag, the wildcard ``*``
or the self test ``.``) and an optional list of :class:`Predicate`.  A
predicate is a relative :class:`Path` optionally compared to a literal
with one of ``= != < <= > >=`` (a :class:`Comparison`).

The special literal ``USER`` refers to the subject evaluating the policy
(the paper's ``//MedActs[//RPhys = USER]``); it is substituted at policy
binding time (:meth:`Comparison.bind_user`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

AXIS_CHILD = "/"
AXIS_DESCENDANT = "//"

WILDCARD = "*"
SELF = "."

#: Marker object for the ``USER`` variable in comparisons.
USER_VARIABLE = "\x00USER\x00"

Literal = Union[str, float, int]


class Comparison:
    """A comparison ``op literal`` terminating a predicate path.

    ``operator`` is one of ``= != < <= > >=``; ``literal`` is a number,
    a string, or :data:`USER_VARIABLE`.
    """

    __slots__ = ("operator", "literal")

    _OPERATORS = ("=", "!=", "<", "<=", ">", ">=")

    def __init__(self, operator: str, literal: Literal):
        if operator not in self._OPERATORS:
            raise ValueError("unsupported comparison operator %r" % operator)
        self.operator = operator
        self.literal = literal

    def bind_user(self, user: str) -> "Comparison":
        """Return a copy with :data:`USER_VARIABLE` replaced by ``user``."""
        if self.literal == USER_VARIABLE:
            return Comparison(self.operator, user)
        return self

    def matches(self, text: str) -> bool:
        """Evaluate the comparison against element content ``text``.

        Numeric comparison is used when both sides parse as numbers
        (XPath-style coercion); otherwise a string comparison is used.
        """
        if self.literal == USER_VARIABLE:
            raise ValueError("comparison against unbound USER variable")
        literal = self.literal
        if isinstance(literal, (int, float)):
            try:
                value: Literal = float(text.strip())
            except ValueError:
                return self.operator == "!="
            other: Literal = float(literal)
        else:
            value = text.strip()
            other = literal
            try:
                value = float(value)
                other = float(str(literal).strip())
            except ValueError:
                value = text.strip()
                other = str(literal)
        if self.operator == "=":
            return value == other
        if self.operator == "!=":
            return value != other
        if self.operator == "<":
            return value < other
        if self.operator == "<=":
            return value <= other
        if self.operator == ">":
            return value > other
        return value >= other

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Comparison):
            return NotImplemented
        return self.operator == other.operator and self.literal == other.literal

    def __hash__(self) -> int:
        return hash((self.operator, self.literal))

    def __str__(self) -> str:
        if self.literal == USER_VARIABLE:
            rendered = "USER"
        elif isinstance(self.literal, str):
            rendered = '"%s"' % self.literal
        else:
            rendered = repr(self.literal)
        return "%s %s" % (self.operator, rendered)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Comparison(%r, %r)" % (self.operator, self.literal)


class Predicate:
    """A branch ``[path]`` or ``[path op literal]`` attached to a step."""

    __slots__ = ("path", "comparison")

    def __init__(self, path: "Path", comparison: Optional[Comparison] = None):
        self.path = path
        self.comparison = comparison

    def bind_user(self, user: str) -> "Predicate":
        comparison = self.comparison.bind_user(user) if self.comparison else None
        return Predicate(self.path.bind_user(user), comparison)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Predicate):
            return NotImplemented
        return self.path == other.path and self.comparison == other.comparison

    def __hash__(self) -> int:
        return hash((self.path, self.comparison))

    def __str__(self) -> str:
        body = self.path.to_string(relative=True)
        if self.comparison is not None:
            body = "%s %s" % (body, self.comparison)
        return "[%s]" % body

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Predicate(%s)" % self


class Step:
    """One location step: axis + node test + predicates."""

    __slots__ = ("axis", "test", "predicates")

    def __init__(
        self,
        axis: str,
        test: str,
        predicates: Optional[Sequence[Predicate]] = None,
    ):
        if axis not in (AXIS_CHILD, AXIS_DESCENDANT):
            raise ValueError("unsupported axis %r" % axis)
        self.axis = axis
        self.test = test
        self.predicates: Tuple[Predicate, ...] = tuple(predicates or ())

    def bind_user(self, user: str) -> "Step":
        return Step(self.axis, self.test, [p.bind_user(user) for p in self.predicates])

    def is_wildcard(self) -> bool:
        return self.test == WILDCARD

    def is_self(self) -> bool:
        return self.test == SELF

    def matches_tag(self, tag: str) -> bool:
        """True if the node test accepts ``tag``."""
        return self.test == WILDCARD or self.test == tag

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Step):
            return NotImplemented
        return (
            self.axis == other.axis
            and self.test == other.test
            and self.predicates == other.predicates
        )

    def __hash__(self) -> int:
        return hash((self.axis, self.test, self.predicates))

    def __str__(self) -> str:
        return "%s%s%s" % (self.axis, self.test, "".join(str(p) for p in self.predicates))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Step(%r)" % str(self)


class Path:
    """A sequence of steps, absolute (rules, queries) or relative
    (predicate bodies)."""

    __slots__ = ("steps", "absolute")

    def __init__(self, steps: Sequence[Step], absolute: bool = True):
        self.steps: Tuple[Step, ...] = tuple(steps)
        self.absolute = absolute

    def bind_user(self, user: str) -> "Path":
        return Path([s.bind_user(user) for s in self.steps], self.absolute)

    def has_predicates(self) -> bool:
        """True if any step (recursively) carries a predicate."""
        for step in self.steps:
            if step.predicates:
                return True
        return False

    def has_descendant_axis(self) -> bool:
        for step in self.steps:
            if step.axis == AXIS_DESCENDANT:
                return True
            for predicate in step.predicates:
                if predicate.path.has_descendant_axis():
                    return True
        return False

    def required_labels(self) -> frozenset:
        """Set of element tags that *must* occur for the path to match.

        Wildcards and self steps contribute nothing.  Predicate labels
        are included: a rule cannot become *active* in a subtree missing
        any of them.  This feeds the Skip-index token filtering
        (``RemainingLabels``, Section 4.2).
        """
        labels = set()
        for step in self.steps:
            if step.test not in (WILDCARD, SELF):
                labels.add(step.test)
            for predicate in step.predicates:
                labels |= predicate.path.required_labels()
        return frozenset(labels)

    def to_string(self, relative: bool = False) -> str:
        parts: List[str] = []
        for index, step in enumerate(self.steps):
            rendered = str(step)
            if index == 0 and (relative or not self.absolute):
                if step.axis == AXIS_CHILD:
                    rendered = rendered[1:]  # drop leading '/'
            parts.append(rendered)
        return "".join(parts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Path):
            return NotImplemented
        return self.steps == other.steps and self.absolute == other.absolute

    def __hash__(self) -> int:
        return hash((self.steps, self.absolute))

    def __len__(self) -> int:
        return len(self.steps)

    def __str__(self) -> str:
        return self.to_string(relative=not self.absolute)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Path(%r)" % str(self)

"""Access-control model: rules, policies and decisions (Section 2).

An access rule is a 3-uple ``<sign, subject, object>`` where the object
is an ``XP{[],*,//}`` expression.  Rules propagate to all descendants of
their objects; conflicts are resolved by *Denial-Takes-Precedence* and
*Most-Specific-Object-Takes-Precedence*; the default policy is closed
(no access).  The *Structural* rule keeps ancestor paths of granted
nodes in the view.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple, Union

from repro.xpath.ast import Path
from repro.xpath.parser import parse_xpath

#: Three-valued delivery decisions.  ``PENDING`` means the outcome
#: depends on predicates not yet resolved (Section 5).
PERMIT = 1
DENY = 0
PENDING = 2

DECISION_NAMES = {PERMIT: "permit", DENY: "deny", PENDING: "pending"}

SIGN_POSITIVE = "+"
SIGN_NEGATIVE = "-"


class AccessRule:
    """One access rule ``<sign, subject, object>``.

    ``object`` may be given as an XPath string or a pre-parsed
    :class:`~repro.xpath.ast.Path`.  ``subject`` is free-form (a user or
    role name); it is only used to bind the ``USER`` variable inside
    comparison predicates when the rule is attached to a policy.
    """

    __slots__ = ("sign", "object", "name")

    def __init__(
        self,
        sign: str,
        obj: Union[str, Path],
        name: Optional[str] = None,
    ):
        if sign not in (SIGN_POSITIVE, SIGN_NEGATIVE):
            raise ValueError("sign must be '+' or '-', got %r" % sign)
        self.sign = sign
        self.object = parse_xpath(obj) if isinstance(obj, str) else obj
        self.name = name or ""

    @property
    def is_positive(self) -> bool:
        return self.sign == SIGN_POSITIVE

    @property
    def is_negative(self) -> bool:
        return self.sign == SIGN_NEGATIVE

    def bind_user(self, user: str) -> "AccessRule":
        """Substitute the ``USER`` variable inside predicates."""
        return AccessRule(self.sign, self.object.bind_user(user), self.name)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AccessRule):
            return NotImplemented
        return self.sign == other.sign and self.object == other.object

    def __hash__(self) -> int:
        return hash((self.sign, self.object))

    def __repr__(self) -> str:
        label = "%s: " % self.name if self.name else ""
        return "<%s%s, %s>" % (label, self.sign, self.object)


def positive(obj: Union[str, Path], name: Optional[str] = None) -> AccessRule:
    """Shorthand for a permission rule."""
    return AccessRule(SIGN_POSITIVE, obj, name)


def negative(obj: Union[str, Path], name: Optional[str] = None) -> AccessRule:
    """Shorthand for a prohibition rule."""
    return AccessRule(SIGN_NEGATIVE, obj, name)


class Policy:
    """The set of rules attached to one subject on one document.

    The policy is *closed*: anything not explicitly granted is denied.
    ``dummy_tag`` controls the Structural rule's rendering of denied
    ancestors of granted nodes: ``None`` keeps the original tag names,
    a string replaces them ("names of denied elements in this path can
    be replaced by a dummy value", Section 2).
    """

    def __init__(
        self,
        rules: Sequence[AccessRule],
        subject: str = "",
        dummy_tag: Optional[str] = None,
    ):
        self.subject = subject
        self.dummy_tag = dummy_tag
        self.rules: Tuple[AccessRule, ...] = tuple(
            rule.bind_user(subject) for rule in rules
        )

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)

    def required_labels(self) -> frozenset:
        """Union of labels any rule needs — useful for quick dataset
        relevance checks."""
        labels = set()
        for rule in self.rules:
            labels |= rule.object.required_labels()
        return frozenset(labels)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Policy(%s, %d rules)" % (self.subject or "<anonymous>", len(self.rules))


def make_policy(
    rule_specs: Iterable[Tuple[str, str]],
    subject: str = "",
    dummy_tag: Optional[str] = None,
) -> Policy:
    """Build a policy from ``(sign, xpath)`` pairs.

    >>> policy = make_policy([("+", "//Admin"), ("-", "//Admin/SSN")])
    >>> len(policy)
    2
    """
    rules = [AccessRule(sign, obj) for sign, obj in rule_specs]
    return Policy(rules, subject=subject, dummy_tag=dummy_tag)

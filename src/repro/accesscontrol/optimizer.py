"""Static policy minimization via containment (Section 3.3).

The paper sketches how query-containment can shrink a system of rules
before evaluation, notes that the problem is coNP-complete for
``XP{[],*,//}`` and leaves the general case open.  We implement the
*provably safe* fragment of that idea:

1. **Duplicate elimination** — identical ``(sign, object)`` pairs are
   redundant regardless of anything else;
2. **Same-sign containment** — a rule ``S`` with ``scope(S) ⊆
   scope(R)`` and ``sign(S) = sign(R)`` is redundant *provided no
   opposite-sign rule exists in the policy*: with only one sign in
   play, conflict resolution degenerates to set union of scopes.

When opposite signs are present, the paper's own elimination condition
(the ``{T} ⊆ {S} ⊆ {R}`` sandwich) is *sufficient but not necessary*
only under assumptions about stack nesting that the homomorphism test
cannot certify; :func:`optimize_policy` therefore keeps those rules
unless ``aggressive=True`` is passed (useful for experiments; the
differential tests exercise it to characterize when it is safe).

Containment uses :func:`repro.xpath.containment.covers` — sound and
incomplete — so the optimizer can only miss eliminations, never break
the policy semantics (in the safe modes).
"""

from __future__ import annotations

from typing import List

from repro.accesscontrol.model import AccessRule, Policy
from repro.xpath.containment import scope_covers


def deduplicate(rules: List[AccessRule]) -> List[AccessRule]:
    """Drop rules with identical sign and object (keep first)."""
    seen = set()
    kept: List[AccessRule] = []
    for rule in rules:
        key = (rule.sign, rule.object)
        if key not in seen:
            seen.add(key)
            kept.append(rule)
    return kept


def optimize_policy(policy: Policy, aggressive: bool = False) -> Policy:
    """Return an equivalent policy with redundant rules removed.

    Safe by construction unless ``aggressive`` is set (which applies
    the paper's sandwich condition even across signs).
    """
    rules = deduplicate(list(policy.rules))
    single_signed = (
        all(rule.is_positive for rule in rules)
        or all(rule.is_negative for rule in rules)
    )
    if single_signed or aggressive:
        rules = _eliminate_contained(rules, aggressive=aggressive)
    return Policy(rules, subject=policy.subject, dummy_tag=policy.dummy_tag)


def _eliminate_contained(
    rules: List[AccessRule], aggressive: bool
) -> List[AccessRule]:
    removed = set()
    for i, general in enumerate(rules):
        if i in removed:
            continue
        for j, specific in enumerate(rules):
            if j == i or j in removed or general.sign != specific.sign:
                continue
            if not scope_covers(general.object, specific.object):
                continue
            if aggressive and not _sandwich_safe(rules, i, j, removed):
                continue
            removed.add(j)
    return [rule for index, rule in enumerate(rules) if index not in removed]


def _sandwich_safe(
    rules: List[AccessRule], general: int, specific: int, removed: set
) -> bool:
    """The paper's condition: eliminating S (specific, contained in R)
    is precluded when an opposite-sign rule T is contained in R and
    contains S — T could re-flip the sign between R and S."""
    r = rules[general]
    s = rules[specific]
    del s
    for index, t in enumerate(rules):
        if index in removed or t.sign == r.sign:
            continue
        # Elimination is only attempted when every opposite-sign rule
        # provably contains R (it can then never be *more* specific
        # than R or S inside their scopes without also covering them).
        # Anything weaker — including mere potential overlap, which the
        # homomorphism test cannot rule out — precludes elimination.
        if not scope_covers(t.object, r.object):
            return False
    return True

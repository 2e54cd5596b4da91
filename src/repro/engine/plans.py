"""Compiled evaluation plans (the provisioning-time half of the SOE).

The paper's target device compiles each subject's access rules into
Access Rule Automata *once*, when the policy is provisioned over the
secure channel (Section 2); the per-document streaming work then only
walks precompiled NFA states.  The seed code re-parsed and re-compiled
every rule on every :class:`~repro.accesscontrol.evaluator.
StreamingEvaluator` construction, paying the XPath parser on the hot
path.  This module restores the paper's cost split:

* :func:`compile_policy` produces a frozen :class:`PolicyPlan` — parsed
  rules, compiled automata and the token-filter label sets — reusable
  across any number of documents and requests;
* :class:`QueryPlan` is the same for one ad-hoc query (bound to the
  plan's subject), memoized per plan so a hot query string compiles
  once.

Plans are immutable by convention: evaluators only ever *read* the
automata (all mutable evaluation state lives in tokens/instances), so a
single plan can safely back many concurrent sessions.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Iterable, Optional, Sequence, Tuple, Union

from repro.accesscontrol.model import AccessRule, Policy
from repro.xpath.ast import SELF, WILDCARD, Path
from repro.xpath.nfa import Automaton, compile_path
from repro.xpath.parser import parse_xpath


def structural_steps(path: Path) -> Optional[Tuple[Tuple[str, str], ...]]:
    """``((axis, tag), ...)`` when every step names a concrete tag.

    This is the index-eligibility test of the structural accelerator: a
    path whose navigation has no wildcard ambiguity (``*``/``.``)
    resolves to pre/post range predicates over the publish-time index.
    Predicates are allowed — the index answers a *superset* and the
    evaluator still decides membership — so only the node tests gate
    eligibility.  Returns ``None`` for wildcard/self steps or relative
    paths (the evaluator anchors those differently).
    """
    if not path.absolute or not path.steps:
        return None
    steps = []
    for step in path.steps:
        if step.test in (WILDCARD, SELF):
            return None
        steps.append((step.axis, step.test))
    return tuple(steps)


def policy_digest(policy: Policy) -> str:
    """Stable content digest of a policy (cache key material).

    Covers the subject binding, the dummy-tag rendering choice and the
    exact rule list (sign + object expression + name), so two policies
    with the same digest compile to interchangeable plans.
    """
    hasher = hashlib.sha1()

    def feed(text: str) -> None:
        # Length-prefix every field so no crafted rule text can collide
        # with another policy's field boundaries.
        data = text.encode("utf-8")
        hasher.update(len(data).to_bytes(4, "big"))
        hasher.update(data)

    feed(policy.subject)
    feed(repr(policy.dummy_tag))
    for rule in policy.rules:
        feed(rule.sign)
        feed(str(rule.object))
        feed(rule.name)
    return hasher.hexdigest()


class QueryPlan:
    """One compiled ``XP{[],*,//}`` query, bound to a subject.

    The evaluator appends the query automaton after the rule automata;
    keeping it a separate object lets one :class:`PolicyPlan` serve
    many distinct queries without recompiling the policy.
    """

    __slots__ = ("path", "automaton", "subject", "structural")

    def __init__(self, path: Path, automaton: Automaton, subject: str = ""):
        self.path = path
        self.automaton = automaton
        self.subject = subject
        #: ``(axis, tag)`` pairs when the path is free of wildcard
        #: ambiguity — the structural index resolves such a plan to
        #: candidate chunk ranges before any decryption (None: the plan
        #: is not index-eligible and the station streams).
        self.structural = structural_steps(path)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "QueryPlan(%s)" % self.path


def compile_query(
    query: Union[str, Path], subject: str = ""
) -> QueryPlan:
    """Parse (if needed), bind ``USER`` and compile one query."""
    path = parse_xpath(query) if isinstance(query, str) else query
    path = path.bind_user(subject)
    return QueryPlan(path, compile_path(path), subject)


class PolicyPlan:
    """Frozen compilation of one subject's policy.

    Attributes
    ----------
    policy:
        The source :class:`~repro.accesscontrol.model.Policy` (``USER``
        already bound).
    rules / automata:
        Parallel tuples: rule *i* is evaluated by automaton *i*.
    label_sets:
        Per-rule token-filter label sets (the labels the rule needs to
        see below a node to ever match — Section 4.2's quick relevance
        check, precomputed here instead of per request).
    digest:
        :func:`policy_digest` of the policy; plan caches key on it.
    """

    __slots__ = (
        "policy",
        "rules",
        "automata",
        "label_sets",
        "digest",
        "_queries",
        "_queries_lock",
    )

    def __init__(
        self,
        policy: Policy,
        rules: Tuple[AccessRule, ...],
        automata: Tuple[Automaton, ...],
    ):
        self.policy = policy
        self.rules = rules
        self.automata = automata
        self.label_sets: Tuple[frozenset, ...] = tuple(
            rule.object.required_labels() for rule in rules
        )
        self.digest = policy_digest(policy)
        self._queries: "OrderedDict[str, QueryPlan]" = OrderedDict()
        # One plan backs many concurrent sessions (the station shares
        # plans across server executor threads); the memo is the only
        # mutable part, so it gets its own lock.
        self._queries_lock = threading.Lock()

    # ------------------------------------------------------------------
    @property
    def subject(self) -> str:
        return self.policy.subject

    def required_labels(self) -> frozenset:
        """Union of every rule's token-filter label set."""
        return self.policy.required_labels()

    #: Per-plan query memo bound: a long-lived plan serving ad-hoc
    #: client queries must not grow without limit.
    QUERY_CACHE_SIZE = 32

    def query_plan(
        self, query: Union[str, Path, QueryPlan, None]
    ) -> Optional[QueryPlan]:
        """Compiled form of ``query``, memoized per plan (small LRU).

        Accepts ``None`` (no query), an already-compiled
        :class:`QueryPlan` (returned as-is) or a string/:class:`Path`
        (compiled once per distinct text and cached on the plan).
        """
        if query is None:
            return None
        if isinstance(query, QueryPlan):
            return query
        key = query if isinstance(query, str) else str(query)
        with self._queries_lock:
            plan = self._queries.get(key)
            if plan is not None:
                self._queries.move_to_end(key)
                return plan
        # Compile outside the lock; concurrent compiles of the same
        # query are harmless (last insert wins).
        plan = compile_query(query, self.policy.subject)
        with self._queries_lock:
            self._queries[key] = plan
            while len(self._queries) > self.QUERY_CACHE_SIZE:
                self._queries.popitem(last=False)
        return plan

    def cached_queries(self) -> int:
        with self._queries_lock:
            return len(self._queries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "PolicyPlan(%s, %d rules, %s)" % (
            self.policy.subject or "<anonymous>",
            len(self.rules),
            self.digest[:10],
        )


def compile_policy(
    policy: Union[Policy, Sequence[AccessRule], Iterable[Tuple[str, str]]],
    subject: str = "",
    dummy_tag: Optional[str] = None,
) -> PolicyPlan:
    """Compile ``policy`` into a reusable :class:`PolicyPlan`.

    ``policy`` may be a :class:`~repro.accesscontrol.model.Policy`, a
    sequence of :class:`AccessRule`, or ``(sign, xpath)`` pairs (the
    :func:`~repro.accesscontrol.model.make_policy` shorthand); the last
    two are wrapped into a Policy with ``subject``/``dummy_tag``.

    >>> plan = compile_policy([("+", "//a")])
    >>> plan is compile_policy(plan)  # idempotent passthrough
    True
    """
    if isinstance(policy, PolicyPlan):
        return policy
    if not isinstance(policy, Policy):
        items = list(policy)
        if items and not isinstance(items[0], AccessRule):
            items = [AccessRule(sign, obj) for sign, obj in items]
        policy = Policy(items, subject=subject, dummy_tag=dummy_tag)
    rules = tuple(policy.rules)
    automata = tuple(compile_path(rule.object) for rule in rules)
    return PolicyPlan(policy, rules, automata)

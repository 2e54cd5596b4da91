"""The streaming access-control evaluator (Sections 3–5).

:class:`StreamingEvaluator` consumes open/value/close events from a
:class:`~repro.accesscontrol.navigation.Navigator` and produces the
authorized view of the document — optionally intersected with a query —
without ever materializing the document.

Per event it maintains:

* the **Token Stack** (:mod:`repro.accesscontrol.tokens`): the active
  navigational and predicate tokens of every Access Rule Automaton;
* the **Authorization Stack**
  (:mod:`repro.accesscontrol.authorization`): the rule instances whose
  scope covers the current node, feeding ``DecideNode``;
* the **predicate windows**: instances anchored at a depth expire when
  that depth closes (the paper's Predicate Set discipline);
* the **result builder** (:mod:`repro.accesscontrol.pending`): the
  condition-annotated output with pending parts and deferred subtrees.

When the navigator exposes Skip-index metadata, the evaluator applies
the three optimizations of Sections 3.3/4.2:

1. *token filtering* — tokens whose ``RemainingLabels`` are not all
   present in the subtree are discarded;
2. *subtree decisions* (``DecideSubtree``) — with an empty top frame the
   node's decision extends to its whole subtree;
3. *subtree skips* (``SkipSubtree``) — denied or irrelevant subtrees are
   skipped outright; pending ones are skipped and captured for read-back
   (Section 5); authorized ones can be bulk-copied without evaluation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.accesscontrol.authorization import AuthorizationStack
from repro.accesscontrol.conditions import (
    ALWAYS,
    FALSE,
    NEVER,
    TRUE,
    UNKNOWN,
    Condition,
    PredicateInstance,
    RuleInstance,
    and_condition,
    or_condition,
)
from repro.accesscontrol.model import AccessRule, Policy
from repro.accesscontrol.navigation import (
    EventListNavigator,
    Navigator,
    SimpleEventNavigator,
)
from repro.accesscontrol.pending import ResultBuilder
from repro.accesscontrol.tokens import (
    Frame,
    NavToken,
    PredToken,
    TextListener,
    TokenStack,
)
from repro.metrics import Meter
from repro.xmlkit.events import OPEN, TEXT, Event
from repro.xpath.ast import Path
from repro.xpath.nfa import Automaton


class _QueryStack:
    """Scope registry for query instances (coverage, not authorization).

    A node is *covered* by the query iff some query instance whose scope
    includes the node is (or becomes) active — an OR over instances, in
    contrast with the access stack's conflict resolution.
    """

    __slots__ = ("levels", "_version", "_cache")

    def __init__(self):
        self.levels: List[List[RuleInstance]] = [[]]
        self._version = 0
        self._cache: Optional[Tuple[int, Condition]] = None

    def open_level(self, depth: int) -> None:
        while len(self.levels) <= depth:
            self.levels.append([])

    def push(self, depth: int, instance: RuleInstance) -> None:
        self.open_level(depth)
        self.levels[depth].append(instance)
        self._version += 1

    def close_level(self, depth: int) -> None:
        if depth < len(self.levels):
            if any(self.levels[d] for d in range(depth, len(self.levels))):
                self._version += 1
            del self.levels[depth:]

    def coverage_condition(self) -> Condition:
        cache = self._cache
        if cache is not None and cache[0] == self._version:
            return cache[1]
        instances = [
            instance for level in self.levels[1:] for instance in level
        ]
        condition = or_condition(instances)
        self._cache = (self._version, condition)
        return condition


class StreamingEvaluator:
    """Evaluate an access-control policy (and optional query) on a
    streaming document.

    Parameters
    ----------
    policy:
        The subject's :class:`~repro.accesscontrol.model.Policy`, or a
        precompiled :class:`~repro.engine.plans.PolicyPlan` — the plan
        path skips all XPath parsing and automaton compilation, which
        is how the engine layer amortizes provisioning cost across
        documents and requests.
    query:
        Optional ``XP{[],*,//}`` expression (string, parsed
        :class:`~repro.xpath.ast.Path`, or precompiled
        :class:`~repro.engine.plans.QueryPlan`); the result is then the
        query evaluated over the authorized view.
    meter:
        Optional :class:`~repro.metrics.Meter` accumulating work counts.
    enable_skipping:
        Apply token filtering and subtree skips when the navigator
        supports them (the TCSBR setting).  Disabled, the evaluator
        processes every event (the Brute-Force setting).
    enable_subtree_copy:
        Also bulk-copy fully authorized subtrees without evaluating
        their events (an optimization the skip sizes make possible).
    """

    __slots__ = (
        "plan",
        "policy",
        "meter",
        "enable_skipping",
        "enable_subtree_copy",
        "automata",
        "rules",
        "query_index",
        "tokens",
        "auth",
        "qstack",
        "result",
        "windows",
        "depth",
        "_navigator",
        "_outstanding",
    )

    def __init__(
        self,
        policy: Union[Policy, "PolicyPlan"],
        query: Union[str, Path, "QueryPlan", None] = None,
        meter: Optional[Meter] = None,
        enable_skipping: bool = True,
        enable_subtree_copy: bool = True,
    ):
        # Imported lazily: the engine layer sits above this module.
        from repro.engine.plans import PolicyPlan, compile_policy

        plan = policy if isinstance(policy, PolicyPlan) else compile_policy(policy)
        self.plan = plan
        self.policy = policy = plan.policy
        self.meter = meter if meter is not None else Meter()
        self.enable_skipping = enable_skipping
        self.enable_subtree_copy = enable_subtree_copy
        self.automata: List[Automaton] = list(plan.automata)
        self.rules: List[AccessRule] = list(plan.rules)
        self.query_index: Optional[int] = None
        if query is not None:
            query_plan = plan.query_plan(query)
            self.query_index = len(self.automata)
            self.automata.append(query_plan.automaton)
            self.rules.append(AccessRule("+", query_plan.path, "QUERY"))
        # Run state (reset per run) ------------------------------------
        self.tokens = TokenStack()
        self.auth = AuthorizationStack()
        self.qstack = _QueryStack()
        self.result = ResultBuilder(dummy_tag=policy.dummy_tag)
        self.windows: Dict[int, List[PredicateInstance]] = {}
        self.depth = 0
        self._navigator: Optional[Navigator] = None
        self._outstanding: List[object] = []  # undecided deferred subtrees

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self, navigator: Navigator) -> List[Event]:
        """Process the whole document; return the authorized view."""
        self._reset(navigator)
        # Hot loop: bind the dispatch targets once — attribute lookups
        # per event are measurable on million-event documents.
        navigator_next = navigator.next
        on_open = self._on_open
        on_text = self._on_text
        on_close = self._on_close
        while True:
            item = navigator_next()
            if item is None:
                break
            kind, value, meta = item
            if kind == OPEN:
                on_open(value, meta)
            elif kind == TEXT:
                on_text(value)
            else:
                on_close()
        return self.result.finalize()

    def run_events(
        self, events: Sequence[Event], with_index: bool = False
    ) -> List[Event]:
        """Convenience wrapper: evaluate an in-memory event stream.

        ``with_index=True`` serves exact Skip-index metadata (and
        enables skipping); otherwise the evaluator sees a bare stream.
        """
        if with_index:
            navigator: Navigator = EventListNavigator(events, meter=self.meter)
        else:
            navigator = SimpleEventNavigator(events)
        return self.run(navigator)

    # ------------------------------------------------------------------
    def _reset(self, navigator: Navigator) -> None:
        self.tokens = TokenStack()
        self.auth = AuthorizationStack()
        self.qstack = _QueryStack()
        self.result = ResultBuilder(dummy_tag=self.policy.dummy_tag)
        self.windows = {}
        self.depth = 0
        self._navigator = navigator
        self._outstanding = []
        bottom = self.tokens.top
        for index, automaton in enumerate(self.automata):
            bottom.add_nav(NavToken(index, automaton.initial, ()))

    def _is_query(self, automaton_index: int) -> bool:
        return automaton_index == self.query_index

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _on_open(self, tag: str, meta) -> None:
        meter = self.meter
        meter.events += 1
        self.depth += 1
        depth = self.depth
        self.auth.open_level(depth)
        if self.query_index is not None:
            self.qstack.open_level(depth)
        top = self.tokens.top
        frame = Frame(tag)
        automata = self.automata
        witnesses: List[Tuple[PredicateInstance, tuple, bool]] = []
        for token in top.nav:
            automaton = automata[token.automaton_index]
            state = automaton.states[token.state_id]
            if state.self_loop:
                frame.add_nav(token)
            for target in state.targets(tag):
                self._enter_nav(token, automaton, target, depth, frame, witnesses)
        for token in top.pred:
            if token.instance.settled_true():
                continue  # predicate already true in this subtree: suspend
            automaton = automata[token.automaton_index]
            state = automaton.states[token.state_id]
            if state.self_loop:
                frame.add_pred(token)
            for target in state.targets(tag):
                self._enter_pred(token, automaton, target, depth, frame, witnesses)
        self.tokens.push(frame)

        access_condition = self._access_condition()
        frame.access_condition = access_condition
        if self.query_index is not None:
            node_condition = and_condition(
                [access_condition, self.qstack.coverage_condition()]
            )
        else:
            node_condition = access_condition
        for instance, preds, needs_access in witnesses:
            parts: List[Condition] = list(preds)
            if needs_access:
                parts.append(access_condition)
            instance.add_witness(and_condition(parts))

        navigator = self._navigator
        if self.enable_skipping and meta is not None and meta.desc_tags is not None:
            desc_tags = meta.desc_tags
            killed = frame.remove_tokens(
                lambda token: self._remaining_labels(token) <= desc_tags
            )
            meter.killed_tokens += killed

        state = node_condition.state()
        meter.decisions += 1
        if (
            self.enable_skipping
            and navigator is not None
            and navigator.supports_skip()
            and frame.is_empty()
        ):
            if state == FALSE:
                self.result.open(tag, NEVER)
                navigator.skip_subtree()
                meter.skipped_subtrees += 1
                return
            if state == UNKNOWN and navigator.supports_capture():
                fetch = navigator.skip_and_capture()
                deferred = self.result.add_deferred(node_condition, fetch)
                if deferred is not None:
                    self._outstanding.append(deferred)
                self.result.open(tag, NEVER)  # placeholder paired with the close
                meter.deferred_subtrees += 1
                return
            if (
                state == TRUE
                and self.enable_subtree_copy
                and navigator.supports_capture()
            ):
                # Authorized subtree: copy it without evaluation.  Fetch
                # eagerly — the enclosing chunk is still in the SOE
                # cache, so the bytes are transferred exactly once.
                events = list(navigator.skip_and_capture()())
                self.result.add_deferred(ALWAYS, lambda: events)
                self.result.open(tag, NEVER)
                return
        self.result.open(tag, node_condition)
        if state == UNKNOWN:
            meter.pending_nodes += 1

    def _on_text(self, value: str) -> None:
        self.meter.events += 1
        frame = self.tokens.top
        if frame.listeners:
            frame.text_parts.append(value)
        if value:
            self.result.text(value)

    def _on_close(self) -> None:
        meter = self.meter
        meter.events += 1
        depth = self.depth
        frame = self.tokens.top
        if frame.listeners:
            text = "".join(frame.text_parts)
            for listener in frame.listeners:
                if listener.instance.settled_true():
                    continue
                if listener.comparison.matches(text):
                    parts: List[Condition] = list(listener.preds)
                    if listener.needs_access:
                        parts.append(frame.access_condition)
                    listener.instance.add_witness(and_condition(parts))
        self.auth.close_level(depth)
        if self.query_index is not None:
            self.qstack.close_level(depth)
        for instance in self.windows.pop(depth, ()):
            instance.close_window()
        self.tokens.pop()
        self.result.close()
        self.depth -= 1
        if self._outstanding:
            self._resolve_outstanding()
        self._maybe_skip_rest()


    def _resolve_outstanding(self) -> None:
        """Externalize pending subtrees as soon as their delivery
        condition is decided (Section 5): fetching while the enclosing
        chunk is likely still in the SOE cache avoids re-paying chunk
        transfer and verification at reassembly time."""
        undecided = []
        for deferred in self._outstanding:
            state = deferred.condition.state()
            if state == UNKNOWN:
                undecided.append(deferred)
            elif state == TRUE:
                events = list(deferred.fetch())
                deferred.fetch = lambda events=events: events
            # FALSE: nothing to fetch; the renderer drops it.
        self._outstanding = undecided

    def _maybe_skip_rest(self) -> None:
        """Close-time skipping: after a child closed, the rest of the
        parent's content may have become skippable (the paper triggers
        the skipping decision on close events too)."""
        navigator = self._navigator
        if (
            not self.enable_skipping
            or navigator is None
            or not navigator.supports_skip()
            or self.depth < 1
        ):
            return
        frame = self.tokens.top
        if not frame.is_empty():
            return
        condition = self.result.current_condition()
        state = condition.state()
        if state == FALSE:
            if navigator.skip_rest():
                self.meter.skipped_subtrees += 1
        elif navigator.supports_capture():
            if state == UNKNOWN:
                fetch = navigator.skip_rest_and_capture()
                if fetch is not None:
                    deferred = self.result.add_deferred(condition, fetch)
                    if deferred is not None:
                        self._outstanding.append(deferred)
                    self.meter.deferred_subtrees += 1
            elif state == TRUE and self.enable_subtree_copy:
                fetch = navigator.skip_rest_and_capture()
                if fetch is not None:
                    events = list(fetch())  # eager: chunk still cached
                    self.result.add_deferred(ALWAYS, lambda: events)

    # ------------------------------------------------------------------
    # Token machinery
    # ------------------------------------------------------------------
    def _enter_nav(
        self,
        token: NavToken,
        automaton: Automaton,
        target_id: int,
        depth: int,
        frame: Frame,
        witnesses: List[tuple],
    ) -> None:
        self.meter.token_ops += 1
        target = automaton.states[target_id]
        preds = token.preds
        if target.anchors:
            extended = list(preds)
            for spec in target.anchors:
                instance = self._new_instance(token.automaton_index, spec, depth)
                self._spawn_pred(token.automaton_index, spec, instance, frame)
                extended.append(instance)
            preds = tuple(extended)
        if target_id == automaton.nav_final:
            rule = self.rules[token.automaton_index]
            instance = RuleInstance(rule, preds, depth)
            if self._is_query(token.automaton_index):
                self.qstack.push(depth, instance)
            else:
                self.auth.push(depth, instance)
                self.meter.auth_pushes += 1
        else:
            frame.add_nav(NavToken(token.automaton_index, target_id, preds))

    def _enter_pred(
        self,
        token: PredToken,
        automaton: Automaton,
        target_id: int,
        depth: int,
        frame: Frame,
        witnesses: List[tuple],
    ) -> None:
        self.meter.token_ops += 1
        target = automaton.states[target_id]
        preds = token.preds
        if target.anchors:
            extended = list(preds)
            for spec in target.anchors:
                instance = self._new_instance(token.automaton_index, spec, depth)
                self._spawn_pred(token.automaton_index, spec, instance, frame)
                extended.append(instance)
            preds = tuple(extended)
        if target_id == token.spec.final:
            needs_access = self._is_query(token.automaton_index)
            if token.spec.comparison is None:
                witnesses.append((token.instance, preds, needs_access))
            else:
                frame.listeners.append(
                    TextListener(
                        token.instance, token.spec.comparison, preds, needs_access
                    )
                )
        else:
            frame.add_pred(
                PredToken(
                    token.automaton_index, token.spec, target_id, token.instance, preds
                )
            )

    def _new_instance(
        self, automaton_index: int, spec, depth: int
    ) -> PredicateInstance:
        rule = self.rules[automaton_index]
        instance = PredicateInstance(
            rule.name or str(automaton_index), spec.spec_id, depth
        )
        self.windows.setdefault(depth, []).append(instance)
        return instance

    def _spawn_pred(
        self,
        automaton_index: int,
        spec,
        instance: PredicateInstance,
        frame: Frame,
    ) -> None:
        if spec.start == spec.final:
            # `[. op lit]`: the anchor element itself is the witness.
            if spec.comparison is None:
                instance.mark_satisfied()
            else:
                frame.listeners.append(
                    TextListener(
                        instance,
                        spec.comparison,
                        (),
                        self._is_query(automaton_index),
                    )
                )
        else:
            frame.add_pred(
                PredToken(automaton_index, spec, spec.start, instance, ())
            )

    def _remaining_labels(self, token) -> frozenset:
        automaton = self.automata[token.automaton_index]
        return automaton.states[token.state_id].remaining_labels

    # ------------------------------------------------------------------
    def _access_condition(self) -> Condition:
        decision = self.auth.current_decision()
        if decision == TRUE:
            return ALWAYS
        if decision == FALSE:
            return NEVER
        return self.auth.snapshot()


def evaluate_events(
    events: Sequence[Event],
    policy: Union[Policy, "PolicyPlan"],
    query: Union[str, Path, None] = None,
    with_index: bool = True,
    meter: Optional[Meter] = None,
) -> List[Event]:
    """One-shot helper: authorized view of an in-memory event stream.

    ``policy`` may be a :class:`~repro.engine.plans.PolicyPlan` to reuse
    a compilation across calls.

    >>> from repro.xmlkit import parse_document
    >>> from repro.accesscontrol.model import make_policy
    >>> doc = parse_document("<a><b>x</b><c>y</c></a>")
    >>> policy = make_policy([("+", "//b")])
    >>> view = evaluate_events(list(doc.iter_events()), policy)
    """
    evaluator = StreamingEvaluator(policy, query=query, meter=meter)
    return evaluator.run_events(events, with_index=with_index)

"""Compilation of ``XP{[],*,//}`` paths into Access Rule Automata (ARA).

Section 3.1 of the paper represents every access rule by a
non-deterministic finite automaton with one *navigational path* and
optionally several *predicate paths*.  Directed edges are triggered by
``open`` events matching the edge label (a tag or ``*``); the descendant
axis is modelled by a ``*`` self-transition on the source state.

Our construction mirrors this exactly:

* each :class:`Step` with the child axis adds one transition
  ``src --test--> dst``;
* each step with the descendant axis sets a ``*`` self-loop on ``src``
  and adds ``src --test--> dst``;
* each predicate ``[rel_path (op lit)?]`` on a step is compiled into its
  own linear chain of *predicate states* anchored at the step's
  destination state: when a navigational token enters the destination,
  a fresh *predicate token* is spawned at the chain's start (labelled
  with the current document depth — the *rule instance* discipline of
  Section 3.1);
* predicate chains may themselves carry nested predicates; the anchoring
  mechanism is uniform.

Every state precomputes ``remaining_labels``: the set of element tags
that must necessarily be encountered for the rule to become *active*
from this state (used by the Skip-index token filtering of Section 4.2).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.xpath.ast import (
    AXIS_DESCENDANT,
    WILDCARD,
    Comparison,
    Path,
    Predicate,
    Step,
)

KIND_NAV = "nav"
KIND_PRED = "pred"


class PredicateSpec:
    """Static description of one predicate chain within an automaton.

    ``start`` is the state a predicate token is spawned at; ``final`` is
    the chain's accepting state; ``comparison`` (if any) must hold on the
    text of the element whose open event reached ``final``.
    """

    __slots__ = ("spec_id", "start", "final", "comparison", "required_labels")

    def __init__(
        self,
        spec_id: int,
        start: int,
        final: int,
        comparison: Optional[Comparison],
        required_labels: frozenset,
    ):
        self.spec_id = spec_id
        self.start = start
        self.final = final
        self.comparison = comparison
        self.required_labels = required_labels

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "PredicateSpec(#%d, %d->%d)" % (self.spec_id, self.start, self.final)


class AutomatonState:
    """One NFA state.

    ``transitions`` maps an edge label (tag or ``*``) to target state
    ids.  ``self_loop`` encodes the paper's ``*`` self-transition for the
    descendant axis.  ``anchors`` lists the :class:`PredicateSpec` whose
    instances must be spawned when a token *enters* this state.
    """

    __slots__ = (
        "state_id",
        "kind",
        "transitions",
        "self_loop",
        "is_final",
        "comparison",
        "anchors",
        "remaining_labels",
    )

    def __init__(self, state_id: int, kind: str):
        self.state_id = state_id
        self.kind = kind
        self.transitions: Dict[str, List[int]] = {}
        self.self_loop = False
        self.is_final = False
        self.comparison: Optional[Comparison] = None
        self.anchors: List[PredicateSpec] = []
        self.remaining_labels: frozenset = frozenset()

    def add_transition(self, label: str, target: int) -> None:
        self.transitions.setdefault(label, []).append(target)

    def targets(self, tag: str) -> List[int]:
        """Target states for an open event with ``tag`` (self-loop excluded)."""
        result = self.transitions.get(tag, [])
        wildcard = self.transitions.get(WILDCARD)
        if wildcard:
            result = result + wildcard
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = []
        if self.self_loop:
            flags.append("loop")
        if self.is_final:
            flags.append("final")
        return "State(%d,%s%s)" % (
            self.state_id,
            self.kind,
            "," + ",".join(flags) if flags else "",
        )


class Automaton:
    """A compiled ARA: states, the initial state and the navigational
    final state, plus the list of all predicate specs (chains)."""

    def __init__(self, path: Path):
        self.path = path
        self.states: List[AutomatonState] = []
        self.initial = self._new_state(KIND_NAV)
        self.nav_final: int = -1
        self.predicate_specs: List[PredicateSpec] = []

    # ------------------------------------------------------------------
    def _new_state(self, kind: str) -> int:
        state = AutomatonState(len(self.states), kind)
        self.states.append(state)
        return state.state_id

    def state(self, state_id: int) -> AutomatonState:
        return self.states[state_id]

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Human-readable dump, for debugging and documentation."""
        lines = ["Automaton(%s)" % self.path]
        for state in self.states:
            parts = []
            if state.self_loop:
                parts.append("*->self")
            for label, targets in sorted(state.transitions.items()):
                for target in targets:
                    parts.append("%s->%d" % (label, target))
            suffix = " FINAL" if state.is_final else ""
            if state.comparison is not None:
                suffix += " cmp(%s)" % state.comparison
            if state.anchors:
                suffix += " anchors[%s]" % ",".join(
                    str(spec.spec_id) for spec in state.anchors
                )
            lines.append(
                "  s%d(%s): %s%s"
                % (state.state_id, state.kind, " ".join(parts), suffix)
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Automaton(%r, %d states)" % (str(self.path), len(self.states))


#: Process-wide count of :func:`compile_path` invocations.  The engine
#: layer's plan cache exists to keep this flat under load; the counter
#: lets tests and benchmarks assert that it actually does
#: (see ``benchmarks/test_engine_cache.py``).
_compile_calls = 0


def compile_calls() -> int:
    """Total number of automaton compilations so far in this process."""
    return _compile_calls


def compile_path(path: Path) -> Automaton:
    """Compile an absolute path into an :class:`Automaton`."""
    global _compile_calls
    _compile_calls += 1
    automaton = Automaton(path)
    final = _compile_chain(automaton, automaton.initial, path.steps, KIND_NAV)
    automaton.state(final).is_final = True
    automaton.nav_final = final
    _compute_remaining_labels(automaton)
    return automaton


def _compile_chain(
    automaton: Automaton,
    source: int,
    steps: Sequence[Step],
    kind: str,
) -> int:
    """Compile a linear chain of steps starting at ``source``.

    Returns the id of the chain's last state.  Predicates on each step
    are compiled into anchored predicate chains.
    """
    current = source
    for step in steps:
        if step.is_self():
            # `[. op lit]` — the anchor element itself is the witness.
            # No transition: the chain's start *is* its final state.
            continue
        if step.axis == AXIS_DESCENDANT:
            automaton.state(current).self_loop = True
        nxt = automaton._new_state(kind)
        automaton.state(current).add_transition(step.test, nxt)
        current = nxt
        for predicate in step.predicates:
            _compile_predicate(automaton, current, predicate)
    return current


def _compile_predicate(
    automaton: Automaton, anchor: int, predicate: Predicate
) -> PredicateSpec:
    start = automaton._new_state(KIND_PRED)
    final = _compile_chain(automaton, start, predicate.path.steps, KIND_PRED)
    state = automaton.state(final)
    state.is_final = True
    state.comparison = predicate.comparison
    spec = PredicateSpec(
        len(automaton.predicate_specs),
        start,
        final,
        predicate.comparison,
        predicate.path.required_labels(),
    )
    automaton.predicate_specs.append(spec)
    automaton.state(anchor).anchors.append(spec)
    return spec


def _compute_remaining_labels(automaton: Automaton) -> None:
    """Fill ``remaining_labels`` for every state.

    ``remaining_labels(s)`` is the set of concrete tags that must all
    appear strictly below the current element for a token at ``s`` to
    contribute to an *active* rule instance: the non-wildcard tests on
    the path from ``s`` to its chain's final state, plus the required
    labels of every predicate anchored on those future states.  A token
    whose remaining labels are not a subset of the current element's
    descendant-tag set can never fire and is discarded (Section 4.2).
    """
    # The automaton is a DAG of linear chains; propagate backwards.
    order = _reverse_topological(automaton)
    for state_id in order:
        state = automaton.state(state_id)
        labels = set()
        for label, targets in state.transitions.items():
            for target in targets:
                if target == state_id:
                    continue
                target_state = automaton.state(target)
                # Only follow edges within the same chain kind; predicate
                # chains have their own remaining-labels universe.
                if target_state.kind != state.kind:
                    continue
                if label != WILDCARD:
                    labels.add(label)
                labels |= target_state.remaining_labels
                for spec in target_state.anchors:
                    labels |= spec.required_labels
        state.remaining_labels = frozenset(labels)


def _reverse_topological(automaton: Automaton) -> List[int]:
    """States ordered so that every transition target precedes its source.

    Chains are linear and acyclic apart from self-loops, so a DFS
    post-order works.
    """
    visited = [False] * len(automaton.states)
    order: List[int] = []

    def visit(state_id: int) -> None:
        if visited[state_id]:
            return
        visited[state_id] = True
        state = automaton.states[state_id]
        for targets in state.transitions.values():
            for target in targets:
                if target != state_id:
                    visit(target)
        order.append(state_id)

    for state in automaton.states:
        visit(state.state_id)
    return order

"""The paper's primary contribution: streaming XML access control.

Modules:

* :mod:`repro.accesscontrol.model` — access rules ``<sign, subject,
  object>``, access-control policies, decisions (Section 2);
* :mod:`repro.accesscontrol.conditions` — three-valued conditions over
  *predicate instances*, the backbone of pending-predicate management;
* :mod:`repro.accesscontrol.tokens` — navigational/predicate tokens and
  the Token Stack (Section 3.1);
* :mod:`repro.accesscontrol.authorization` — the Authorization Stack and
  the ``DecideNode`` conflict-resolution algorithm (Section 3.2, Fig. 4);
* :mod:`repro.accesscontrol.evaluator` — the streaming evaluator with
  ``DecideSubtree``/``SkipSubtree`` optimizations (Sections 3.3, 4.2);
* :mod:`repro.accesscontrol.pending` — the pending-result builder and
  reassembly (Section 5);
* :mod:`repro.accesscontrol.reference` — a non-streaming DOM oracle used
  for differential testing (imported from the submodule, or as
  ``repro.reference_authorized_view``);
* :mod:`repro.accesscontrol.optimizer` — static policy minimization via
  containment (Section 3.3).
"""

from repro.accesscontrol.model import (
    DENY,
    PENDING,
    PERMIT,
    AccessRule,
    Policy,
    negative,
    positive,
)
from repro.accesscontrol.evaluator import StreamingEvaluator, evaluate_events

__all__ = [
    "PERMIT",
    "DENY",
    "PENDING",
    "AccessRule",
    "Policy",
    "positive",
    "negative",
    "StreamingEvaluator",
    "evaluate_events",
]

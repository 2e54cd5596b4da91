"""Secure Operating Environment simulator.

The paper's prototype is C code running on a *cycle-accurate simulator*
of a forthcoming Axalto smart card (32-bit CPU @ 40 MHz, 8 KB RAM, USB
at 1 MB/s).  Its performance is dominated by two linear costs —
communication into/out of the SOE and 3DES decryption inside it
(Table 1) — plus a small CPU component proportional to the automata
work ("the cost of access control is determined by the number of active
tokens", Section 7).

We reproduce that model exactly: the pipeline counts every primitive
quantity in a :class:`~repro.metrics.Meter`, and
:mod:`repro.soe.costmodel` converts counts into simulated seconds for a
chosen platform context (smart card / software+Internet / software+LAN,
the three rows of Table 1).

:mod:`repro.soe.session` holds the pipeline's result types
(:class:`~repro.soe.session.PreparedDocument`,
:class:`~repro.soe.session.SessionResult`); the pipeline itself —
encrypted Skip-indexed document at the terminal -> scheme reader
(decrypt + integrity) -> Skip-index decoder -> streaming evaluator ->
authorized view — is :func:`repro.engine.pipeline.evaluate_document`.
"""

from repro.soe.costmodel import (
    CONTEXTS,
    CostModel,
    PlatformContext,
    TimeBreakdown,
)
from repro.soe.session import SessionResult

__all__ = [
    "PlatformContext",
    "CONTEXTS",
    "CostModel",
    "TimeBreakdown",
    "SessionResult",
]

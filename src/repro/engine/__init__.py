"""Engine layer: compiled plans, the unified pipeline, the station.

This package is the reusable, cache-backed core the rest of the
codebase routes through (see ``DESIGN.md`` for the layer diagram):

* :mod:`repro.engine.plans` — :func:`compile_policy` /
  :class:`PolicyPlan` / :class:`QueryPlan`: provisioning-time XPath
  parsing and automaton compilation, done once and reused across
  documents and requests;
* :mod:`repro.engine.pipeline` — the Fig. 2 dataflow as plain
  functions: :func:`prepare_document` (parse -> encode -> encrypt),
  :func:`evaluate_document` (decrypt -> evaluate, metered),
  :func:`run_plan` (the one evaluation loop) and
  :func:`audit_integrity` (full-store verification sweep);
* :mod:`repro.engine.station` — :class:`SecureStation`: a multi-client
  SOE facade with an LRU plan cache, a version-keyed view cache and
  per-session key material.

Layering rule: engine modules may import every lower layer (xpath,
accesscontrol, skipindex, crypto, soe); lower layers import the engine
only lazily inside functions, so there are no import cycles.
"""

from repro.engine.pipeline import (
    audit_integrity,
    encode_source,
    evaluate_document,
    prepare_document,
    run_plan,
)
from repro.engine.plans import (
    PolicyPlan,
    QueryPlan,
    compile_policy,
    compile_query,
    policy_digest,
)
from repro.engine.station import (
    PublishOptions,
    SecureStation,
    StationConfig,
    StationError,
    StationSession,
    StationStats,
    UpdateResult,
    ViewStream,
    open_sealed,
    seal_payload,
)

__all__ = [
    # plans
    "PolicyPlan",
    "QueryPlan",
    "compile_policy",
    "compile_query",
    "policy_digest",
    # pipeline
    "encode_source",
    "prepare_document",
    "evaluate_document",
    "run_plan",
    "audit_integrity",
    # station
    "SecureStation",
    "StationConfig",
    "PublishOptions",
    "StationSession",
    "StationStats",
    "StationError",
    "UpdateResult",
    "ViewStream",
    "seal_payload",
    "open_sealed",
]

"""Engine layer: compiled plans, the unified pipeline, the station.

This package is the reusable, cache-backed core the rest of the
codebase routes through (see ``DESIGN.md`` for the layer diagram):

* :mod:`repro.engine.plans` — :func:`compile_policy` /
  :class:`PolicyPlan` / :class:`QueryPlan`: provisioning-time XPath
  parsing and automaton compilation, done once and reused across
  documents and requests;
* :mod:`repro.engine.pipeline` — :class:`DocumentPipeline`: the
  parse -> encode -> encrypt -> stream-decrypt -> evaluate ->
  integrity-check -> serialize dataflow as composable, metered stages;
* :mod:`repro.engine.station` — :class:`SecureStation`: a multi-client
  SOE facade with an LRU plan cache, per-session key material and
  batched :meth:`~SecureStation.evaluate_many`.

Layering rule: engine modules may import every lower layer (xpath,
accesscontrol, skipindex, crypto, soe); lower layers import the engine
only lazily inside functions, so there are no import cycles.
"""

from repro.engine.pipeline import (
    DecryptStreamStage,
    DocumentPipeline,
    EncodeStage,
    EncryptStage,
    EvaluateStage,
    IntegrityAuditStage,
    ParseStage,
    PipelineContext,
    PipelineError,
    SerializeStage,
    Stage,
)
from repro.engine.plans import (
    PolicyPlan,
    QueryPlan,
    compile_policy,
    compile_query,
    policy_digest,
)
from repro.engine.station import (
    BatchResult,
    PublishOptions,
    SecureStation,
    StationConfig,
    StationError,
    StationSession,
    StationStats,
    SubjectFailure,
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
    "DocumentPipeline",
    "PipelineContext",
    "PipelineError",
    "Stage",
    "ParseStage",
    "EncodeStage",
    "EncryptStage",
    "DecryptStreamStage",
    "EvaluateStage",
    "IntegrityAuditStage",
    "SerializeStage",
    # station
    "SecureStation",
    "StationConfig",
    "PublishOptions",
    "StationSession",
    "StationStats",
    "StationError",
    "BatchResult",
    "SubjectFailure",
    "UpdateResult",
    "ViewStream",
    "seal_payload",
    "open_sealed",
]

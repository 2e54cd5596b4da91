"""Composable document pipeline (the Fig. 2 dataflow as one object).

The seed code wired parse -> Skip-index encode -> encrypt ->
stream-decrypt -> evaluate -> serialize by hand in four different
places (``cli.py``, ``bench/experiments.py``, ``soe/session.py`` and
the examples), each with its own slightly different metering.  A
:class:`DocumentPipeline` is the single reusable form: an ordered list
of :class:`Stage` objects sharing one :class:`PipelineContext` (and one
:class:`~repro.metrics.Meter`), with per-stage wall-clock timings.

Ready-made compositions cover the two halves of the paper's
architecture:

* :meth:`DocumentPipeline.publisher` — the untrusted publisher's work:
  parse, encode, encrypt/digest (no secrets beyond the document key);
* :meth:`DocumentPipeline.consumer` — the SOE's work: stream-decrypt,
  evaluate under a compiled plan, optionally integrity-audit the whole
  store and serialize the view.

``publisher(...) + consumer(...)`` is a full end-to-end run.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.accesscontrol.evaluator import StreamingEvaluator
from repro.accesscontrol.model import Policy
from repro.crypto.chunks import ChunkLayout
from repro.crypto.integrity import IntegrityError, SecureBytes, make_scheme
from repro.engine.plans import PolicyPlan, QueryPlan, compile_policy
from repro.metrics import Meter
from repro.skipindex.decoder import SkipIndexNavigator
from repro.skipindex.encoder import encode_document
from repro.skipindex.structural import (
    IndexedNavigator,
    StructuralIndex,
    build_structural_index,
)
from repro.soe.costmodel import CONTEXTS, CostModel, PlatformContext
from repro.soe.session import PreparedDocument, delivered_bytes
from repro.xmlkit.dom import Node
from repro.xmlkit.events import Event
from repro.xmlkit.parser import parse_document
from repro.xmlkit.serializer import serialize_events


class PipelineError(RuntimeError):
    """A stage was run without its required input."""


class PipelineContext:
    """Mutable state threaded through the stages of one run."""

    def __init__(
        self,
        source: Optional[str] = None,
        tree: Optional[Node] = None,
        prepared: Optional[PreparedDocument] = None,
        meter: Optional[Meter] = None,
    ):
        self.source = source
        self.tree = tree
        self.encoded = prepared.encoded if prepared is not None else None
        self.prepared = prepared
        self.navigator = None
        self.view: Optional[List[Event]] = None
        self.serialized: Optional[str] = None
        self.meter = meter if meter is not None else Meter()
        self.breakdown = None
        self.integrity_report: Optional[Dict[str, object]] = None
        self.stage_seconds: Dict[str, float] = {}
        #: Per-stage ``(name, start, end)`` in ``perf_counter`` time —
        #: the raw material request tracing turns into pipeline spans
        #: (``repro.obs.trace``) without re-running any clock.
        self.stage_times: List[Tuple[str, float, float]] = []

    def require(self, attribute: str, stage: str):
        value = getattr(self, attribute)
        if value is None:
            raise PipelineError(
                "stage %r needs %r; add the producing stage first"
                % (stage, attribute)
            )
        return value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        done = [name for name in self.stage_seconds]
        return "PipelineContext(stages=%s)" % ",".join(done)


class Stage:
    """One named pipeline step: ``run(ctx)`` reads and writes context."""

    name = "stage"

    def run(self, ctx: PipelineContext) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<stage %s>" % self.name


class ParseStage(Stage):
    """XML text -> DOM tree (publisher side; no metering, untrusted)."""

    name = "parse"

    def run(self, ctx: PipelineContext) -> None:
        if ctx.tree is not None:
            return
        source = ctx.require("source", self.name)
        ctx.tree = parse_document(source)


class EncodeStage(Stage):
    """DOM tree -> Skip-index encoded bytes (TCSBR encoding)."""

    name = "encode"

    def run(self, ctx: PipelineContext) -> None:
        tree = ctx.require("tree", self.name)
        ctx.encoded = encode_document(tree)


class EncryptStage(Stage):
    """Encoded bytes -> encrypted/digested store for the terminal.

    ``version`` is the document update counter bound into every chunk's
    position/MAC derivation (see :mod:`repro.crypto.modes`); fresh
    publications start at 0 and :meth:`SecureStation.update` bumps it
    per re-encryption.

    With a ``store`` sink (any :class:`~repro.store.ChunkStore`) plus a
    ``document_id``, the stage publishes *into the store* instead of
    materializing the ciphertext: a disk store consumes the scheme's
    chunk-record generator with at most one log segment buffered, so a
    document larger than RAM flows straight to disk.  ``ctx.prepared``
    is then the store's served handle (its chunk records read back
    lazily through the store's page cache).
    """

    name = "encrypt"

    def __init__(
        self,
        scheme: str = "ECB-MHT",
        key: bytes = b"\x00" * 16,
        layout: Optional[ChunkLayout] = None,
        version: int = 0,
        backend=None,
        store=None,
        document_id: Optional[str] = None,
        index: bool = False,
    ):
        if store is not None and document_id is None:
            raise ValueError("EncryptStage with a store needs a document_id")
        self.scheme = scheme
        self.key = key
        self.layout = layout
        self.version = version
        self.backend = backend
        self.store = store
        self.document_id = document_id
        self.index = index

    def run(self, ctx: PipelineContext) -> None:
        encoded = ctx.require("encoded", self.name)
        scheme = make_scheme(
            self.scheme, key=self.key, layout=self.layout, backend=self.backend
        )
        # The structural index walks the *plaintext* encoding, so it is
        # built here — publish time, before the bytes are protected.
        index = build_structural_index(encoded) if self.index else None
        if self.store is not None:
            ctx.prepared = self.store.put_stream(
                self.document_id, encoded, scheme, self.key, self.version,
                index=index,
            )
            return
        secure = scheme.protect(encoded.data, version=self.version)
        ctx.prepared = PreparedDocument(encoded, scheme, secure, index=index)


class DecryptStreamStage(Stage):
    """Protected store -> decrypting, integrity-checking navigator.

    With a :class:`~repro.skipindex.structural.StructuralIndex` the
    navigator replays structure from the index and touches the
    ciphertext only for text payloads and captures — identical events,
    strictly fewer chunks decrypted."""

    name = "stream-decrypt"

    def __init__(
        self,
        use_skip_index: bool = True,
        index: Optional[StructuralIndex] = None,
    ):
        self.use_skip_index = use_skip_index
        self.index = index

    def run(self, ctx: PipelineContext) -> None:
        prepared = ctx.require("prepared", self.name)
        reader = prepared.scheme.reader(prepared.secure, ctx.meter)
        if self.index is not None:
            ctx.navigator = IndexedNavigator(
                SecureBytes(reader),
                self.index,
                prepared.encoded.dictionary,
                meter=ctx.meter,
                provide_meta=self.use_skip_index,
            )
            return
        ctx.navigator = SkipIndexNavigator(
            SecureBytes(reader),
            dictionary=prepared.encoded.dictionary,
            start_offset=prepared.encoded.root_offset,
            meter=ctx.meter,
            provide_meta=self.use_skip_index,
        )


class EvaluateStage(Stage):
    """Navigator -> authorized view under a compiled plan.

    ``prune`` turns on the evaluator's skip-pruned replay (the serving
    hot path); it stays off by default so the paper-figure benches keep
    their exact cold-path cost accounting.
    """

    name = "evaluate"

    def __init__(
        self,
        plan: Union[PolicyPlan, Policy],
        query: Union[str, QueryPlan, None] = None,
        use_skip_index: bool = True,
        prune: bool = False,
    ):
        self.plan = compile_policy(plan)
        self.query = query
        self.use_skip_index = use_skip_index
        self.prune = prune

    def run(self, ctx: PipelineContext) -> None:
        navigator = ctx.require("navigator", self.name)
        evaluator = StreamingEvaluator(
            self.plan,
            query=self.query,
            meter=ctx.meter,
            enable_skipping=self.use_skip_index,
            enable_pruning=self.prune,
        )
        ctx.view = evaluator.run(navigator)
        ctx.meter.bytes_delivered += delivered_bytes(ctx.view)


class IntegrityAuditStage(Stage):
    """Full-store verification sweep (every chunk decrypted + checked).

    The streaming run only verifies the chunks it touches; an audit
    reads the whole store through the scheme reader, so any tampered
    chunk — even one outside the authorized view — raises.  The report
    lands in ``ctx.integrity_report``.
    """

    name = "integrity-check"

    def run(self, ctx: PipelineContext) -> None:
        prepared = ctx.require("prepared", self.name)
        meter = Meter()  # audit cost is accounted separately
        reader = prepared.scheme.reader(prepared.secure, meter)
        size = prepared.secure.plaintext_size
        step = prepared.scheme.layout.chunk_size
        ok = True
        error = None
        try:
            for offset in range(0, size, step):
                reader.read(offset, min(step, size - offset))
        except IntegrityError as exc:
            ok = False
            error = str(exc)
        ctx.integrity_report = {
            "scheme": prepared.scheme.name,
            "verifies": prepared.scheme.has_digest,
            "ok": ok,
            "error": error,
            "bytes_checked": size,
            "chunks": meter.chunks_accessed,
        }


class SerializeStage(Stage):
    """Authorized view -> XML text."""

    name = "serialize"

    def run(self, ctx: PipelineContext) -> None:
        view = ctx.require("view", self.name)
        ctx.serialized = serialize_events(view)


class DocumentPipeline:
    """An ordered, reusable composition of :class:`Stage` objects.

    The pipeline itself is stateless across runs — every :meth:`run`
    gets a fresh :class:`PipelineContext` — so one pipeline (like one
    :class:`~repro.engine.plans.PolicyPlan`) can serve many documents.
    """

    def __init__(
        self,
        stages: Sequence[Stage],
        context: Union[str, PlatformContext] = "smartcard",
    ):
        self.stages: List[Stage] = list(stages)
        self.platform = CONTEXTS[context] if isinstance(context, str) else context

    # ------------------------------------------------------------------
    def __add__(self, other: "DocumentPipeline") -> "DocumentPipeline":
        return DocumentPipeline(self.stages + other.stages, self.platform)

    def run(
        self,
        source: Optional[str] = None,
        tree: Optional[Node] = None,
        prepared: Optional[PreparedDocument] = None,
        meter: Optional[Meter] = None,
    ) -> PipelineContext:
        """Execute every stage; returns the finished context.

        The entry point is whichever input the first stage needs: raw
        XML text (``source``), a DOM ``tree``, or an already-protected
        ``prepared`` document.
        """
        ctx = PipelineContext(
            source=source, tree=tree, prepared=prepared, meter=meter
        )
        for stage in self.stages:
            started = time.perf_counter()
            stage.run(ctx)
            ended = time.perf_counter()
            ctx.stage_seconds[stage.name] = (
                ctx.stage_seconds.get(stage.name, 0.0) + ended - started
            )
            ctx.stage_times.append((stage.name, started, ended))
        ctx.breakdown = CostModel(self.platform).breakdown(ctx.meter)
        return ctx

    # ------------------------------------------------------------------
    # Ready-made compositions
    # ------------------------------------------------------------------
    @classmethod
    def publisher(
        cls,
        scheme: str = "ECB-MHT",
        key: bytes = b"\x00" * 16,
        layout: Optional[ChunkLayout] = None,
        context: Union[str, PlatformContext] = "smartcard",
        version: int = 0,
        backend=None,
        store=None,
        document_id: Optional[str] = None,
        index: bool = False,
    ) -> "DocumentPipeline":
        """parse -> encode -> encrypt (the publisher of Fig. 2).

        ``store``/``document_id`` stream the protected output into a
        :class:`~repro.store.ChunkStore` instead of process memory;
        ``index=True`` builds the structural index over the encoding."""
        return cls(
            [
                ParseStage(),
                EncodeStage(),
                EncryptStage(
                    scheme,
                    key,
                    layout,
                    version,
                    backend=backend,
                    store=store,
                    document_id=document_id,
                    index=index,
                ),
            ],
            context=context,
        )

    @classmethod
    def consumer(
        cls,
        plan: Union[PolicyPlan, Policy],
        query: Union[str, QueryPlan, None] = None,
        use_skip_index: bool = True,
        integrity_audit: bool = False,
        serialize: bool = False,
        context: Union[str, PlatformContext] = "smartcard",
        prune: bool = False,
        index: Optional[StructuralIndex] = None,
    ) -> "DocumentPipeline":
        """stream-decrypt -> evaluate [-> integrity-check] [-> serialize]."""
        stages: List[Stage] = [
            DecryptStreamStage(use_skip_index, index=index),
            EvaluateStage(plan, query, use_skip_index, prune=prune),
        ]
        if integrity_audit:
            stages.append(IntegrityAuditStage())
        if serialize:
            stages.append(SerializeStage())
        return cls(stages, context=context)

    @classmethod
    def end_to_end(
        cls,
        plan: Union[PolicyPlan, Policy],
        query: Union[str, QueryPlan, None] = None,
        scheme: str = "ECB-MHT",
        key: bytes = b"\x00" * 16,
        use_skip_index: bool = True,
        serialize: bool = False,
        context: Union[str, PlatformContext] = "smartcard",
    ) -> "DocumentPipeline":
        """Publisher immediately followed by the SOE consumer."""
        return cls.publisher(scheme, key, context=context) + cls.consumer(
            plan,
            query,
            use_skip_index=use_skip_index,
            serialize=serialize,
            context=context,
        )

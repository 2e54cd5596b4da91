"""The Fig. 2 dataflow as plain functions.

The paper's architecture has two halves, and each is one call here:

* the untrusted publisher's work — :func:`prepare_document`: parse
  (:func:`encode_source`), Skip-index encode, optionally build the
  structural index, then encrypt/digest for the terminal;
* the SOE's work — :func:`evaluate_document`: open a decrypting,
  integrity-checking reader on the stored bytes, drive the Skip-index
  (or structural-index) navigator and the streaming evaluator over it,
  and convert the :class:`~repro.metrics.Meter` counts into simulated
  seconds with the :mod:`~repro.soe.costmodel`.

:func:`run_plan` is the one evaluation loop :func:`evaluate_document`
ends in.
:func:`audit_integrity` is the full-store verification sweep.

The tag dictionary and the document key are SOE-resident secrets
(Section 2: delivered over a secured channel), so reading them is not
charged to the terminal link.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.accesscontrol.evaluator import StreamingEvaluator
from repro.accesscontrol.model import Policy
from repro.crypto.chunks import ChunkLayout
from repro.crypto.integrity import IntegrityError, SecureBytes, make_scheme
from repro.engine.plans import PolicyPlan, QueryPlan
from repro.metrics import Meter
from repro.skipindex.decoder import SkipIndexNavigator
from repro.skipindex.encoder import EncodedDocument, encode_document
from repro.skipindex.structural import (
    IndexedNavigator,
    StructuralIndex,
    build_structural_index,
)
from repro.soe.costmodel import CONTEXTS, CostModel, PlatformContext
from repro.soe.session import PreparedDocument, SessionResult, delivered_bytes
from repro.xmlkit.dom import Node
from repro.xmlkit.events import Event
from repro.xmlkit.parser import parse_document


def encode_source(document: Union[str, Node]) -> EncodedDocument:
    """XML text (parsed here) or a DOM tree -> Skip-index encoding."""
    tree = document if isinstance(document, Node) else parse_document(document)
    return encode_document(tree)


def prepare_document(
    document: Union[str, Node],
    scheme: str = "ECB-MHT",
    key: bytes = b"\x00" * 16,
    layout: Optional[ChunkLayout] = None,
    version: int = 0,
    index: bool = False,
) -> PreparedDocument:
    """Publisher side: encode ``document`` and protect it for storage.

    ``version`` is the document update counter bound into every chunk's
    position/MAC derivation (see :mod:`repro.crypto.modes`); fresh
    publications start at 0 and :meth:`SecureStation.update` bumps it
    per re-encryption.  ``index=True`` additionally builds the
    structural pre/post index over the *plaintext* encoding (see
    :mod:`repro.skipindex.structural`) — publish time, before the bytes
    are protected.
    """
    encoded = encode_source(document)
    scheme_obj = make_scheme(scheme, key=key, layout=layout)
    structural = build_structural_index(encoded) if index else None
    secure = scheme_obj.protect(encoded.data, version=version)
    return PreparedDocument(encoded, scheme_obj, secure, index=structural)


def run_plan(
    navigator,
    plan: Union[PolicyPlan, Policy],
    query: Union[str, QueryPlan, None],
    meter: Meter,
    use_skip_index: bool = True,
) -> List[Event]:
    """Run the streaming evaluator over ``navigator``; the authorized
    view's delivery is charged to ``meter``.

    ``use_skip_index=False`` is the Brute-Force strategy (no subtree is
    ever skipped).
    """
    evaluator = StreamingEvaluator(
        plan,
        query=query,
        meter=meter,
        enable_skipping=use_skip_index,
    )
    view = evaluator.run(navigator)
    meter.bytes_delivered += delivered_bytes(view)
    return view


def evaluate_document(
    prepared: PreparedDocument,
    plan: Union[PolicyPlan, Policy],
    query: Union[str, QueryPlan, None] = None,
    context: Union[str, PlatformContext] = "smartcard",
    use_skip_index: bool = True,
    index: Optional[StructuralIndex] = None,
) -> SessionResult:
    """SOE side: one cold pass over the protected store.

    With a :class:`~repro.skipindex.structural.StructuralIndex` the
    navigator replays structure from the index and touches the
    ciphertext only for text payloads and captures — identical events,
    strictly fewer chunks decrypted.
    """
    platform = CONTEXTS[context] if isinstance(context, str) else context
    meter = Meter()
    data = SecureBytes(prepared.scheme.reader(prepared.secure, meter))
    if index is not None:
        navigator = IndexedNavigator(
            data,
            index,
            prepared.encoded.dictionary,
            meter=meter,
            provide_meta=use_skip_index,
        )
    else:
        navigator = SkipIndexNavigator(
            data,
            dictionary=prepared.encoded.dictionary,
            start_offset=prepared.encoded.root_offset,
            meter=meter,
            provide_meta=use_skip_index,
        )
    view = run_plan(navigator, plan, query, meter, use_skip_index)
    return SessionResult(view, meter, CostModel(platform).breakdown(meter), platform)


def audit_integrity(prepared: PreparedDocument) -> Dict[str, object]:
    """Full-store verification sweep (every chunk decrypted + checked).

    A streaming run only verifies the chunks it touches; the audit reads
    the whole store through the scheme reader, so any tampered chunk —
    even one outside every authorized view — is reported.  Its cost is
    accounted on a private meter, apart from any request.
    """
    meter = Meter()
    reader = prepared.scheme.reader(prepared.secure, meter)
    size = prepared.secure.plaintext_size
    step = prepared.scheme.layout.chunk_size
    error = None
    try:
        for offset in range(0, size, step):
            reader.read(offset, min(step, size - offset))
    except IntegrityError as exc:
        error = str(exc)
    return {
        "scheme": prepared.scheme.name,
        "verifies": prepared.scheme.has_digest,
        "ok": error is None,
        "error": error,
        "bytes_checked": size,
        "chunks": meter.chunks_accessed,
    }

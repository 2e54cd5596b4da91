"""SecureStation: one SOE serving many clients (the server setting).

The paper's SOE is provisioned once and then serves a stream of
requests; nothing in it is per-request except the token state.
:func:`~repro.engine.pipeline.evaluate_document` is exactly one
``(document, subject)`` run.  A :class:`SecureStation` is its
multi-client generalization:

* a **plan cache** — an LRU keyed by ``(subject, policy digest)``
  holding compiled :class:`~repro.engine.plans.PolicyPlan` objects, so
  a returning subject (or any subject sharing a role policy) never
  recompiles automata;
* a **view cache** — an LRU keyed by ``(document id, version, subject,
  policy digest, query)`` holding each served view as the bytes
  :meth:`SecureStation.stream` sends plus its trailer facts, never as
  events; :meth:`SecureStation.evaluate` is the uncached evaluation
  that local callers get, with the evaluator's exact events;
* **per-session key material** — each :meth:`connect` derives a session
  key from the station's master secret, used to seal authorized views
  on the SOE -> client link (the document keys never leave the station).
"""

from __future__ import annotations

import dataclasses
import hashlib
import hmac
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Set, Tuple, Union

from repro.accesscontrol.model import Policy
from repro.compute import BACKEND, xtea_cipher
from repro.crypto.chunks import ChunkLayout
from repro.crypto.integrity import make_scheme
from repro.crypto.modes import decrypt_positioned, encrypt_positioned, pad_to_block
from repro.engine.pipeline import encode_source, evaluate_document
from repro.engine.plans import PolicyPlan, compile_policy, policy_digest
from repro.metrics import Meter
from repro.skipindex.decoder import decode_document
from repro.skipindex.encoder import EncodedDocument
from repro.skipindex.structural import build_structural_index
from repro.store import ChunkStore, MemoryStore
from repro.skipindex.updates import (
    UpdateImpact,
    UpdateOp,
    impact_between,
    reencode_after,
    refresh_structural_index,
)
from repro.soe.costmodel import CONTEXTS, CostModel, PlatformContext
from repro.soe.session import PreparedDocument, SessionResult
from repro.xmlkit.dom import Node
from repro.xmlkit.serializer import serialize_events


class StationError(KeyError):
    """Unknown document, subject or grant."""


#: Meter fields attached to the ``stage:evaluate`` span of a traced miss.
_EVALUATE_SPAN_ATTRS = (
    "bytes_decrypted",
    "bytes_hashed",
    "chunks_accessed",
    "events",
    "token_ops",
    "skipped_subtrees",
)


# ----------------------------------------------------------------------
# Link sealing (SOE -> client)
# ----------------------------------------------------------------------
def link_cipher(session_key: bytes):
    """The XTEA instance sealing one session's link.

    Built by :func:`~repro.compute.xtea_cipher`, so it runs the C
    kernel wherever the schemes do.  Sessions build one and pass it to
    :func:`seal_payload`/:func:`open_sealed` for every chunk.
    """
    return xtea_cipher(session_key)


def seal_payload(session_key: bytes, payload: bytes, cipher=None) -> bytes:
    """MAC-then-encrypt ``payload`` under a session link key.

    The body is ``len || payload || HMAC-SHA1(payload)``, padded and
    XTEA-encrypted under ``cipher`` (the session's :func:`link_cipher`;
    built here when omitted).  The inverse is :func:`open_sealed`; both
    ends of the SOE -> client link (station *and* the remote client
    SDK) share this module-level pair so the wire format is defined
    exactly once.
    """
    mac = hmac.new(session_key, payload, hashlib.sha1).digest()
    body = len(payload).to_bytes(4, "big") + payload + mac
    if cipher is None:
        cipher = link_cipher(session_key)
    return encrypt_positioned(cipher, pad_to_block(body), 0)


def open_sealed(session_key: bytes, blob: bytes, cipher=None) -> bytes:
    """Inverse of :func:`seal_payload`; raises ``ValueError`` on a bad MAC."""
    if cipher is None:
        cipher = link_cipher(session_key)
    # Accept memoryview blobs (the zero-copy frame decoder hands CHUNK
    # payloads out as views into its receive buffers).
    body = decrypt_positioned(cipher, bytes(blob), 0)
    length = int.from_bytes(body[:4], "big")
    if length > len(body) - 4:
        raise ValueError("sealed view is truncated")
    payload = body[4 : 4 + length]
    mac = body[4 + length : 4 + length + 20]
    expected = hmac.new(session_key, payload, hashlib.sha1).digest()
    if not hmac.compare_digest(mac, expected):
        raise ValueError("sealed view failed authentication")
    return payload


class StationStats:
    """Operational counters of one station (cache behaviour, volume)."""

    __slots__ = (
        "plan_hits",
        "plan_misses",
        "plan_evictions",
        "view_hits",
        "view_misses",
        "view_evictions",
        "view_invalidations",
        "sessions_opened",
        "requests",
        "updates",
        "chunks_reencrypted",
        "indexed_requests",
        "streamed_requests",
        "index_early_exits",
        "index_stale",
        "index_rebuilds",
        "index_incrementals",
        "index_planned_chunks",
        "index_chunks_total",
    )

    def __init__(self):
        for field in self.__slots__:
            setattr(self, field, 0)

    def as_dict(self) -> Dict[str, int]:
        return {field: getattr(self, field) for field in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "StationStats(%s)" % self.as_dict()


class StationSession:
    """One connected client: a subject plus derived key material.

    The session key is the first 16 bytes of SHA-1 over the station's
    master secret, the subject and a per-connection counter; it seals
    authorized views on the way out so the untrusted terminal between
    SOE and client learns nothing (document keys stay inside).  The
    link cipher is built once per session.
    """

    __slots__ = ("station", "subject", "session_id", "session_key", "_cipher")

    def __init__(self, station: "SecureStation", subject: str, session_id: int):
        self.station = station
        self.subject = subject
        self.session_id = session_id
        self.session_key = station._derive_session_key(subject, session_id)
        self._cipher = link_cipher(self.session_key)

    # ------------------------------------------------------------------
    def seal(self, payload: bytes) -> bytes:
        return seal_payload(self.session_key, payload, self._cipher)

    def stream_view(
        self,
        document_id: str,
        query=None,
        chunk_size: int = 4096,
        seal: bool = False,
        tracer=None,
        trace: int = 0,
        parent_span: int = 0,
    ) -> "ViewStream":
        """Streaming hand-off for the network layer: the serialized
        view (from the view cache, or evaluated) as bounded chunks,
        optionally sealed per chunk under this session's link key."""
        return self.station.stream(
            document_id,
            self.subject,
            query=query,
            chunk_size=chunk_size,
            sealer=self.seal if seal else None,
            tracer=tracer,
            trace=trace,
            parent_span=parent_span,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "StationSession(%s, #%d)" % (self.subject, self.session_id)


class ViewStream:
    """A served authorized view, packaged for chunked delivery.

    The streaming hand-off between the station and the network layer
    (:mod:`repro.server.service`): ``result`` is the view's
    :class:`_CachedView` — the serialized payload plus the trailer
    facts — and ``cached`` says whether the view cache served it,
    while :meth:`chunks` exposes the payload as bounded slices a writer
    can flow-control — optionally sealed one chunk at a time under a
    session link key.
    """

    __slots__ = ("result", "cached", "chunk_size", "_sealer")

    def __init__(self, result, chunk_size: int, sealer=None, cached: bool = False):
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.result = result
        self.cached = cached
        self.chunk_size = chunk_size
        self._sealer = sealer

    @property
    def payload(self) -> bytes:
        return self.result.payload

    @property
    def payload_bytes(self) -> int:
        return len(self.payload)

    @property
    def chunk_count(self) -> int:
        return (len(self.payload) + self.chunk_size - 1) // self.chunk_size

    @property
    def sealed(self) -> bool:
        return self._sealer is not None

    def chunks(self):
        """Yield the payload as ``chunk_size`` slices (sealed if asked).

        Sealing happens lazily, chunk by chunk, so a slow consumer
        never forces the whole view to be sealed up front.
        """
        for start in range(0, len(self.payload), self.chunk_size):
            chunk = self.payload[start : start + self.chunk_size]
            yield self._sealer(chunk) if self._sealer else chunk

    def __iter__(self):
        return self.chunks()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "ViewStream(%d bytes, %d chunks%s)" % (
            len(self.payload), self.chunk_count, ", sealed" if self.sealed else ""
        )


class _CachedView:
    """One served authorized view: what the station's view cache keeps.

    The serialized ``payload`` (made once, on the miss) and the trailer
    facts: the ``meter`` and ``breakdown`` of the original evaluation,
    so a hit reports the same simulated Table-1 costs; ``indexed``,
    whether that evaluation went through the structural index; and the
    ``document_version`` of the snapshot it read.  Shared read-only
    with every hit.  The cache keys it by ``(document id, version,
    subject, policy digest, query)`` — the version makes the entry
    self-invalidating: an update bumps the document version, so every
    stale key becomes unreachable even before the eviction sweep runs.
    """

    __slots__ = ("payload", "meter", "breakdown", "indexed", "document_version")

    def __init__(self, payload: bytes, result: SessionResult):
        self.payload = payload
        self.meter = result.meter
        self.breakdown = result.breakdown
        self.indexed = result.indexed
        self.document_version = result.document_version

    @property
    def seconds(self) -> float:
        return self.breakdown.total


class UpdateResult:
    """Outcome of one :meth:`SecureStation.update`.

    ``chunks_reencrypted`` is what the terminal actually rewrote (the
    dirty set, or every chunk on a worst-case cascade);
    ``dirty_chunks`` names them so tests and the replay defence can
    target exactly the records that changed.
    """

    __slots__ = (
        "document_id",
        "version",
        "impact",
        "dirty_chunks",
        "chunks_reencrypted",
        "total_chunks",
        "reencrypted_bytes",
        "full_reencrypt",
    )

    def __init__(
        self,
        document_id: str,
        version: int,
        impact: UpdateImpact,
        dirty_chunks: Set[int],
        chunks_reencrypted: int,
        total_chunks: int,
        reencrypted_bytes: int,
        full_reencrypt: bool,
    ):
        self.document_id = document_id
        self.version = version
        self.impact = impact
        self.dirty_chunks = set(dirty_chunks)
        self.chunks_reencrypted = chunks_reencrypted
        self.total_chunks = total_chunks
        self.reencrypted_bytes = reencrypted_bytes
        self.full_reencrypt = full_reencrypt

    @property
    def dirtied_ratio(self) -> float:
        """Re-encrypted fraction of the store (0..1)."""
        if not self.total_chunks:
            return 0.0
        return self.chunks_reencrypted / self.total_chunks

    def as_dict(self) -> Dict[str, object]:
        return {
            "document": self.document_id,
            "version": self.version,
            "chunks_reencrypted": self.chunks_reencrypted,
            "total_chunks": self.total_chunks,
            "dirtied_ratio": round(self.dirtied_ratio, 4),
            "reencrypted_bytes": self.reencrypted_bytes,
            "changed_bytes": self.impact.changed_bytes,
            "old_size": self.impact.old_size,
            "new_size": self.impact.new_size,
            "full_reencrypt": self.full_reencrypt,
            "worst_case": self.impact.is_worst_case,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "UpdateResult(%s v%d, %d/%d chunks%s)" % (
            self.document_id,
            self.version,
            self.chunks_reencrypted,
            self.total_chunks,
            ", full" if self.full_reencrypt else "",
        )


@dataclass(frozen=True)
class StationConfig:
    """Every construction-time setting of a :class:`SecureStation`.

    The frozen-dataclass form of the station's keyword soup: build one
    once (or take the defaults), hand it to :func:`repro.open_station`
    or ``SecureStation(config)``, and derive variants with
    :meth:`replace` — configs are immutable, hashable and comparable,
    so tests and topologies can share them freely.  Every field matches
    the ``SecureStation`` keyword of the same name; keyword overrides
    passed alongside a config win over its fields.
    """

    master_secret: bytes = field(default=b"station-master-secret", repr=False)
    context: Union[str, PlatformContext] = "smartcard"
    cache_views: bool = True
    store: Optional[ChunkStore] = None

    def replace(self, **changes) -> "StationConfig":
        """A copy with ``changes`` applied (frozen-dataclass idiom)."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class PublishOptions:
    """Every per-document knob of :meth:`SecureStation.publish`.

    ``index=True`` builds the publish-time structural pre/post index
    (:mod:`repro.skipindex.structural`) over the plaintext encoding and
    ships it with the document through stores, updates and cluster
    repair; eligible queries are then served from chunk-range plans
    instead of a full streaming pass.  Off by default — the index
    costs one plaintext walk at publish and a blob beside the chunks.
    """

    scheme: str = "ECB-MHT"
    key: Optional[bytes] = None
    layout: Optional[ChunkLayout] = None
    version_floor: int = 0
    index: bool = False

    def replace(self, **changes) -> "PublishOptions":
        """A copy with ``changes`` applied (frozen-dataclass idiom)."""
        return dataclasses.replace(self, **changes)


class SecureStation:
    """Multi-client SOE facade: documents, grants, plan and view caches.

    Parameters
    ----------
    master_secret:
        Station-resident secret; derives per-document keys (when none
        is supplied at :meth:`publish`) and per-session link keys.
    context:
        Platform context used for simulated-cost accounting.
    cache_views:
        Keep materialized views in an LRU of :attr:`view_cache_size`
        entries, keyed by ``(document id, version, subject, policy
        digest, query)``; the version key plus proactive invalidation
        on :meth:`update`/:meth:`publish` guarantee a stale view is
        never served.  ``False`` makes every request run the full
        pipeline (the cold path).
    store:
        Where published documents live: a
        :class:`~repro.store.ChunkStore` instance, or ``None`` for the
        in-process :class:`~repro.store.MemoryStore` (the historical
        behaviour).  A persistent store (:class:`~repro.store.LogStore`)
        makes the corpus survive process death: on restart the station
        opened on the same directory serves byte-identical views at the
        pre-crash versions, replay protection intact.  The station owns
        the store it is given and closes it in :meth:`close`.

    Every station serves with the Skip index (Brute-Force stays in
    :func:`~repro.engine.pipeline.evaluate_document`) and runs XTEA on
    the implementation :func:`~repro.compute.xtea_cipher` picks, which
    :attr:`backend` describes.
    """

    #: Capacity of the compiled-plan LRU (entries, not bytes).
    plan_cache_size = 32
    #: Capacity of the materialized-view LRU (entries).
    view_cache_size = 128
    backend = BACKEND

    def __init__(self, config: Optional[StationConfig] = None, **overrides):
        """Settings are the ``config`` fields (defaults when ``None``)
        with any keyword ``overrides`` applied on top, so
        ``SecureStation(cfg, cache_views=False)`` and
        ``SecureStation(cache_views=False)`` both work."""
        if config is not None and not isinstance(config, StationConfig):
            raise TypeError(
                "config must be a StationConfig, not %s" % type(config).__name__
            )
        cfg = (config or StationConfig()).replace(**overrides)
        self.config = cfg
        self._secret = cfg.master_secret
        self.platform = (
            CONTEXTS[cfg.context] if isinstance(cfg.context, str) else cfg.context
        )
        self.cache_views = cfg.cache_views
        self.store = cfg.store if cfg.store is not None else MemoryStore()
        self.stats = StationStats()
        self._grants: Dict[Tuple[str, str], Policy] = {}
        self._plans: "OrderedDict[Tuple[str, str], PolicyPlan]" = OrderedDict()
        self._views: (
            "OrderedDict[Tuple[str, int, str, str, Optional[str]], _CachedView]"
        ) = OrderedDict()
        self._session_counter = 0
        self._closed = False
        self._listeners: List[Callable[[str, int], None]] = []
        # One station serves many server executor threads concurrently:
        # everything mutable here (session counter, plan LRU, grants,
        # stats) is guarded by this lock; the document map lives in the
        # store, which guards itself.  Evaluation runs outside both —
        # published documents are immutable snapshots (updates swap in
        # a new one copy-on-write).
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Key derivation
    # ------------------------------------------------------------------
    def _derive_key(self, label: str) -> bytes:
        return hashlib.sha1(self._secret + b"|" + label.encode("utf-8")).digest()[:16]

    def _derive_session_key(self, subject: str, session_id: int) -> bytes:
        return self._derive_key("session|%s|%d" % (subject, session_id))

    # ------------------------------------------------------------------
    # Publishing and grants
    # ------------------------------------------------------------------
    def publish(
        self,
        document_id: str,
        document: Union[str, Node, PreparedDocument],
        options: Optional[PublishOptions] = None,
        **overrides,
    ) -> PreparedDocument:
        """Register a document: parse/encode/encrypt it (publisher
        pipeline) unless an already-:class:`PreparedDocument` is given.

        ``options`` is a :class:`PublishOptions`; keyword ``overrides``
        (``scheme``, ``key``, ``layout``, ``version_floor``, ``index``)
        are applied on top of its fields.  ``index=True`` builds (or, for a
        :class:`PreparedDocument` arriving without one, backfills) the
        structural pre/post index served by the indexed query path.

        Re-publishing an existing id continues its version chain: the
        new store is encrypted one version above anything this station
        ever served under the (deterministic) document key, so chunk
        records captured from *any* earlier generation fail
        verification when spliced into the new one, and subscribers
        get an invalidation.  A caller handing in an external
        :class:`PreparedDocument` controls its own encryption version;
        replay protection across generations then holds only if it was
        protected above the prior version (the station still bumps its
        version counter monotonically either way).

        ``version_floor`` is the failover hook: when a cluster gateway
        re-publishes a document onto a replacement node, the node has
        never seen the id (its local chain would restart at 0), but
        clients already hold version trailers from the failed primary.
        Publishing with ``version_floor=v`` guarantees both the
        station's version counter and (on the source-document path)
        the encryption version start at ``v`` or above, so the PR 3
        version chain — and with it replay protection — survives the
        move to the new node.
        """
        if options is not None and not isinstance(options, PublishOptions):
            raise TypeError(
                "options must be a PublishOptions, not %s" % type(options).__name__
            )
        opts = (options or PublishOptions()).replace(**overrides)
        scheme, key, layout = opts.scheme, opts.key, opts.layout
        version_floor = opts.version_floor
        if key is None:
            key = self._derive_key("document|%s" % document_id)
        prior = self.store.version(document_id)
        next_version = 0 if prior is None else prior + 1
        next_version = max(next_version, version_floor)
        if isinstance(document, PreparedDocument):
            prepared = document
            if opts.index and prepared.index is None:
                # Backfill: an external publisher (or a cluster repair
                # copying from an unindexed replica) may hand over bytes
                # without an index — build it from the encoding so the
                # served document is indexed either way.
                prepared = PreparedDocument(
                    prepared.encoded,
                    prepared.scheme,
                    prepared.secure,
                    index=build_structural_index(prepared.encoded),
                )
        else:
            # Parse + encode here, then the scheme's record generator
            # flows into the store: a disk store buffers at most one log
            # segment, so a document larger than RAM publishes without
            # its ciphertext ever materializing.
            encoded = encode_source(document)
            structural = build_structural_index(encoded) if opts.index else None
            prepared = None
        with self._lock:
            if prepared is None:
                version = next_version
                served = self.store.put_stream(
                    document_id,
                    encoded,
                    make_scheme(scheme, key=key, layout=layout),
                    key,
                    version,
                    index=structural,
                )
            else:
                version = max(prepared.secure.version, next_version)
                served = self.store.put(document_id, prepared, key, version)
            listeners = list(self._listeners) if prior is not None else []
            if prior is not None:
                self._invalidate_views(document_id)
        for listener in listeners:
            listener(document_id, version)
        return served

    def document(self, document_id: str) -> PreparedDocument:
        return self._snapshot(document_id)[0]

    def _snapshot(self, document_id: str) -> Tuple[PreparedDocument, bytes, int]:
        """One atomic read of ``(prepared, key, version)`` — the
        snapshot a request evaluates and the version it reports must
        come from the same read (the store entry is one immutable
        object, swapped whole on update)."""
        entry = self.store.get(document_id)
        if entry is None:
            raise StationError("unknown document %r" % document_id)
        return entry.as_tuple()

    def document_version(self, document_id: str) -> int:
        """Current update version of a published document (0 initially)."""
        version = self.store.version(document_id)
        if version is None:
            raise StationError("unknown document %r" % document_id)
        return version

    def document_versions(self) -> Dict[str, int]:
        """Every published document id with its current version — the
        health-probe payload (PONG) a cluster gateway uses to verify a
        backend is alive *and* its replicas are in version lockstep."""
        return self.store.versions()

    def grant(
        self, document_id: str, policy: Policy, subject: Optional[str] = None
    ) -> None:
        """Attach ``policy`` to ``(document, subject)``; the subject
        defaults to the policy's own."""
        if document_id not in self.store:
            raise StationError("unknown document %r" % document_id)
        with self._lock:
            subject = policy.subject if subject is None else subject
            self._grants[(document_id, subject)] = policy

    def revoke(self, document_id: str, subject: str) -> None:
        with self._lock:
            self._grants.pop((document_id, subject), None)

    def has_grant(self, document_id: str, subject: str) -> bool:
        """Does ``subject`` hold a grant on ``document_id``?  (The
        server's authorization check for remote UPDATE frames.)"""
        with self._lock:
            return (document_id, subject) in self._grants

    def _policy_for(self, document_id: str, subject: str) -> Policy:
        with self._lock:
            try:
                return self._grants[(document_id, subject)]
            except KeyError:
                raise StationError(
                    "no grant for subject %r on document %r" % (subject, document_id)
                )

    # ------------------------------------------------------------------
    # Plan cache
    # ------------------------------------------------------------------
    def plan_for(self, policy: Union[Policy, PolicyPlan]) -> PolicyPlan:
        """Compiled plan for ``policy``, via the (subject, digest) LRU."""
        if isinstance(policy, PolicyPlan):
            return policy
        key = (policy.subject, policy_digest(policy))
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
                self.stats.plan_hits += 1
                return plan
            self.stats.plan_misses += 1
        # Compile outside the lock (it can take milliseconds); a racing
        # thread may compile the same plan, the last insert wins.
        plan = compile_policy(policy)
        with self._lock:
            self._plans[key] = plan
            while len(self._plans) > self.plan_cache_size:
                self._plans.popitem(last=False)
                self.stats.plan_evictions += 1
        return plan

    def cached_plans(self) -> int:
        with self._lock:
            return len(self._plans)

    # ------------------------------------------------------------------
    # Updates (the live path of Section 4.1)
    # ------------------------------------------------------------------
    def subscribe(self, listener: Callable[[str, int], None]) -> None:
        """Register ``listener(document_id, new_version)``, called after
        every successful :meth:`update` (outside the station lock)."""
        with self._lock:
            self._listeners.append(listener)

    def unsubscribe(self, listener: Callable[[str, int], None]) -> None:
        with self._lock:
            try:
                self._listeners.remove(listener)
            except ValueError:
                pass

    def update(self, document_id: str, op: UpdateOp) -> UpdateResult:
        """Apply one edit to a published document, live.

        The pipeline is the paper's update discipline end-to-end:
        decode the current tree, apply the edit, re-encode reusing the
        tag dictionary, diff against the old encoding and re-encrypt
        **only the dirtied chunks** under a bumped document version —
        unless the edit hits the paper's worst case (dictionary growth
        or a size-field width jump), which cascades into a full
        re-encryption.  The swap is copy-on-write: in-flight readers
        finish against the old immutable snapshot; the new version is
        bound into every rewritten chunk so replaying a pre-update
        record raises :class:`~repro.crypto.integrity.IntegrityError`.
        Cached plans of subjects granted on the document are dropped,
        and every subscriber is notified of the new version.

        The heavy pipeline (decode, re-encode, diff, re-encrypt) runs
        *outside* the station lock against the immutable snapshot, so
        queries keep flowing during an update; the swap itself is an
        optimistic compare-and-swap that retries if a concurrent update
        won the race — versions always form a linear chain.
        """
        while True:
            prepared, key, base_version = self._snapshot(document_id)
            old_encoded = prepared.encoded
            if not old_encoded.data:
                raise StationError(
                    "document %r has no plaintext encoding to update"
                    % document_id
                )
            if not isinstance(old_encoded.data, (bytes, bytearray)):
                # A store-loaded document decrypts its encoding lazily;
                # the decode/diff below is byte-at-a-time work, so pull
                # it into plain bytes once up front.
                old_encoded = EncodedDocument(
                    bytes(old_encoded.data),
                    old_encoded.dictionary,
                    old_encoded.stats,
                    old_encoded.root_offset,
                )
            old_tree = decode_document(old_encoded)
            new_tree = op.apply(old_tree)
            new_encoded, dictionary_grew = reencode_after(old_encoded, new_tree)
            layout = prepared.scheme.layout
            impact = impact_between(
                old_encoded,
                new_encoded,
                old_tree,
                new_tree,
                layout=layout,
                dictionary_grew=dictionary_grew,
            )
            version = base_version + 1
            total_chunks = layout.chunk_count(len(new_encoded.data))
            full = impact.is_worst_case
            if full:
                dirty = set(range(total_chunks))
            else:
                dirty = set()
                for start, end in impact.changed_ranges:
                    dirty.update(layout.chunks_covering(start, end - start))
            new_secure, reencrypted = prepared.scheme.reencrypt(
                prepared.secure, new_encoded.data, dirty, version
            )
            # Keep an indexed document indexed across the edit: reuse
            # the old index when the change stayed inside text payloads
            # (offsets unmoved), rebuild on anything structural.  Runs
            # outside the lock like the rest of the heavy pipeline.
            old_index = getattr(prepared, "index", None)
            new_index = None
            index_mode = None
            if old_index is not None:
                new_index, index_mode = refresh_structural_index(
                    old_index, new_encoded, impact
                )
            with self._lock:
                current = self.store.get(document_id)
                if current is None:
                    raise StationError("unknown document %r" % document_id)
                if current.prepared is not prepared:
                    continue  # a concurrent update won; redo on its result
                self.store.apply_update(
                    document_id,
                    PreparedDocument(
                        new_encoded, prepared.scheme, new_secure, index=new_index
                    ),
                    version,
                    dirty_chunks=dirty,
                )
                if index_mode == "incremental":
                    self.stats.index_incrementals += 1
                elif index_mode == "rebuild":
                    self.stats.index_rebuilds += 1
                # Conservative cache coherence: drop compiled plans of
                # every subject granted on the updated document, so
                # nothing stale keyed off the old content survives the
                # version bump.
                subjects = {
                    s for (doc, s) in self._grants if doc == document_id
                }
                for cache_key in [k for k in self._plans if k[0] in subjects]:
                    del self._plans[cache_key]
                self._invalidate_views(document_id)
                self.stats.updates += 1
                self.stats.chunks_reencrypted += reencrypted
                listeners = list(self._listeners)
            break
        dirty = {index for index in dirty if index < total_chunks}
        result = UpdateResult(
            document_id=document_id,
            version=version,
            impact=impact,
            dirty_chunks=dirty,
            chunks_reencrypted=reencrypted,
            total_chunks=total_chunks,
            reencrypted_bytes=sum(len(new_secure.record(i)) for i in dirty),
            full_reencrypt=full,
        )
        for listener in listeners:
            listener(document_id, version)
        return result

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def connect(self, subject: str) -> StationSession:
        with self._lock:
            self._session_counter += 1
            session_id = self._session_counter
            self.stats.sessions_opened += 1
        return StationSession(self, subject, session_id)

    def _resolve(self, document_id, subject_or_policy, query):
        """One request's snapshot, its version, the compiled plan of
        the subject's grant (or of an explicit policy/plan) and the
        compiled query."""
        prepared, _key, version = self._snapshot(document_id)
        if isinstance(subject_or_policy, str):
            policy = self._policy_for(document_id, subject_or_policy)
        else:
            policy = subject_or_policy
        plan = self.plan_for(policy)
        return prepared, version, plan, plan.query_plan(query)

    def evaluate(
        self,
        document_id: str,
        subject_or_policy: Union[str, Policy, PolicyPlan],
        query=None,
    ) -> SessionResult:
        """One request: the authorized view of one document for one
        subject (grant lookup) or explicit policy/plan, as the
        evaluator's exact events.

        Always evaluated: the view cache holds serialized payloads and
        serves only :meth:`stream`.
        """
        resolved = self._resolve(document_id, subject_or_policy, query)
        return self._evaluate(*resolved, None, 0, 0)

    def _evaluate(
        self, prepared, version, plan, query_plan, tracer, trace, parent_span
    ) -> SessionResult:
        """The uncached evaluation of one resolved request.  With a
        ``tracer`` (``repro.obs.trace.Tracer``) and a nonzero ``trace``
        id it records one ``stage:evaluate`` span under ``parent_span``
        around :func:`evaluate_document`, with its Meter counts and the
        XTEA implementation as attributes."""
        traced = tracer is not None and trace != 0
        with self._lock:
            self.stats.requests += 1
        # ---- structural-index serving decision -----------------------
        # Eligible iff the document shipped an index that is fresh
        # against the served snapshot and the query compiled to a
        # wildcard-free structural path.  Anything else streams — the
        # streaming evaluator is the oracle the indexed path must match
        # byte for byte, and the universal fallback.
        index = getattr(prepared, "index", None)
        serve_indexed = (
            index is not None
            and query_plan is not None
            and query_plan.structural is not None
        )
        if serve_indexed and not index.matches_document(prepared.encoded):
            serve_indexed = False
            with self._lock:
                self.stats.index_stale += 1
        early_exit = False
        if serve_indexed:
            layout = prepared.scheme.layout
            total_chunks = layout.chunk_count(len(prepared.encoded.data))
            candidates = index.match(
                query_plan.structural, prepared.encoded.dictionary
            )
            early_exit = not candidates
            planned = () if early_exit else index.planned_chunks(candidates, layout)
            with self._lock:
                self.stats.indexed_requests += 1
                self.stats.index_early_exits += early_exit
                self.stats.index_planned_chunks += len(planned)
                self.stats.index_chunks_total += total_chunks
        else:
            with self._lock:
                self.stats.streamed_requests += 1
        if early_exit:
            # The structural superset is empty: no element matches the
            # query's path, so the view is provably empty before a
            # single chunk is transferred or decrypted.
            meter = Meter()
            result = SessionResult(
                [], meter, CostModel(self.platform).breakdown(meter), self.platform
            )
        else:
            t_evaluate = perf_counter() if traced else 0.0
            result = evaluate_document(
                prepared,
                plan,
                query_plan,
                self.platform,
                index=index if serve_indexed else None,
            )
            if traced:
                # The meter is shared across the run (decryption happens
                # lazily while the evaluator pulls), so one span carries
                # the request totals; the backend names which XTEA
                # implementation served the crypto work.
                attrs = {
                    name: getattr(result.meter, name)
                    for name in _EVALUATE_SPAN_ATTRS
                    if getattr(result.meter, name)
                }
                attrs["backend"] = self.backend.name
                tracer.record(
                    trace,
                    "stage:evaluate",
                    t_evaluate,
                    perf_counter(),
                    parent=parent_span,
                    attrs=attrs,
                )
        result.document_version = version
        result.indexed = serve_indexed
        return result

    def cached_views(self) -> int:
        with self._lock:
            return len(self._views)

    def _invalidate_views(self, document_id: str) -> None:
        """Drop every cached view of ``document_id`` (all versions).

        Correctness does not depend on this — the version in the cache
        key already makes stale entries unreachable — but dead entries
        would otherwise squat in the LRU until churn evicts them.
        """
        with self._lock:
            stale = [key for key in self._views if key[0] == document_id]
            for key in stale:
                del self._views[key]
            self.stats.view_invalidations += len(stale)

    def stream(
        self,
        document_id: str,
        subject_or_policy: Union[str, Policy, PolicyPlan],
        query=None,
        chunk_size: int = 4096,
        sealer=None,
        tracer=None,
        trace: int = 0,
        parent_span: int = 0,
    ) -> ViewStream:
        """Serve one request as a serialized view handed off for
        chunked delivery (the network layer's entry point).

        Repeat requests are served from the version-keyed view cache.
        An entry keeps the payload serialized on the miss, so a hit
        skips the NFA pass *and* serialization — what remains per
        request is the per-session link reseal.  The cost model still
        charges the simulated Table-1 costs of the *original*
        evaluation (the entry keeps its meter/breakdown), so simulated
        seconds are identical whether a request hit or missed.

        Traced requests (a ``tracer`` and a nonzero ``trace`` id)
        record one ``view-cache`` span under ``parent_span`` on a hit,
        or ``stage:evaluate`` and ``serialize-payload`` spans on a miss.  Untraced requests
        (``trace`` 0, the default) skip every tracing branch — the
        cached hot path stays within the ratio guard of
        ``benchmarks/test_obs_bench.py``.
        """
        traced = tracer is not None and trace != 0
        t_start = perf_counter() if traced else 0.0
        prepared, version, plan, query_plan = self._resolve(
            document_id, subject_or_policy, query
        )
        cache_key = None
        if self.cache_views:
            cache_key = (
                document_id,
                version,
                plan.subject,
                plan.digest,
                None if query_plan is None else str(query_plan.path),
            )
            with self._lock:
                entry = self._views.get(cache_key)
                if entry is not None:
                    self._views.move_to_end(cache_key)
                    self.stats.view_hits += 1
                    self.stats.requests += 1
                else:
                    self.stats.view_misses += 1
            if entry is not None:
                if traced:
                    tracer.record(
                        trace,
                        "view-cache",
                        t_start,
                        perf_counter(),
                        parent=parent_span,
                        attrs={"cached": True, "bytes": len(entry.payload)},
                    )
                return ViewStream(entry, chunk_size, sealer=sealer, cached=True)
        result = self._evaluate(
            prepared, version, plan, query_plan, tracer, trace, parent_span
        )
        t_serialize = perf_counter() if traced else 0.0
        payload = serialize_events(result.events).encode("utf-8")
        if traced:
            tracer.record(
                trace,
                "serialize-payload",
                t_serialize,
                perf_counter(),
                parent=parent_span,
                attrs={"bytes": len(payload)},
            )
        entry = _CachedView(payload, result)
        if cache_key is not None:
            with self._lock:
                self._views[cache_key] = entry
                self._views.move_to_end(cache_key)
                while len(self._views) > self.view_cache_size:
                    self._views.popitem(last=False)
                    self.stats.view_evictions += 1
        return ViewStream(entry, chunk_size, sealer=sealer)

    def close(self) -> None:
        """Release the document store (log/manifest handles, lock).
        Idempotent — every owner in a teardown path may call it."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self.store.close()

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def __enter__(self) -> "SecureStation":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SecureStation(%d documents, %d grants, %d cached plans)" % (
            len(self.store),
            len(self._grants),
            len(self._plans),
        )

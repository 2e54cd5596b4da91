"""In-process cluster topology: N backends + gateway in one process.

This is the harness the whole cluster layer is tested, benchmarked and
demoed through: :class:`StationCluster` spawns N
:class:`~repro.server.service.StationServer` backends (each its own
:class:`~repro.engine.station.SecureStation` on its own asyncio loop
thread, listening on a real ephemeral TCP port) plus one
:class:`~repro.cluster.gateway.ClusterGateway` fronting them, wires up
document placement over the same consistent-hash ring the gateway
routes with, and implements the gateway's repair ``republisher``
callback: on failover (or a REBALANCE join) it copies the encrypted
document from a surviving replica onto the target node, passing the
last served version as the ``version_floor`` of
:meth:`SecureStation.publish` so the version chain continues across
the move.

Everything crosses real sockets — only process boundaries are
simulated — so the cluster the CI smoke step boots via ``repro
cluster`` and the one the tests kill backends in are the same code.
"""

from __future__ import annotations

import hashlib
import os
import threading
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.accesscontrol.model import Policy
from repro.cluster.gateway import ClusterGateway
from repro.cluster.ring import HashRing
from repro.engine.pipeline import prepare_document
from repro.engine.station import SecureStation, StationConfig, StationError
from repro.server.client import RemoteSession
from repro.server.service import ServerThread, StationServer
from repro.soe.session import PreparedDocument
from repro.store import open_store
from repro.xmlkit.dom import Node


class ClusterError(RuntimeError):
    """Topology misuse: unknown node, publish after gateway start, ..."""


class ClusterNode:
    """One backend: a station served over TCP on a daemon thread."""

    __slots__ = ("name", "station", "server", "thread", "address", "alive")

    def __init__(
        self,
        name: str,
        station: SecureStation,
        server: StationServer,
        thread: ServerThread,
        address: Tuple[str, int],
    ):
        self.name = name
        self.station = station
        self.server = server
        self.thread = thread
        self.address = address
        self.alive = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "ClusterNode(%s @ %s:%d%s)" % (
            self.name,
            self.address[0],
            self.address[1],
            "" if self.alive else ", dead",
        )


class StationCluster:
    """Bootstrap and drive an in-process sharded station cluster.

    Usage::

        cluster = StationCluster(replicas=2)
        cluster.start_backends(3)
        cluster.publish("doc", tree, policies)
        cluster.start_gateway()
        ... RemoteSession(*cluster.gateway_address, subject) ...
        cluster.kill_backend(cluster.primary_of("doc"))   # failover drill
        cluster.stop()

    Documents are prepared (encoded + encrypted) once and the same
    :class:`PreparedDocument` is registered on every replica — the
    paper's untrusted-store model makes the encrypted bytes freely
    copyable, which is exactly what replication is.  Updates applied
    through the gateway re-encrypt dirty chunks on each replica
    independently but deterministically (same op, same base snapshot,
    same key), so replicas stay in version lockstep.
    """

    def __init__(
        self,
        *,
        replicas: int = 2,
        vnodes: int = 64,
        context: str = "smartcard",
        use_skip_index: bool = True,
        host: str = "127.0.0.1",
        gateway_port: int = 0,
        pool_size: int = 4,
        chunk_size: int = 4096,
        master_secret: bytes = b"cluster-master-secret",
        slow_ms: Optional[float] = None,
        trace: bool = False,
        store_dir: Optional[str] = None,
        cache_mb: Optional[int] = None,
    ):
        self.replicas = replicas
        self.vnodes = vnodes
        self.context = context
        self.use_skip_index = use_skip_index
        self.host = host
        self.gateway_port = gateway_port
        self.pool_size = pool_size
        self.chunk_size = chunk_size
        #: Root directory for per-backend persistent stores: each
        #: backend gets ``store_dir/<node name>``, so a restarted
        #: cluster re-serves its corpus (and repair can source chunks
        #: from a surviving replica's log).  ``None`` keeps every
        #: backend on the in-memory store.
        self.store_dir = store_dir
        self.cache_mb = cache_mb
        #: Observability knobs, applied to the gateway at
        #: :meth:`start_gateway` (the gateway owns the combined
        #: cross-process span tree, so its slow log is the one that
        #: matters; backends keep their own tracers for direct use).
        self.slow_ms = slow_ms
        self.trace = trace
        self._secret = master_secret
        self.nodes: Dict[str, ClusterNode] = {}
        self.gateway: Optional[ClusterGateway] = None
        self.gateway_thread: Optional[ServerThread] = None
        self.gateway_address: Optional[Tuple[str, int]] = None
        #: Cluster-side placement mirror used only for bootstrap and
        #: for helper queries (``primary_of``); after start the
        #: gateway's ring is authoritative for routing.
        self._ring = HashRing(vnodes=vnodes)
        self._placement: Dict[str, List[str]] = {}
        #: Per-document grant records, needed to re-grant on repair.
        self._policies: Dict[str, List[Policy]] = {}
        self._counter = 0
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Backends
    # ------------------------------------------------------------------
    def add_backend(self, name: Optional[str] = None) -> ClusterNode:
        """Start one backend station server on an ephemeral port."""
        with self._lock:
            if name is None:
                name = "node%d" % self._counter
            if name in self.nodes and self.nodes[name].alive:
                raise ClusterError("backend %r already running" % name)
            self._counter += 1
        store = None
        if self.store_dir is not None:
            store = open_store(
                os.path.join(self.store_dir, name),
                cache_bytes=(
                    self.cache_mb * 1024 * 1024
                    if self.cache_mb is not None
                    else None
                ),
            )
        station = SecureStation(
            StationConfig(
                master_secret=self._derive(name),
                context=self.context,
                use_skip_index=self.use_skip_index,
                store=store,
            )
        )
        server = StationServer(
            station,
            host=self.host,
            port=0,
            chunk_size=self.chunk_size,
            allow_forward=True,
        )
        thread = ServerThread(server)
        address = thread.start()
        node = ClusterNode(name, station, server, thread, address)
        with self._lock:
            self.nodes[name] = node
            self._ring.add(name)
        return node

    def start_backends(self, count: int) -> List[ClusterNode]:
        return [self.add_backend() for _ in range(count)]

    def _derive(self, label: str) -> bytes:
        return hashlib.sha1(self._secret + b"|" + label.encode("utf-8")).digest()[
            :16
        ]

    def live_nodes(self) -> List[ClusterNode]:
        return [node for node in self.nodes.values() if node.alive]

    # ------------------------------------------------------------------
    # Documents
    # ------------------------------------------------------------------
    def publish(
        self,
        document_id: str,
        document: Union[str, Node, PreparedDocument],
        policies: Sequence[Policy] = (),
        scheme: str = "ECB-MHT",
    ) -> List[str]:
        """Prepare ``document`` once and place it on R preference nodes.

        Returns the node names holding a copy.  Must run before
        :meth:`start_gateway` (the gateway takes the placement map as
        bootstrap state; later placement changes go through REBALANCE
        or repair).
        """
        if self.gateway is not None:
            raise ClusterError(
                "publish before start_gateway(); later placement changes "
                "go through REBALANCE"
            )
        if not self.nodes:
            raise ClusterError("no backends started")
        if isinstance(document, PreparedDocument):
            prepared = document
        else:
            prepared = prepare_document(
                document, scheme, key=self._derive("document|%s" % document_id)
            )
        placed = self._ring.preference(document_id, self.replicas)
        for name in placed:
            station = self.nodes[name].station
            station.publish(document_id, prepared)
            for policy in policies:
                station.grant(document_id, policy)
        with self._lock:
            self._placement[document_id] = list(placed)
            self._policies[document_id] = list(policies)
        return list(placed)

    def primary_of(self, document_id: str) -> str:
        """The current primary by the cluster's own ring mirror."""
        preference = self._ring.preference(document_id, 1)
        if not preference:
            raise ClusterError("no live backends")
        return preference[0]

    def documents(self) -> List[str]:
        with self._lock:
            return list(self._placement)

    # ------------------------------------------------------------------
    # Gateway
    # ------------------------------------------------------------------
    def start_gateway(self) -> Tuple[str, int]:
        if self.gateway is not None:
            raise ClusterError("gateway already started")
        versions: Dict[str, int] = {}
        for document_id, holders in self._placement.items():
            version = 0
            for name in holders:
                try:
                    version = max(
                        version,
                        self.nodes[name].station.document_version(document_id),
                    )
                except StationError:
                    pass
            versions[document_id] = version
        self.gateway = ClusterGateway(
            {
                name: node.address
                for name, node in self.nodes.items()
                if node.alive
            },
            replicas=self.replicas,
            vnodes=self.vnodes,
            host=self.host,
            port=self.gateway_port,
            documents=versions,
            placement={
                document_id: set(holders)
                for document_id, holders in self._placement.items()
            },
            republisher=self._republish,
            pool_size=self.pool_size,
            slow_ms=self.slow_ms,
            trace=self.trace,
        )
        self.gateway_thread = ServerThread(self.gateway)
        self.gateway_address = self.gateway_thread.start()
        return self.gateway_address

    def _republish(
        self, document_id: str, node_name: str, version_floor: int
    ) -> int:
        """Gateway repair callback (runs in an executor thread).

        Copies the encrypted document from the most advanced surviving
        replica onto ``node_name``, publishing with ``version_floor``
        so the version chain continues, and re-grants the document's
        policies there.  The copy sources chunks from the replica's
        *store*: ``station.document()`` on a persistent backend is a
        pager-backed handle, so the target's ``put`` drains chunk
        records straight out of the survivor's log through its page
        cache — no caller-side re-publish, no full in-memory copy.
        """
        target = self.nodes.get(node_name)
        if target is None or not target.alive:
            raise ClusterError("backend %r is not running" % node_name)
        source_prepared = None
        source_version = -1
        for node in self.nodes.values():
            if not node.alive or node.name == node_name:
                continue
            try:
                version = node.station.document_version(document_id)
            except StationError:
                continue
            if version > source_version:
                source_version = version
                source_prepared = node.station.document(document_id)
        if source_prepared is None:
            raise ClusterError(
                "no surviving replica of %r to copy from" % document_id
            )
        target.station.publish(
            document_id,
            source_prepared,
            version_floor=max(version_floor, source_version),
        )
        for policy in self._policies.get(document_id, ()):
            target.station.grant(document_id, policy)
        return target.station.document_version(document_id)

    # ------------------------------------------------------------------
    # Drills: kill / join
    # ------------------------------------------------------------------
    def kill_backend(self, name: str) -> ClusterNode:
        """Stop a backend abruptly (the failover drill).

        The gateway is *not* told: it discovers the death on its next
        forward attempt, exactly like a crashed process.
        """
        node = self.nodes.get(name)
        if node is None or not node.alive:
            raise ClusterError("backend %r is not running" % name)
        node.thread.stop()
        node.alive = False
        # Release the station's store (file lock, log handles) so the same
        # node name — or another process — can reopen the directory;
        # the gateway still discovers the death by its failed forward.
        node.station.close()
        with self._lock:
            self._ring.remove(name)
        return node

    def join_backend(self, name: Optional[str] = None) -> ClusterNode:
        """Start a fresh backend and REBALANCE it into the live gateway.

        Returns once the gateway has re-placed every document whose
        preference list now includes the new node.
        """
        if self.gateway_address is None:
            raise ClusterError("gateway not started")
        node = self.add_backend(name)
        with self.control_session() as control:
            reply = control.rebalance("join", node.name, node.address)
        if reply.get("action") != "join":  # pragma: no cover - defensive
            raise ClusterError("gateway refused the join: %r" % reply)
        return node

    def control_session(self) -> RemoteSession:
        """An admin session against the gateway (topology/rebalance)."""
        if self.gateway_address is None:
            raise ClusterError("gateway not started")
        host, port = self.gateway_address
        return RemoteSession(host, port, "@admin", connect_retry=5.0)

    # ------------------------------------------------------------------
    def stop(self) -> None:
        if self.gateway_thread is not None:
            self.gateway_thread.stop()
            self.gateway_thread = None
            self.gateway = None
        for node in self.nodes.values():
            if node.alive:
                node.thread.stop()
                node.alive = False
            node.station.close()  # idempotent; flushes persistent stores

    def __enter__(self) -> "StationCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "StationCluster(%d/%d backends alive, R=%d)" % (
            len(self.live_nodes()),
            len(self.nodes),
            self.replicas,
        )


# ----------------------------------------------------------------------
# Bootstrap: the hospital cluster
# ----------------------------------------------------------------------
def hospital_cluster(
    backends: int = 3,
    replicas: int = 2,
    documents: int = 2,
    folders: int = 3,
    seed: int = 7,
    context: str = "smartcard",
    vnodes: int = 64,
    host: str = "127.0.0.1",
    gateway_port: int = 0,
    slow_ms: Optional[float] = None,
    trace: bool = False,
    store_dir: Optional[str] = None,
    cache_mb: Optional[int] = None,
) -> Tuple[StationCluster, List[str], List[str]]:
    """A running cluster serving ``documents`` hospital documents.

    Document 0 is the id ``"hospital"`` generated with *exactly* the
    :func:`~repro.server.service.hospital_station` defaults (same
    folders, same seed, same policies), so a view through the gateway
    can be byte-compared against a direct single-station server.
    Further documents are ``"hospital2"``, ``"hospital3"``, ... with
    shifted seeds — distinct ids spread over distinct primaries, which
    is what makes per-backend throughput/skew reporting meaningful.

    Returns ``(cluster, document ids, granted subjects)``.
    """
    from repro.datasets.hospital import (
        GROUPS,
        HospitalConfig,
        doctor_policy,
        generate_hospital,
        researcher_policy,
        secretary_policy,
    )

    cluster = StationCluster(
        replicas=replicas,
        vnodes=vnodes,
        context=context,
        host=host,
        gateway_port=gateway_port,
        slow_ms=slow_ms,
        trace=trace,
        store_dir=store_dir,
        cache_mb=cache_mb,
    )
    cluster.start_backends(backends)
    document_ids: List[str] = []
    subjects: List[str] = []
    for index in range(max(1, documents)):
        document_id = "hospital" if index == 0 else "hospital%d" % (index + 1)
        config = HospitalConfig(
            folders=folders,
            doctors=4,
            acts_per_folder=3,
            labresults_per_folder=2,
            seed=seed + index,
        )
        doctor = config.doctor_names()[0]
        policies = [
            secretary_policy(),
            doctor_policy(doctor),
            researcher_policy(GROUPS[:3]),
        ]
        placed = cluster._ring.preference(document_id, replicas)
        if store_dir is not None and placed and all(
            document_id in cluster.nodes[name].station.store for name in placed
        ):
            # Restarted persistent cluster: every preference replica
            # already holds the document at its pre-restart version —
            # re-publishing would needlessly bump the version chain.
            # Grants are derived state and are always re-applied.
            for name in placed:
                station = cluster.nodes[name].station
                for policy in policies:
                    station.grant(document_id, policy)
            with cluster._lock:
                cluster._placement[document_id] = list(placed)
                cluster._policies[document_id] = list(policies)
        else:
            tree = generate_hospital(config)
            cluster.publish(document_id, tree, policies)
        document_ids.append(document_id)
        if not subjects:
            subjects = [policy.subject for policy in policies]
    cluster.start_gateway()
    return cluster, document_ids, subjects

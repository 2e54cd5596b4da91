"""Sharded station cluster: consistent-hash gateway over N backends.

The paper's server tier is untrusted and stateless per request — the
natural unit to scale horizontally.  This package shards documents
across N :class:`~repro.server.service.StationServer` backends by
consistent hash of the document id, replicates each document to R of
them, and fronts the whole thing with a gateway speaking the ordinary
wire protocol, so existing clients work unchanged:

* :mod:`repro.cluster.ring` — the consistent-hash ring with virtual
  nodes (:class:`HashRing`): deterministic placement, minimal movement
  on membership change;
* :mod:`repro.cluster.gateway` — :class:`ClusterGateway`: routing,
  pooled FORWARD links, update replication, read failover, background
  repair with version-floor re-publication, TOPOLOGY/PING
  control frames and aggregated STATS;
* :mod:`repro.cluster.topology` — :class:`StationCluster` /
  :func:`hospital_cluster`: the in-process N-backends-plus-gateway
  bootstrap behind ``repro cluster``, the ``gateway-views`` perfbench
  workload and the failover tests.

Layering: ``repro.cluster`` sits above :mod:`repro.server`; nothing
below imports it.  The gateway is imported from its submodule (the
topology loads it in ``start_gateway``), so a process that serves a
plain station never loads it.
"""

from repro.cluster.ring import HashRing, stable_hash
from repro.cluster.topology import (
    ClusterError,
    ClusterNode,
    StationCluster,
    hospital_cluster,
)

__all__ = [
    "HashRing",
    "stable_hash",
    "StationCluster",
    "ClusterNode",
    "ClusterError",
    "hospital_cluster",
]

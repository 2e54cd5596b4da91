"""Consistent-hash ring with virtual nodes (the cluster's placement).

The partition key of the whole cluster layer is the *document id*: the
paper's server is untrusted and stateless per request, so any backend
holding a copy of the encrypted document can serve it, and the only
placement question is "which R of the N backends hold document d?".
A consistent-hash ring answers it with the two properties the gateway
needs:

* **determinism** — every component (gateway, topology bootstrap,
  tests) derives the same placement from the same member set, with no
  coordination;
* **minimal movement** — a node joining or leaving moves only the keys
  that hash between it and its ring predecessor, i.e. ~1/N of the key
  space, instead of reshuffling everything (the classic argument from
  consistent hashing; see also the warehouse auto-partitioning line of
  work in PAPERS.md).

Virtual nodes smooth the load: each member is hashed ``vnodes`` times
onto the ring, so the arc a single member owns is the union of many
small arcs and the per-member key share concentrates around 1/N.

The hash is SHA-1 over UTF-8 — stable across processes and Python
versions (``hash()`` is salted per process and would desynchronize the
gateway from the bootstrap).
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Iterable, List, Tuple


def stable_hash(data: str) -> int:
    """64-bit stable hash of ``data`` (SHA-1 prefix)."""
    return int.from_bytes(
        hashlib.sha1(data.encode("utf-8")).digest()[:8], "big"
    )


class HashRing:
    """Consistent-hash ring mapping keys to an ordered preference list.

    ``preference(key, n)`` returns the first ``n`` *distinct* members
    clockwise from the key's position: entry 0 is the primary, the
    rest are the replicas in failover order.  Removing a member makes
    the next member in the preference list the new primary for the
    keys it owned — exactly the failover the gateway performs.
    """

    def __init__(self, members: Iterable[str] = (), vnodes: int = 64):
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = vnodes
        self._points: List[Tuple[int, str]] = []
        self._hashes: List[int] = []
        self._members: Dict[str, None] = {}
        for member in members:
            self.add(member)

    # ------------------------------------------------------------------
    @property
    def members(self) -> List[str]:
        """Current members, in insertion order."""
        return list(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, member: str) -> bool:
        return member in self._members

    # ------------------------------------------------------------------
    def add(self, member: str) -> None:
        """Add ``member`` (``vnodes`` points); no-op when present."""
        if member in self._members:
            return
        self._members[member] = None
        for index in range(self.vnodes):
            point = stable_hash("%s#%d" % (member, index))
            at = bisect.bisect_left(self._hashes, point)
            # SHA-1 collisions between distinct vnode labels are not a
            # practical concern; ties break by insertion position.
            self._hashes.insert(at, point)
            self._points.insert(at, (point, member))

    def remove(self, member: str) -> None:
        """Remove ``member`` and all its points; no-op when absent."""
        if member not in self._members:
            return
        del self._members[member]
        keep = [entry for entry in self._points if entry[1] != member]
        self._points = keep
        self._hashes = [point for point, _member in keep]

    # ------------------------------------------------------------------
    def primary(self, key: str) -> str:
        """The member owning ``key`` (first clockwise point)."""
        preference = self.preference(key, 1)
        if not preference:
            raise LookupError("hash ring is empty")
        return preference[0]

    def preference(self, key: str, n: int) -> List[str]:
        """The first ``n`` distinct members clockwise from ``key``.

        Fewer than ``n`` members on the ring returns them all; an
        empty ring returns ``[]``.
        """
        if not self._points or n < 1:
            return []
        want = min(n, len(self._members))
        start = bisect.bisect_right(self._hashes, stable_hash(key))
        chosen: List[str] = []
        seen = set()
        total = len(self._points)
        for step in range(total):
            member = self._points[(start + step) % total][1]
            if member not in seen:
                seen.add(member)
                chosen.append(member)
                if len(chosen) == want:
                    break
        return chosen

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "HashRing(%d members, %d vnodes)" % (
            len(self._members),
            self.vnodes,
        )

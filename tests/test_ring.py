"""Consistent-hash ring unit tests: determinism, balance, movement."""

import pytest

from repro.cluster.ring import HashRing, stable_hash

KEYS = ["doc%d" % index for index in range(1000)]


class TestStableHash:
    def test_deterministic_across_instances(self):
        assert stable_hash("hospital") == stable_hash("hospital")
        ring_a = HashRing(["a", "b", "c"])
        ring_b = HashRing(["a", "b", "c"])
        for key in KEYS[:50]:
            assert ring_a.preference(key, 2) == ring_b.preference(key, 2)

    def test_member_order_does_not_matter(self):
        ring_a = HashRing(["a", "b", "c"])
        ring_b = HashRing(["c", "a", "b"])
        for key in KEYS[:50]:
            assert ring_a.preference(key, 2) == ring_b.preference(key, 2)


class TestMembership:
    def test_add_remove_and_contains(self):
        ring = HashRing(vnodes=8)
        assert len(ring) == 0
        ring.add("a")
        ring.add("a")  # idempotent
        assert len(ring) == 1 and "a" in ring
        ring.add("b")
        ring.remove("a")
        ring.remove("a")  # idempotent
        assert ring.members == ["b"]

    def test_empty_ring(self):
        ring = HashRing()
        assert ring.preference("key", 3) == []
        with pytest.raises(LookupError):
            ring.primary("key")

    def test_vnodes_validated(self):
        with pytest.raises(ValueError):
            HashRing(vnodes=0)


class TestPreference:
    def test_distinct_members_in_order(self):
        ring = HashRing(["a", "b", "c", "d"])
        for key in KEYS[:100]:
            preference = ring.preference(key, 3)
            assert len(preference) == 3
            assert len(set(preference)) == 3
            assert preference[0] == ring.primary(key)

    def test_capped_at_member_count(self):
        ring = HashRing(["a", "b"])
        assert sorted(ring.preference("k", 5)) == ["a", "b"]


class TestBalance:
    def test_virtual_nodes_spread_load(self):
        ring = HashRing(["a", "b", "c", "d"], vnodes=64)
        counts = {name: 0 for name in "abcd"}
        for key in KEYS:
            counts[ring.primary(key)] += 1
        # Perfect balance is 250 each; vnodes keep every member within
        # a loose band (the no-vnode extreme can be near 0 or near N).
        for name, count in counts.items():
            assert 100 <= count <= 450, counts


class TestMinimalMovement:
    def test_join_moves_about_one_nth(self):
        ring = HashRing(["a", "b", "c"], vnodes=64)
        before = {key: ring.primary(key) for key in KEYS}
        ring.add("d")
        moved = 0
        for key in KEYS:
            after = ring.primary(key)
            if after != before[key]:
                # Every moved key moves TO the joiner, never between
                # old members.
                assert after == "d"
                moved += 1
        # ~1/4 of the keys should move; allow a generous band.
        assert 100 <= moved <= 450, moved

    def test_leave_moves_only_the_lost_keys(self):
        ring = HashRing(["a", "b", "c"], vnodes=64)
        before = {key: ring.primary(key) for key in KEYS}
        ring.remove("c")
        for key in KEYS:
            if before[key] != "c":
                assert ring.primary(key) == before[key]

    def test_failover_promotes_the_replica(self):
        """Removing a member makes its keys' first replica the new
        primary — the property gateway failover relies on."""
        ring = HashRing(["a", "b", "c", "d"], vnodes=64)
        for key in KEYS[:200]:
            primary, replica = ring.preference(key, 2)
            ring.remove(primary)
            assert ring.primary(key) == replica
            ring.add(primary)

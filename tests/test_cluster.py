"""Cluster layer end-to-end: gateway routing, replication, failover.

Everything here crosses real TCP sockets: N backend
:class:`StationServer` threads plus a :class:`ClusterGateway` thread,
bootstrapped by :func:`hospital_cluster`.  The headline properties:

* a view fetched through the gateway is **byte-identical** to one from
  a direct single-station server (the acceptance criterion);
* repeat queries stay on the same backend, so the PR 4 view cache
  keeps hitting (routing composes with the cache);
* an UPDATE lands on the primary and is replicated to every holder in
  version lockstep, with exactly one INVALIDATED fanned out per
  version to the gateway's clients;
* killing the primary mid-session fails reads over to a replica with
  correct version trailers, and repair re-publishes the document onto
  the new preference node with a version floor so the PR 3 chain
  continues;
* a REBALANCE frame (type 0x0F, now unassigned) gets an ERROR while
  the gateway keeps serving, and FORWARD is refused outside an
  authenticated gateway link;
* every server keeps its own worker pool of at most one thread per
  CPU, and the gateway's republisher runs on the gateway's pool.
"""

import json
import socket
import struct
import threading
import time

import pytest

from repro.cluster.topology import hospital_cluster
from repro.engine.station import SecureStation
from repro.accesscontrol.model import AccessRule, Policy
from repro.server.client import RemoteError, RemoteSession
from repro.server.frames import worker_count
from repro.server.protocol import (
    DEFAULT_MAX_PAYLOAD,
    ERROR,
    FORWARD,
    HELLO,
    MAGIC,
    PING,
    PONG,
    QUERY,
    RESULT,
    UPDATE,
    VERSION,
    WELCOME,
    FrameDecoder,
    json_frame,
)
from repro.server.service import ServerThread, StationServer, hospital_station
from repro.skipindex.updates import UpdateOp
from repro.xmlkit.parser import parse_document

FOLDERS = 2
SUBJECTS = ("secretary", "doctor0", "researcher")


def make_cluster(backends=3, replicas=2, documents=2):
    return hospital_cluster(
        backends=backends,
        replicas=replicas,
        documents=documents,
        folders=FOLDERS,
    )


def wait_until(predicate, timeout=10.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


# ----------------------------------------------------------------------
# Serving through the gateway
# ----------------------------------------------------------------------
class TestGatewayServing:
    def test_views_byte_identical_to_direct_station(self):
        cluster, docs, subjects = make_cluster(documents=1)
        try:
            host, port = cluster.gateway_address
            station, _subjects = hospital_station(folders=FOLDERS)
            direct_server = StationServer(station)
            with ServerThread(direct_server) as (dhost, dport):
                for subject in SUBJECTS:
                    with RemoteSession(host, port, subject) as via_gateway:
                        clustered = via_gateway.evaluate("hospital")
                    with RemoteSession(dhost, dport, subject) as direct:
                        local = direct.evaluate("hospital")
                    assert clustered.data == local.data, subject
                    assert clustered.trailer["failover"] == 0
        finally:
            cluster.stop()

    def test_routing_composes_with_view_cache_and_stats(self):
        cluster, docs, subjects = make_cluster()
        try:
            host, port = cluster.gateway_address
            with RemoteSession(host, port, "secretary") as session:
                first = session.evaluate("hospital")
                second = session.evaluate("hospital")
                assert not first.cached
                assert second.cached  # same backend -> view-cache hit
                assert second.data == first.data
                topology = session.topology()
                primary = topology["documents"]["hospital"]["primary"]
                assert first.trailer["backend"] == primary
                assert second.trailer["backend"] == primary
                # Placement respects R and the (deterministic) ring.
                for doc in docs:
                    entry = topology["documents"][doc]
                    assert len(entry["nodes"]) == 2
                    assert entry["primary"] in entry["nodes"]
                # Aggregated stats: per-backend counters + summed
                # station counters from every live backend.
                stats = session.stats()
                assert stats["role"] == "gateway"
                assert set(stats["per_backend"]) == set(cluster.nodes)
                assert stats["station"]["view_hits"] >= 1
                assert stats["server"]["forwards"] >= 2
                served = sum(
                    entry["requests"]
                    for entry in stats["per_backend"].values()
                )
                assert served == 2
                # Health probes answer on both tiers.
                pong = session.ping()
                assert pong["ok"] and pong["role"] == "gateway"
                assert pong["documents"]["hospital"] == 0
            node = next(iter(cluster.nodes.values()))
            with RemoteSession(*node.address, "secretary") as backend:
                pong = backend.ping()
                assert pong["ok"] and pong["role"] == "station"
        finally:
            cluster.stop()

    def test_structured_errors_pass_through(self):
        cluster, docs, subjects = make_cluster(documents=1)
        try:
            host, port = cluster.gateway_address
            with RemoteSession(host, port, "secretary") as session:
                with pytest.raises(RemoteError) as excinfo:
                    session.evaluate("no-such-document")
                assert excinfo.value.code in ("unknown-document", "unavailable")
            with RemoteSession(host, port, "nobody") as session:
                with pytest.raises(RemoteError) as excinfo:
                    session.evaluate("hospital")
                assert excinfo.value.code == "no-grant"
        finally:
            cluster.stop()


# ----------------------------------------------------------------------
# Updates: primary routing, replication, invalidation fan-out
# ----------------------------------------------------------------------
class TestClusterUpdates:
    def test_update_replicates_in_version_lockstep(self):
        cluster, docs, subjects = make_cluster(documents=1)
        try:
            host, port = cluster.gateway_address
            watcher = RemoteSession(host, port, "doctor0")
            before = watcher.evaluate("hospital")
            with RemoteSession(host, port, "secretary") as session:
                op = UpdateOp(
                    "insert_element",
                    [],
                    node=parse_document(
                        "<Folder><Admin><SSN>replicated</SSN></Admin></Folder>"
                    ),
                )
                trailer = session.update("hospital", op)
            assert trailer["version"] == 1
            assert trailer["replicas"] == 2  # primary + one replica
            with RemoteSession(host, port, "@admin") as control:
                topology = control.topology()
            entry = topology["documents"]["hospital"]
            assert trailer["backend"] == entry["primary"]
            # Every holder applied the same op: version lockstep.
            for name in entry["nodes"]:
                station = cluster.nodes[name].station
                assert station.document_version("hospital") == 1
            # An INVALIDATED reached the watcher, and its next view is
            # the new version.
            assert wait_until(lambda: watcher.poll_notifications() > 0)
            assert watcher.document_versions["hospital"] == 1
            after = watcher.evaluate("hospital")
            assert after.trailer["version"] == 1
            assert before.trailer["version"] == 0
            watcher.close()
            # A subject whose policy admits the new folder sees it, at
            # the new version, through the gateway.
            with RemoteSession(host, port, "secretary") as reader:
                fresh = reader.evaluate("hospital")
            assert fresh.trailer["version"] == 1
            assert b"replicated" in fresh.data
        finally:
            cluster.stop()

    def test_update_requires_grant_through_gateway(self):
        cluster, docs, subjects = make_cluster(documents=1)
        try:
            host, port = cluster.gateway_address
            with RemoteSession(host, port, "nobody") as session:
                op = UpdateOp(
                    "insert_element",
                    [],
                    node=parse_document("<Folder>nope</Folder>"),
                )
                with pytest.raises(RemoteError) as excinfo:
                    session.update("hospital", op)
                assert excinfo.value.code == "no-grant"
        finally:
            cluster.stop()

    def test_bad_update_op_keeps_every_backend(self):
        # The op is checked by the backend, which answers on the
        # gateway's pooled link; that link must stay usable, or the next
        # request on it would mark a healthy backend dead.
        cluster, docs, subjects = make_cluster(backends=2, documents=1)
        try:
            host, port = cluster.gateway_address
            with RemoteSession(host, port, "secretary") as session:
                with pytest.raises(RemoteError) as excinfo:
                    session.update("hospital", {"kind": "bogus", "path": []})
                assert excinfo.value.code == "bad-frame"
                for _ in range(2 * cluster.gateway.pool_size):
                    assert session.evaluate("hospital").trailer["failover"] == 0
            assert cluster.gateway.stats["backends_lost"] == 0
            assert all(b.alive for b in cluster.gateway.backends.values())
        finally:
            cluster.stop()


    def test_oversize_document_id_is_a_bad_frame(self):
        # Each request fills a client frame to the limit, so the FORWARD
        # frame the gateway builds from it (which adds kind and subject)
        # does not fit.  That is the client's fault: it gets bad-frame,
        # and no backend is tried, let alone marked dead.
        cluster, docs, subjects = make_cluster(backends=2, documents=1)
        op = {"kind": "update_text", "path": [0], "text": "y"}
        requests = (
            (QUERY, {"document": ""}),
            (UPDATE, {"document": "", "op": op}),
        )
        address = cluster.gateway_address
        try:
            decoder = FrameDecoder()
            with socket.create_connection(address, timeout=30) as sock:

                def reply():
                    frames = []
                    while not frames:
                        data = sock.recv(65536)
                        assert data, "gateway closed the connection"
                        frames.extend(decoder.feed(data))
                    assert len(frames) == 1
                    return frames[0]

                sock.sendall(json_frame(HELLO, 0, {"subject": "secretary"}))
                reply()  # WELCOME
                for ftype, body in requests:
                    empty = json.dumps(body, separators=(",", ":"))
                    fill = DEFAULT_MAX_PAYLOAD - len(empty)
                    body = dict(body, document="x" * fill)
                    sock.sendall(json_frame(ftype, 0, body))
                    error = reply()
                    assert error.type == ERROR
                    assert error.json()["code"] == "bad-frame"
                    assert len(error.payload) < 200  # the id is not echoed
            assert cluster.gateway.stats["backends_lost"] == 0
            assert all(b.alive for b in cluster.gateway.backends.values())
            with RemoteSession(*address, "secretary") as session:
                assert session.evaluate("hospital").trailer["failover"] == 0
        finally:
            cluster.stop()


    def test_error_echoing_an_oversize_id_fits_a_frame(self):
        # The FORWARD frame fits, but with every backend dead the
        # "no live replica can serve %r" ERROR would not, uncut.
        cluster, docs, subjects = make_cluster(backends=2, documents=1)
        try:
            for name in list(cluster.nodes):
                cluster.kill_backend(name)
            decoder = FrameDecoder()
            with socket.create_connection(cluster.gateway_address, timeout=30) as sock:

                def reply():
                    frames = []
                    while not frames:
                        data = sock.recv(65536)
                        assert data, "gateway closed the connection"
                        frames.extend(decoder.feed(data))
                    assert len(frames) == 1
                    return frames[0]

                sock.sendall(json_frame(HELLO, 0, {"subject": "secretary"}))
                reply()  # WELCOME
                big = "x" * (DEFAULT_MAX_PAYLOAD - 100)
                sock.sendall(json_frame(QUERY, 0, {"document": big}))
                error = reply()
                assert error.type == ERROR
                assert error.json()["code"] == "unavailable"
                assert len(error.payload) < 2048
                sock.sendall(json_frame(PING, 0, {}))
                assert reply().type == PONG
        finally:
            cluster.stop()


# ----------------------------------------------------------------------
# Failover: kill the primary mid-session
# ----------------------------------------------------------------------
class TestFailover:
    def test_kill_primary_mid_session_completes_on_replica(self):
        cluster, docs, subjects = make_cluster(documents=1)
        try:
            host, port = cluster.gateway_address
            with RemoteSession(host, port, "secretary") as session:
                before = session.evaluate("hospital")
                assert before.trailer["failover"] == 0
                primary = cluster.primary_of("hospital")
                cluster.kill_backend(primary)
                # Same session, same in-flight client: the gateway must
                # absorb the dead primary and serve from a replica.
                after = session.evaluate("hospital")
                assert after.data == before.data
                assert after.trailer["failover"] == 1
                assert after.trailer["backend"] != primary
                assert after.trailer["version"] == before.trailer["version"]

                # Repair: the document is re-published onto the new
                # preference node, back to full replication.
                def repaired():
                    entry = session.topology()["documents"]["hospital"]
                    return (
                        len(entry["nodes"]) == 2
                        and primary not in entry["nodes"]
                    )

                assert wait_until(repaired)
        finally:
            cluster.stop()

    def test_kill_primary_under_concurrent_load_loses_no_request(self):
        cluster, docs, subjects = make_cluster(backends=3, replicas=2)
        workers, queries, kill_after = 4, 12, 4
        try:
            host, port = cluster.gateway_address
            expected = {}
            for subject in subjects:
                with RemoteSession(host, port, subject) as session:
                    for doc in docs:
                        expected[doc, subject] = session.evaluate(doc).data
            primary = cluster.primary_of(docs[0])
            barrier = threading.Barrier(workers)
            failures, served_by = [], []

            def worker(index):
                sessions = {
                    subject: RemoteSession(
                        host, port, subject, auto_reconnect=True
                    )
                    for subject in subjects
                }
                try:
                    for i in range(queries):
                        if i == kill_after:
                            # Every worker is mid-run; one kills the
                            # primary while the others resume querying.
                            barrier.wait(timeout=30)
                            if index == 0:
                                cluster.kill_backend(primary)
                        # i -> (document, subject) covers all six pairs.
                        doc = docs[i % len(docs)]
                        subject = subjects[(index + i) % len(subjects)]
                        result = sessions[subject].evaluate(doc)
                        if result.data != expected[doc, subject]:
                            failures.append((index, i, doc, subject))
                        served_by.append(result.trailer["backend"])
                except Exception as exc:  # noqa: BLE001 - collected for assert
                    barrier.abort()
                    failures.append((index, repr(exc)))
                finally:
                    for session in sessions.values():
                        session.close()

            threads = [
                threading.Thread(target=worker, args=(index,))
                for index in range(workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            # A backend died mid-run and no client ever saw it.
            assert not failures
            assert len(served_by) == workers * queries
            assert not cluster.nodes[primary].alive
            stats = cluster.gateway.stats
            assert stats["backends_lost"] >= 1
            assert stats["errors"] == 0
            # Routing spread the two documents over at least two backends.
            assert len(set(served_by)) >= 2

            # Repair restored full replication on the survivors.
            def repaired():
                with RemoteSession(host, port, "@admin") as admin:
                    placement = admin.topology()["documents"]
                return all(
                    len(placement[doc]["nodes"]) == 2
                    and primary not in placement[doc]["nodes"]
                    for doc in docs
                )

            assert wait_until(repaired)
        finally:
            cluster.stop()

    def test_version_chain_continues_after_failover_republish(self):
        cluster, docs, subjects = make_cluster(documents=1)
        try:
            host, port = cluster.gateway_address
            with RemoteSession(host, port, "secretary") as session:
                # Advance the chain to version 2 before the failure.
                for index in range(2):
                    op = UpdateOp(
                        "insert_element",
                        [],
                        node=parse_document("<Folder>v%d</Folder>" % index),
                    )
                    trailer = session.update("hospital", op)
                assert trailer["version"] == 2
                primary = cluster.primary_of("hospital")
                cluster.kill_backend(primary)
                survived = session.evaluate("hospital")
                assert survived.trailer["version"] == 2

                def repaired():
                    entry = session.topology()["documents"]["hospital"]
                    return len(entry["nodes"]) == 2

                assert wait_until(repaired)
                entry = session.topology()["documents"]["hospital"]
                replacement = [
                    name
                    for name in entry["nodes"]
                    if name != survived.trailer["backend"]
                ]
                # The re-published copy continued the chain: its
                # version (and encryption floor) is >= the version
                # clients already saw — never a restart from 0.
                for name in entry["nodes"]:
                    station = cluster.nodes[name].station
                    assert station.document_version("hospital") >= 2
                    assert station.document("hospital").secure.version >= 2
                assert replacement, entry
                # And the next update keeps counting from there, in
                # lockstep across old and new holders.
                op = UpdateOp(
                    "insert_element",
                    [],
                    node=parse_document("<Folder>post-failover</Folder>"),
                )
                trailer = session.update("hospital", op)
                assert trailer["version"] == 3
                assert trailer["replicas"] == 2
                for name in entry["nodes"]:
                    station = cluster.nodes[name].station
                    assert station.document_version("hospital") == 3
        finally:
            cluster.stop()

    def test_reads_survive_down_to_last_replica(self):
        cluster, docs, subjects = make_cluster(documents=1)
        try:
            host, port = cluster.gateway_address
            with RemoteSession(host, port, "secretary") as session:
                before = session.evaluate("hospital")
                # Kill every backend except one *holder* — including
                # the primary — leaving a single live replica.
                keep = session.topology()["documents"]["hospital"][
                    "nodes"
                ][-1]
                for node in list(cluster.live_nodes()):
                    if node.name != keep:
                        cluster.kill_backend(node.name)
                after = session.evaluate("hospital")
                assert after.data == before.data
                assert after.trailer["backend"] == keep
        finally:
            cluster.stop()


# ----------------------------------------------------------------------
# Worker pools, and the retired REBALANCE frame
# ----------------------------------------------------------------------
class TestRebalance:
    def test_each_server_keeps_its_own_bounded_pool(self):
        from test_server import pool_threads

        cluster, docs, subjects = make_cluster(backends=3, replicas=2)
        gateway = cluster.gateway
        republished_on = []
        republisher = gateway.republisher

        def recording(*args):
            republished_on.append(threading.current_thread().name)
            return republisher(*args)

        gateway.republisher = recording
        servers = [gateway] + [node.server for node in cluster.nodes.values()]

        errors = []
        pools = {}

        def client(index):
            try:
                with RemoteSession(*cluster.gateway_address, "secretary") as session:
                    for doc in docs:
                        session.evaluate(doc)
                    if index == 0:
                        op = UpdateOp(
                            "insert_element",
                            [],
                            node=parse_document("<Folder>pool</Folder>"),
                        )
                        session.update(docs[0], op)
            except Exception as exc:  # surfaced below
                errors.append(exc)

        workers = [threading.Thread(target=client, args=(i,)) for i in range(8)]
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(60)
            assert not any(worker.is_alive() for worker in workers)
            assert not errors, errors
            # A killed holder, found dead by the next read, makes the
            # repair pass run the republisher.
            cluster.kill_backend(cluster.primary_of(docs[0]))
            with RemoteSession(*cluster.gateway_address, "secretary") as session:
                session.evaluate(docs[0])
            assert wait_until(lambda: republished_on)
            assert all(
                name.startswith(gateway.worker_prefix + "_")
                for name in republished_on
            ), republished_on
            pools = {server.worker_prefix: pool_threads(server) for server in servers}
            for prefix, pool in pools.items():
                assert len(pool) <= worker_count(), prefix
        finally:
            cluster.stop()
        for pool in pools.values():
            assert not any(thread.is_alive() for thread in pool)
        assert not any(pool_threads(server) for server in servers)

    def test_rebalance_frame_is_refused_and_the_gateway_keeps_serving(self):
        cluster, docs, subjects = make_cluster(backends=2)
        try:
            address = cluster.gateway_address
            # What a REBALANCE leave looked like on the wire; json_frame
            # refuses the unassigned type, so the header is built here.
            body = json.dumps({"action": "leave", "name": "node0"}).encode()
            header = struct.pack("!BBBII", MAGIC, VERSION, 0x0F, 0, len(body))
            decoder = FrameDecoder()
            frames = []
            with socket.create_connection(address, timeout=10) as sock:
                sock.sendall(json_frame(HELLO, 0, {"subject": "@admin"}))
                while not frames:
                    frames.extend(decoder.feed(sock.recv(65536)))
                sock.sendall(header + body)
                while frames[-1].type != ERROR:
                    data = sock.recv(65536)
                    assert data, "connection closed without an ERROR"
                    frames.extend(decoder.feed(data))
            assert [frame.type for frame in frames] == [WELCOME, ERROR]
            assert frames[1].json()["code"] == "bad-frame"
            with RemoteSession(*address, "secretary") as session:
                for doc in docs:
                    assert session.evaluate(doc).data
                topology = session.topology()
            assert all(entry["alive"] for entry in topology["backends"].values())
            assert len(topology["documents"][docs[0]]["nodes"]) == 2
        finally:
            cluster.stop()


# ----------------------------------------------------------------------
# FORWARD authentication + version floor + reconnect
# ----------------------------------------------------------------------
class TestForwardSecurity:
    def _forward_as(self, address, hello):
        """HELLO with ``hello``, then a FORWARD; returns the reply frame."""
        decoder = FrameDecoder()
        with socket.create_connection(address, timeout=10) as sock:
            sock.sendall(json_frame(1, 0, hello))  # HELLO
            frames = []
            while not frames:
                frames.extend(decoder.feed(sock.recv(65536)))
            welcome = frames.pop(0)
            sock.sendall(
                json_frame(
                    FORWARD,
                    0,
                    {
                        "kind": "query",
                        "subject": "secretary",
                        "document": "hospital",
                    },
                )
            )
            while not any(f.type in (RESULT, ERROR) for f in frames):
                data = sock.recv(65536)
                if not data:
                    return welcome, None
                frames.extend(decoder.feed(data))
            return welcome, [
                f for f in frames if f.type in (RESULT, ERROR)
            ][0]

    def test_forward_refused_without_gateway_role(self):
        station, subjects = hospital_station(folders=FOLDERS)
        server = StationServer(station, allow_forward=True)
        with ServerThread(server) as address:
            welcome, reply = self._forward_as(
                address, {"subject": "someone"}
            )
            assert not welcome.json()["gateway"]
            assert reply is not None and reply.type == ERROR
            assert reply.json()["code"] == "protocol"

    def test_forward_refused_when_server_disallows(self):
        station, subjects = hospital_station(folders=FOLDERS)
        server = StationServer(station)  # allow_forward off (default)
        with ServerThread(server) as address:
            welcome, reply = self._forward_as(
                address, {"subject": "gw", "gateway": True}
            )
            # The role is silently not granted, so FORWARD is refused.
            assert not welcome.json()["gateway"]
            assert reply is not None and reply.type == ERROR

    def test_forward_serves_with_gateway_role(self):
        station, subjects = hospital_station(folders=FOLDERS)
        server = StationServer(station, allow_forward=True)
        with ServerThread(server) as address:
            welcome, reply = self._forward_as(
                address, {"subject": "gw", "gateway": True}
            )
            assert welcome.json()["gateway"]
            assert reply is not None and reply.type == RESULT
            trailer = reply.json()
            assert trailer["subject"] == "secretary"
            assert trailer["version"] == 0


class TestVersionFloor:
    def test_publish_fresh_document_at_floor(self):
        station = SecureStation()
        station.publish(
            "doc", parse_document("<a><b>x</b></a>"), version_floor=5
        )
        assert station.document_version("doc") == 5
        # The encryption version (bound into every chunk MAC) starts
        # at the floor too: pre-floor records can never verify here.
        assert station.document("doc").secure.version == 5
        station.grant(
            "doc", Policy([AccessRule("+", "//a")], subject="alice")
        )
        op = UpdateOp("update_text", [0], text="y")
        result = station.update("doc", op)
        assert result.version == 6

    def test_floor_applies_to_prepared_republication(self):
        station = SecureStation()
        prepared = station.publish("doc", parse_document("<a>1</a>"))
        other = SecureStation()
        other.publish("doc", prepared, version_floor=3)
        assert other.document_version("doc") == 3

    def test_floor_zero_is_the_old_behavior(self):
        station = SecureStation()
        station.publish("doc", parse_document("<a>1</a>"))
        assert station.document_version("doc") == 0


class TestAutoReconnect:
    def test_transparent_reconnect_preserves_api(self):
        station, subjects = hospital_station(folders=FOLDERS)
        thread = ServerThread(StationServer(station))
        host, port = thread.start()
        session = RemoteSession(
            host, port, "secretary", auto_reconnect=True
        )
        try:
            before = session.evaluate("hospital")
            thread.stop()
            # Same station, same port: the "server restarted" scenario.
            thread = ServerThread(StationServer(station, port=port))
            thread.start()
            after = session.evaluate("hospital")
            assert after.data == before.data
            assert session.reconnects == 1
        finally:
            session.close()
            thread.stop()

    def test_without_opt_in_the_error_surfaces(self):
        station, subjects = hospital_station(folders=FOLDERS)
        thread = ServerThread(StationServer(station))
        host, port = thread.start()
        session = RemoteSession(host, port, "secretary")
        try:
            session.evaluate("hospital")
            thread.stop()
            with pytest.raises((ConnectionError, OSError)):
                session.evaluate("hospital")
        finally:
            session.close()

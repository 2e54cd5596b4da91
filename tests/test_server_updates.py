"""Live updates over the wire: UPDATE / INVALIDATED frames, client
cache invalidation and transparent re-fetch (`repro.server` + the
station's update path)."""

import time

import pytest

from repro.accesscontrol.model import AccessRule, Policy
from repro.engine import SecureStation
from repro.server import protocol
from repro.server.client import RemoteError, RemoteSession
from repro.server.protocol import (
    INVALIDATED,
    UPDATE,
    FrameDecoder,
    encode_frame,
    json_frame,
)
from repro.server.service import ServerThread, StationServer
from repro.skipindex.updates import UpdateOp

DOC = (
    "<db>"
    + "".join(
        "<rec><id>%04d</id><val>value-%04d</val></rec>" % (i, i)
        for i in range(40)
    )
    + "</db>"
)


def build_station():
    station = SecureStation()
    station.publish("db", DOC)
    station.grant(
        "db", Policy([AccessRule("+", "//db")], subject="alice")
    )
    station.grant(
        "db", Policy([AccessRule("+", "//db")], subject="bob")
    )
    return station


@pytest.fixture()
def live_server():
    station = build_station()
    server = StationServer(station, chunk_size=512)
    thread = ServerThread(server)
    host, port = thread.start()
    yield station, server, host, port
    thread.stop()


def wait_for(predicate, timeout=5.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


# ----------------------------------------------------------------------
# Wire format
# ----------------------------------------------------------------------
class TestUpdateFrames:
    def test_update_frame_round_trip(self):
        op = UpdateOp.set_text([3, 1], "changed").as_dict()
        data = json_frame(UPDATE, 9, {"document": "db", "op": op})
        frames = FrameDecoder().feed(data)
        assert len(frames) == 1
        body = frames[0].json()
        assert body["document"] == "db"
        assert UpdateOp.from_dict(body["op"]).kind == "update_text"

    def test_invalidated_frame_round_trip(self):
        data = json_frame(INVALIDATED, 0, {"document": "db", "version": 4})
        frame = FrameDecoder().feed(data)[0]
        assert frame.type_name == "INVALIDATED"
        assert frame.json() == {"document": "db", "version": 4}

    def test_new_types_encodable(self):
        for ftype in (UPDATE, INVALIDATED):
            assert ftype in protocol.TYPE_NAMES
            encode_frame(ftype, 0, b"{}")


# ----------------------------------------------------------------------
# End to end
# ----------------------------------------------------------------------
class TestRemoteUpdate:
    def test_update_round_trip_reports_reencryption(self, live_server):
        station, server, host, port = live_server
        with RemoteSession(host, port, "alice") as session:
            before = session.evaluate("db")
            assert "value-0005" in before.text
            trailer = session.update(
                "db", UpdateOp.set_text([5, 1], "CHANGED-05")
            )
            assert trailer["version"] == 1
            summary = trailer["update"]
            assert summary["chunks_reencrypted"] <= summary["total_chunks"]
            assert summary["reencrypted_bytes"] > 0
            after = session.evaluate("db")
            assert "CHANGED-05" in after.text
            assert "value-0005" not in after.text
        assert station.document_version("db") == 1
        assert server.stats["updates"] == 1

    def test_other_clients_get_invalidated_and_refetch(self, live_server):
        _station, server, host, port = live_server
        with RemoteSession(host, port, "alice") as alice:
            with RemoteSession(host, port, "bob") as bob:
                first = alice.evaluate("db")
                assert alice.document_versions["db"] == 0

                bob.update("db", UpdateOp.set_text([7, 1], "HOT-UPDATE"))
                # The INVALIDATED push arrives asynchronously; poll
                # until the client has processed it.
                assert wait_for(
                    lambda: alice.poll_notifications() > 0
                    or alice.document_versions.get("db", 0) >= 1
                ), "INVALIDATED push never arrived"
                assert alice.invalidations_seen >= 1
                assert alice.document_versions["db"] == 1
                # The next evaluate re-fetches and sees the new view.
                refreshed = alice.evaluate("db")
                assert "HOT-UPDATE" not in first.text
                assert "HOT-UPDATE" in refreshed.text
                assert refreshed.trailer["version"] == 1
        assert server.stats["invalidations"] >= 1

    def test_version_travels_in_result_trailer(self, live_server):
        _station, _server, host, port = live_server
        with RemoteSession(host, port, "alice") as session:
            first = session.evaluate("db")
            assert first.trailer["version"] == 0
            session.update("db", UpdateOp.set_text([0, 1], "X-00"))
            second = session.evaluate("db")
            assert second.trailer["version"] == 1
            assert session.document_versions["db"] == 1

    def test_ungranted_subject_cannot_update(self, live_server):
        station, server, host, port = live_server
        before = station.document("db").encoded.data
        with RemoteSession(host, port, "mallory") as session:
            with pytest.raises(RemoteError) as err:
                session.update("db", UpdateOp.set_text([0, 1], "PWNED"))
            assert err.value.code == "no-grant"
        assert station.document_version("db") == 0
        assert station.document("db").encoded.data == before
        assert server.stats["updates"] == 0

    def test_mid_query_invalidation_never_pins_a_stale_view(self, live_server):
        """A RESULT carrying an older version than an already-consumed
        INVALIDATED push must not roll the known version back."""
        _station, _server, host, port = live_server
        with RemoteSession(host, port, "alice") as session:
            # Simulate the mid-query push arriving first.
            session._note_version("db", 5)
            result = session.evaluate("db")  # server is still at v0
            assert result.trailer["version"] == 0
            assert session.document_versions["db"] == 5

    def test_update_unknown_document_is_structured_error(self, live_server):
        _station, _server, host, port = live_server
        with RemoteSession(host, port, "alice") as session:
            with pytest.raises(RemoteError) as err:
                session.update("nope", UpdateOp.set_text([0], "x"))
            assert err.value.code == "unknown-document"

    def test_update_bad_path_is_structured_error(self, live_server):
        _station, _server, host, port = live_server
        with RemoteSession(host, port, "alice") as session:
            with pytest.raises(RemoteError) as err:
                session.update("db", UpdateOp.set_text([999], "x"))
            assert err.value.code in ("update", "internal")

    def test_readonly_server_refuses_updates(self):
        station = build_station()
        server = StationServer(station, allow_updates=False)
        with ServerThread(server) as (host, port):
            with RemoteSession(host, port, "alice") as session:
                with pytest.raises(RemoteError) as err:
                    session.update("db", UpdateOp.set_text([0, 1], "x"))
                assert err.value.code == "limit"
                # Reads still work.
                assert session.evaluate("db").text
        assert station.document_version("db") == 0


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestUpdateCli:
    def test_update_command(self, live_server, capsys):
        from repro.cli import main

        station, _server, host, port = live_server
        rc = main(
            [
                "update",
                "%s:%d" % (host, port),
                "db",
                "--subject",
                "alice",
                "--kind",
                "update-text",
                "--path",
                "3,1",
                "--text",
                "CLI-EDIT",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "version 1" in out
        assert station.document_version("db") == 1
        from repro.xmlkit.serializer import serialize_events

        assert "CLI-EDIT" in serialize_events(
            station.evaluate("db", "alice").events
        )

    def test_update_command_rejects_bad_kind_args(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(
                [
                    "update",
                    "127.0.0.1:1",
                    "db",
                    "--kind",
                    "update-text",
                    "--path",
                    "0",
                    # --text missing
                ]
            )

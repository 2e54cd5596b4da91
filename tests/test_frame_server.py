"""The wire conversation every frame server holds, pinned at the socket.

A :class:`~repro.server.service.StationServer` and a
:class:`~repro.cluster.gateway.ClusterGateway` speak the same protocol
to their clients.  Each case below sends raw frames and asserts the
exact replies — frame type, ERROR ``code`` and ``message``, session id
— and whether the server then closes the connection.

Every case ends its frames with a PING and a BYE.  A server that kept
the connection open answers the PING with a PONG and closes on the
BYE; one that closed it earlier answers neither.  The frames go out in
one ``sendall`` so the server reads them all before it closes, and the
client sees a clean end of stream rather than a reset.
"""

import socket

import pytest

from repro.cluster.topology import hospital_cluster
from repro.server.protocol import (
    BYE,
    ERROR,
    FORWARD,
    HELLO,
    PING,
    PONG,
    QUERY,
    TOPOLOGY_REQUEST,
    UPDATE,
    WELCOME,
    FrameDecoder,
    json_frame,
)
from repro.server.service import ServerThread, StationServer, hospital_station

ENDPOINTS = ("station", "gateway")

#: The frame type each endpoint does not serve, and the ERROR message
#: it answers with after HELLO.
UNSERVED = {
    "station": (
        TOPOLOGY_REQUEST,
        "unexpected TOPOLOGY_REQUEST frame from client",
    ),
    "gateway": (FORWARD, "unexpected FORWARD frame at the gateway"),
}


@pytest.fixture(scope="module", params=ENDPOINTS)
def endpoint(request):
    """``(role, (host, port))`` of a running station or gateway."""
    if request.param == "station":
        station, _subjects = hospital_station(folders=1, seed=11)
        thread = ServerThread(StationServer(station))
        address = thread.start()
        yield "station", address
        thread.stop()
    else:
        cluster, _documents, _subjects = hospital_cluster(
            backends=2, replicas=2, documents=1, folders=1
        )
        try:
            yield "gateway", cluster.gateway_address
        finally:
            cluster.stop()


def converse(address, *frames):
    """Send ``frames`` then PING and BYE in one write; return every
    frame the server sends until it closes the connection."""
    wire = b"".join(frames) + json_frame(PING, 0, {}) + json_frame(BYE, 0, {})
    decoder = FrameDecoder()
    replies = []
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(wire)
        while True:
            data = sock.recv(65536)
            if not data:
                return replies
            replies.extend(decoder.feed(data))


def hello(subject="secretary"):
    return json_frame(HELLO, 0, {"subject": subject})


def assert_error(frame, code, message, session=0):
    assert frame.type == ERROR, frame
    assert frame.json() == {"code": code, "message": message}
    assert frame.session == session


def assert_closed(replies, count):
    """The server closed after ``count`` replies: the PING went unanswered."""
    assert len(replies) == count, [f.type_name for f in replies]
    assert all(frame.type != PONG for frame in replies)


class TestConversation:
    def test_garbage_bytes_get_bad_frame_and_close(self, endpoint):
        _role, address = endpoint
        replies = converse(address, b"\x00" * 32)
        assert_closed(replies, 1)
        assert_error(replies[0], "bad-frame", "bad magic byte 0x00")

    def test_query_before_hello_is_refused_and_closes(self, endpoint):
        _role, address = endpoint
        replies = converse(address, json_frame(QUERY, 0, {"document": "hospital"}))
        assert_closed(replies, 1)
        assert_error(replies[0], "protocol", "first frame must be HELLO")

    def test_duplicate_hello_is_refused_and_closes(self, endpoint):
        _role, address = endpoint
        replies = converse(address, hello(), hello())
        assert_closed(replies, 2)
        welcome = replies[0]
        assert welcome.type == WELCOME
        assert welcome.json()["subject"] == "secretary"
        session = welcome.json()["session"]
        assert session > 0 and welcome.session == session
        assert_error(replies[1], "protocol", "duplicate HELLO", session)

    def test_hello_without_subject_is_bad_frame(self, endpoint):
        _role, address = endpoint
        replies = converse(address, json_frame(HELLO, 0, {"name": "secretary"}))
        assert_closed(replies, 1)
        assert_error(replies[0], "bad-frame", "HELLO payload must carry a subject")

    def test_unserved_frame_type_is_a_protocol_error(self, endpoint):
        role, address = endpoint
        ftype, message = UNSERVED[role]
        replies = converse(address, hello(), json_frame(ftype, 0, {}))
        assert_closed(replies, 2)
        assert replies[0].type == WELCOME
        assert_error(replies[1], "protocol", message, replies[0].session)

    def test_bye_closes_without_a_reply(self, endpoint):
        _role, address = endpoint
        replies = converse(address, hello(), json_frame(BYE, 0, {}))
        assert_closed(replies, 1)
        assert replies[0].type == WELCOME

    def test_ping_is_served_before_hello(self, endpoint):
        role, address = endpoint
        replies = converse(address, json_frame(PING, 0, {}))
        # Both PINGs answered: the connection stayed open until BYE.
        assert [frame.type for frame in replies] == [PONG, PONG]
        for pong in replies:
            body = pong.json()
            assert pong.session == 0
            assert body["ok"] is True and body["role"] == role
            assert body["documents"] == {"hospital": 0}



class TestMalformedFieldTypes:
    """Fields of the wrong JSON type get ``bad-frame`` and a close on
    both endpoints, never an internal error or a dropped socket."""

    @pytest.mark.parametrize(
        "frame, message",
        [
            (
                json_frame(QUERY, 0, {"document": 7}),
                "QUERY payload must carry a document",
            ),
            (
                json_frame(QUERY, 0, {"document": "hospital", "query": 5}),
                "QUERY payload must carry a document",
            ),
            (
                json_frame(UPDATE, 0, {"document": [1], "op": {}}),
                "UPDATE payload must carry a document",
            ),
        ],
        ids=["query-document", "query-query", "update-document"],
    )
    def test_mistyped_request_field_is_bad_frame(self, endpoint, frame, message):
        _role, address = endpoint
        replies = converse(address, hello(), frame)
        assert_closed(replies, 2)
        assert replies[0].type == WELCOME
        assert_error(replies[1], "bad-frame", message, replies[0].session)

    def test_mistyped_subject_is_bad_frame(self, endpoint):
        _role, address = endpoint
        replies = converse(address, json_frame(HELLO, 0, {"subject": 7}))
        assert_closed(replies, 1)
        assert_error(replies[0], "bad-frame", "HELLO payload must carry a subject")

    def test_server_keeps_serving_after_malformed_frames(self, endpoint):
        _role, address = endpoint
        converse(address, hello(), json_frame(QUERY, 0, {"document": 7}))
        replies = converse(address, hello())
        assert [frame.type for frame in replies] == [WELCOME, PONG]

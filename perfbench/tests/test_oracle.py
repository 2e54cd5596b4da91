"""The oracle accepts the station's views and rejects wrong or stale ones."""

from types import SimpleNamespace

import repro
from repro import PublishOptions, UpdateOp

from perfbench.client import Client, Phase
from perfbench.oracle import Oracle
from perfbench.workloads import WORKLOADS, documents, editable_leaves, policies


def _published():
    doc = documents(WORKLOADS["write-mix"], seed=3)[0]
    station = repro.open_station()
    station.publish(doc.id, doc.xml, PublishOptions(scheme=doc.scheme, index=True))
    for policy in policies().values():
        station.grant(doc.id, policy)
    return station, doc, Oracle({doc.id: doc.xml}, policies())


def _view(station, doc, subject, query=None):
    stream = station.stream(doc.id, subject, query=query)
    return stream.result.document_version, stream.payload


def test_station_views_match_the_model_and_a_flipped_byte_does_not():
    station, doc, oracle = _published()
    for subject in policies():
        for query in (None, "//Folder/Admin/Age"):
            version, data = _view(station, doc, subject, query)
            assert oracle.check(doc.id, subject, query, version, data)
    version, data = _view(station, doc, "doctor0")
    flipped = bytearray(data)
    flipped[len(flipped) // 2] ^= 0x01
    assert not oracle.check(doc.id, "doctor0", None, version, bytes(flipped))
    station.close()


def test_stale_views_are_rejected():
    station, doc, oracle = _published()
    _version, before = _view(station, doc, "secretary")
    path, text = next(
        (path, text)
        for path, text in editable_leaves(doc.xml)
        if len(path) == 3 and text.isdigit()  # a Folder/Admin leaf
    )
    op = UpdateOp.set_text(path, "9" * len(text))
    version = station.update(doc.id, op).version
    assert oracle.acknowledge(doc.id, version, op)
    assert not oracle.acknowledge(doc.id, version, op)  # one op per version
    _version, after = _view(station, doc, "secretary")
    assert after != before
    assert oracle.check(doc.id, "secretary", None, version, after)
    # The pre-update bytes labelled with the new version are stale.
    assert not oracle.check(doc.id, "secretary", None, version, before)
    # A version no acknowledged update produced cannot be checked.
    assert not oracle.check(doc.id, "secretary", None, version + 1, after)
    station.close()


class _Session:
    def __init__(self, versions):
        self.versions = iter(versions)

    def evaluate(self, document, query):
        return SimpleNamespace(trailer={"version": next(self.versions)}, data=b"<x/>")


def test_a_version_going_backwards_is_a_failure():
    client = Client.__new__(Client)
    client.sessions = {"secretary": _Session([2, 3, 1])}
    client.oracle = None
    client.versions = {}
    phase = Phase()
    for _ in range(3):
        client.send(("view", "doc000", "secretary", None), phase)
    assert phase.requests == 3
    assert phase.errors == 1
    assert len(phase.view_ms) == 2

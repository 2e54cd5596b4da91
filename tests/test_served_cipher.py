"""Every served path runs the XTEA implementation the station reports.

STATS, ``/metrics`` and the ``stage:evaluate`` span say whether the
native kernels serve (``station.backend.describe()``).  These tests
pin that claim to the cipher objects that actually decrypt and seal,
on each path a document or a link can reach a cipher by, once with the
kernels forced off and once with them on.
"""

import pytest

from repro.cluster import hospital_cluster
from repro.compute import native_available
from repro.compute.native import NativeXtea
from repro.engine import SecureStation, prepare_document
from repro.engine.station import link_cipher
from repro.server.client import RemoteSession
from repro.server.service import ServerThread, StationServer, hospital_station
from repro.store import LogStore

DOC = "<a><b>x</b><c>y</c></a>"


def assert_reported(cipher, native_kernels):
    """The cipher is the C-kernel one exactly when native is reported."""
    assert isinstance(cipher, NativeXtea) == bool(native_kernels), type(cipher)


def served_cipher(station, document_id):
    return station.document(document_id).scheme.cipher


def test_source_publish(xtea_leg):
    station = SecureStation()
    station.publish("doc", DOC)
    assert type(served_cipher(station, "doc")) is xtea_leg
    assert_reported(
        served_cipher(station, "doc"), station.backend.describe()["native_kernels"]
    )
    station.close()


@pytest.mark.parametrize("scheme", ["ECB", "ECB-MHT"])
def test_station_given_a_prepared_document(xtea_leg, scheme):
    station = SecureStation()
    station.publish("doc", prepare_document(DOC, scheme=scheme))
    assert type(served_cipher(station, "doc")) is xtea_leg
    assert_reported(
        served_cipher(station, "doc"), station.backend.describe()["native_kernels"]
    )
    station.close()


def test_both_cluster_nodes(xtea_leg):
    cluster, document_ids, _subjects = hospital_cluster(
        backends=2, documents=1, folders=1
    )
    try:
        assert len(cluster.nodes) == 2
        for node in cluster.nodes.values():
            station = node.station
            native = station.backend.describe()["native_kernels"]
            for document_id in document_ids:
                cipher = served_cipher(station, document_id)
                assert type(cipher) is xtea_leg, node.name
                assert_reported(cipher, native)
    finally:
        cluster.stop()


def test_log_store_reopened_without_a_station(xtea_leg, tmp_path):
    station = SecureStation(store=LogStore(str(tmp_path)))
    station.publish("doc", DOC, scheme="CBC-SHAC")
    station.close()
    store = LogStore(str(tmp_path))
    try:
        cipher = store.get("doc").prepared.scheme.cipher
        assert type(cipher) is xtea_leg
        assert_reported(cipher, native_available())
    finally:
        store.close()


def test_prepare_document(xtea_leg):
    cipher = prepare_document(DOC, scheme="CBC-SHA").scheme.cipher
    assert type(cipher) is xtea_leg
    assert_reported(cipher, native_available())


def test_link_ciphers(xtea_leg):
    assert type(link_cipher(b"k" * 16)) is xtea_leg
    station, subjects = hospital_station(folders=1)
    native = station.backend.describe()["native_kernels"]
    server = StationServer(station, seal=True)
    thread = ServerThread(server)
    host, port = thread.start()
    try:
        with RemoteSession(host, port, subjects[0]) as session:
            assert session.sealed
            assert type(session._link_cipher) is xtea_leg
            assert_reported(session._link_cipher, native)
            assert session.evaluate("hospital").text.startswith("<Hospital>")
        station_side = station.connect(subjects[0])._cipher
        assert type(station_side) is xtea_leg
        assert_reported(station_side, native)
    finally:
        thread.stop()
        station.close()

"""A seed fixes the request sequence and every count metric."""

from itertools import chain, islice

import pytest

import repro

from perfbench.client import COUNT_STREAM, Client, Phase, count_pass
from perfbench.oracle import Oracle
from perfbench.serving import launch
from perfbench.workloads import SUBJECTS, WORKLOADS, RequestStream, documents, policies


def _requests(name, seed, stream, n=300):
    workload = WORKLOADS[name]
    docs = documents(workload, seed)
    units = islice(RequestStream(workload, docs, seed, stream), n)
    return [
        (kind, doc, subject, op.as_dict() if kind == "update" else op)
        for kind, doc, subject, op in chain.from_iterable(units)
    ]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_requests(name):
    assert _requests(name, 7, 0) == _requests(name, 7, 0)
    assert _requests(name, 7, 0) != _requests(name, 7, 1)
    assert _requests(name, 7, 0) != _requests(name, 8, 0)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seeds_change_bytes_not_shape(name):
    workload = WORKLOADS[name]
    first, second = documents(workload, 1), documents(workload, 2)
    assert [doc.xml for doc in first] != [doc.xml for doc in second]
    assert [len(doc.xml) for doc in first] == [len(doc.xml) for doc in second]


def test_a_unit_keeps_its_insert_and_delete_together():
    workload = WORKLOADS["write-mix"]
    docs = documents(workload, 3)
    stream = iter(RequestStream(workload, docs, 3, 0))
    pairs = 0
    for unit in islice(stream, 2000):
        ops = [request[3].as_dict()["kind"] for request in unit if request[0] == "update"]
        if "insert_element" in ops:
            assert ops == ["insert_element", "delete_element"]
            pairs += 1
        else:
            assert len(unit) == 1
    assert pairs > 0


def _counts(name, seed, directory, units):
    workload = WORKLOADS[name]
    docs = documents(workload, seed)
    serving = launch(workload, seed, directory)
    oracle = Oracle({doc.id: doc.xml for doc in docs}, policies())
    client = Client(serving.address, oracle)
    stats = repro.connect(tuple(serving.address), SUBJECTS[0])
    phase = Phase()
    try:
        metrics = count_pass(
            client,
            stats,
            iter(RequestStream(workload, docs, seed, COUNT_STREAM)),
            units,
            {doc.id: doc.scheme for doc in docs},
            phase,
        )
    finally:
        stats.close()
        client.close()
        serving.stop()
    assert phase.errors == 0
    assert all(oracle.check(*view) for view in phase.views)
    return metrics


@pytest.mark.parametrize(
    "name, units",
    [("hot-views", 60), ("write-mix", 60), ("cold-corpus", 40), ("gateway-views", 40)],
)
def test_same_seed_same_counts(name, units, tmp_path):
    first = _counts(name, 5, tmp_path / "a", units)
    second = _counts(name, 5, tmp_path / "b", units)
    assert first == second
    assert first["crypto.bytes_decrypted_per_view"] > 0
    if name == "write-mix":
        assert first["store.bytes_written_per_update"] > 0

"""Live-update benchmark: dirty-chunk re-encryption on the hospital doc.

The acceptance workload for the live update path: one edit of each
kind through :meth:`SecureStation.update`, asserting the paper's cost
structure — a local same-length edit re-encrypts a couple of chunks, a
worst-case edit (dictionary growth) rewrites the whole store — and
that the cross-version replay defence holds on the benchmark document.
The full report lands in ``bench-out/BENCH_updates.json`` (next to
``BENCH_engine.json``).
"""

import json

import pytest

from conftest import BENCH_DIR, write_bench
from repro.bench.experiments import updates_experiment
from repro.crypto.integrity import IntegrityError
from repro.datasets.hospital import HospitalConfig, generate_hospital
from repro.engine import SecureStation
from repro.skipindex.updates import UpdateOp
from repro.xmlkit.parser import parse_document


def test_updates_bench_writes_report():
    out = BENCH_DIR / "BENCH_updates.json"
    experiment = updates_experiment(folders=16, output=None)
    report = experiment["report"]
    write_bench("updates", report, seed=7)

    by_op = {record["op"]: record for record in report["ops"]}
    assert set(by_op) == {
        "text/same-length",
        "insert/append",
        "delete/last",
        "text/grow-tail",
        "rename/new-tag",
    }

    # Best case: a same-length text edit dirties k of N chunks and
    # re-encrypts no more than k + O(1) — here a couple of a dozen.
    local = by_op["text/same-length"]
    assert local["total_chunks"] >= 8
    assert local["chunks_reencrypted"] <= 2
    assert local["dirtied_ratio"] <= 0.25
    assert not local["full_reencrypt"]

    # A tail append stays cheap too.
    append = by_op["insert/append"]
    assert append["chunks_reencrypted"] < append["total_chunks"]

    # Worst case (new tag -> dictionary growth) cascades to a full
    # re-encryption, per the paper's rule.
    worst = by_op["rename/new-tag"]
    assert worst["worst_case"]
    assert worst["full_reencrypt"]
    assert worst["chunks_reencrypted"] == worst["total_chunks"]

    # Every op bumped the version by one on the chained station.
    assert report["chained_version"] == 4

    loaded = json.loads(out.read_text())
    assert loaded["bench"] == "updates"
    assert len(loaded["ops"]) == 5
    assert all("latency_ms" in record for record in loaded["ops"])


def test_replay_defence_on_benchmark_document():
    config = HospitalConfig(
        folders=8, doctors=4, acts_per_folder=3, labresults_per_folder=2, seed=7
    )
    tree = generate_hospital(config)
    station = SecureStation()
    station.publish("hospital", tree)
    from repro.datasets.hospital import secretary_policy

    station.grant("hospital", secretary_policy())

    prepared_before = station.document("hospital")
    old_stored = bytes(prepared_before.secure.stored)
    result = station.update(
        "hospital", UpdateOp.insert([], parse_document("<Folder>note</Folder>"))
    )
    assert result.version == 1
    record = prepared_before.scheme.layout.stored_chunk_size()
    chunk = sorted(result.dirty_chunks)[0]
    new_prepared = station.document("hospital")
    new_prepared.secure.stored[chunk * record : (chunk + 1) * record] = old_stored[
        chunk * record : (chunk + 1) * record
    ]
    with pytest.raises(IntegrityError):
        station.evaluate("hospital", "secretary")
    station.close()

"""Resident-bytes guard: what one served document pins in the station.

Publishes 16 documents shaped like perfbench's cold-corpus workload
(the hospital generator at 4 folders, the four schemes round-robin,
structural index on) into a :class:`LogStore` station, then serves
every (subject, query) key once.  ``tracemalloc`` measures the Python
heap the station holds after publishing and after serving, per
document.

The view cache is off, so the figure is each document's own state
(index columns, tag table, key schedules, dictionary, store handle)
and not cached results; the page cache holds its 256 KiB budget at
most, as in cold-corpus.

Guards: bytes per document after serving, and after publishing, stay
within ``SLACK`` of the figure this code measured on the same Python
minor version.  Object layouts differ between interpreter versions, so
each has its own baseline; the published guard runs only on versions
with a measured figure.  The report lands in ``BENCH_resident.json``.
"""

import gc
import sys
import tracemalloc

import pytest

import repro
from conftest import write_bench
from repro.compute import native_available
from repro.datasets.hospital import (
    GROUPS,
    HospitalConfig,
    doctor_policy,
    generate_hospital,
    researcher_policy,
    secretary_policy,
)
from repro.engine import PublishOptions, StationConfig
from repro.store.log import LogStore
from repro.xmlkit.serializer import serialize

DOCUMENTS = 16
SCHEMES = ("ECB-MHT", "CBC-SHAC", "CBC-SHA", "ECB")
QUERIES = (None, "//Folder/Admin/Age", "//MedActs//Diagnostic")
CACHE_BYTES = 256 * 1024
#: Bytes per document after serving, measured with the native kernels
#: (Python minor version -> bytes).  Versions not listed use the
#: largest figure.
SERVED_BYTES_PER_DOCUMENT = {
    (3, 10): 39163,
    (3, 11): 21265,
    (3, 12): 27145,
    (3, 13): 27229,
}
#: Bytes per document after publishing, before any view is served.
PUBLISHED_BYTES_PER_DOCUMENT = {
    (3, 11): 7034,
}
SLACK = 1.10


def _documents():
    for number in range(DOCUMENTS):
        config = HospitalConfig(
            folders=4,
            doctors=4,
            acts_per_folder=3,
            labresults_per_folder=2,
            seed=7 + number,
        )
        yield "doc%03d" % number, serialize(generate_hospital(config))


@pytest.mark.skipif(
    not native_available(), reason="baselines are for the native backend"
)
def test_resident_bytes_per_document(tmp_path):
    policies = (
        secretary_policy(),
        doctor_policy("doctor0"),
        researcher_policy(GROUPS[:3]),
    )
    sources = list(_documents())
    store = LogStore(str(tmp_path), cache_bytes=CACHE_BYTES)
    station = repro.open_station(StationConfig(store=store, cache_views=False))
    try:
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for number, (document_id, text) in enumerate(sources):
                scheme = SCHEMES[number % len(SCHEMES)]
                station.publish(
                    document_id, text, PublishOptions(scheme=scheme, index=True)
                )
                for policy in policies:
                    station.grant(document_id, policy)
            gc.collect()
            published = tracemalloc.get_traced_memory()[0] - base
            for document_id, _text in sources:
                for policy in policies:
                    for query in QUERIES:
                        station.evaluate(document_id, policy.subject, query=query)
            gc.collect()
            served = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
    finally:
        station.close()

    version = sys.version_info[:2]
    baseline = SERVED_BYTES_PER_DOCUMENT.get(
        version, max(SERVED_BYTES_PER_DOCUMENT.values())
    )
    published_baseline = PUBLISHED_BYTES_PER_DOCUMENT.get(version)
    report = {
        "bench": "resident",
        "documents": DOCUMENTS,
        "schemes": list(SCHEMES),
        "keys_served": DOCUMENTS * len(policies) * len(QUERIES),
        "published_bytes_per_document": published // DOCUMENTS,
        "served_bytes_per_document": served // DOCUMENTS,
        "served_baseline": baseline,
        "published_baseline": published_baseline,
        "slack": SLACK,
    }
    write_bench("resident", report, seed=7)
    assert served / DOCUMENTS <= baseline * SLACK, report
    if published_baseline is not None:
        assert published / DOCUMENTS <= published_baseline * SLACK, report

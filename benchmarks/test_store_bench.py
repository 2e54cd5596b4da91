"""Persistent chunk store under a corpus far larger than its cache.

Publishes ``REPRO_STORE_BENCH_DOCS`` one-chunk documents (default
100 000, ~200 MB of chunk log) into a :class:`LogStore` whose page
cache is pinned to 8 MiB — a working set ~25x the cache — then
measures the three paths that matter operationally:

* bulk publish throughput (``sync="batch"``: fsync deferred to flush),
* cold reads (segment ``pread`` + CRC verify + handle build),
* cache-hit reads (resident page, warmed handle).

Asserts the cache-hit path is at least ``MIN_HIT_SPEEDUP``x the cold
path — the ratio the page cache exists to buy — and that the recovery
replay of a six-figure manifest stays interactive.  Emits
``BENCH_store.json``, the artifact CI uploads.

Set ``REPRO_STORE_BENCH_DOCS=2000`` (or any smaller corpus) for a
quick local run; the assertions are ratio-based and hold at any size
that still exceeds the cache.
"""

import json
import os
import pathlib
import random
import time

from repro.engine import prepare_document
from repro.store import LogStore

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

DOCS = int(os.environ.get("REPRO_STORE_BENCH_DOCS", "100000"))
CACHE_BYTES = 8 * 1024 * 1024
SAMPLE = 2000  # cold/hot read sample; always fits the 8 MiB cache
#: Measured locally ~40x (cold ~200us: pread + CRC + scheme
#: build; hit ~5us).  5x is the contract; anything below means the
#: cache stopped doing its job.
MIN_HIT_SPEEDUP = 5.0

KEY = bytes(range(16))
#: Small enough to encode+encrypt into a single 2 KiB chunk record.
SOURCE = "<doc><name>entry</name><val>42</val></doc>"


def test_store_corpus_bench(tmp_path):
    prepared = prepare_document(SOURCE, scheme="ECB", key=KEY)
    record_bytes = prepared.secure.stored_size()
    sample = min(SAMPLE, DOCS)

    store = LogStore(str(tmp_path), cache_bytes=CACHE_BYTES, sync="batch")
    started = time.perf_counter()
    for index in range(DOCS):
        store.put("doc-%06d" % index, prepared, KEY, 0)
    store.flush()
    publish_seconds = time.perf_counter() - started
    description = store.describe()
    assert description["documents"] == DOCS
    # The point of the exercise: the corpus must dwarf the cache.
    assert description["log_bytes"] > 4 * CACHE_BYTES or DOCS < 20000

    rng = random.Random(7)
    sample_ids = ["doc-%06d" % i for i in rng.sample(range(DOCS), sample)]

    def read(document_id):
        return bytes(store.get(document_id).prepared.secure.stored)

    reference = bytes(prepared.secure.stored)
    started = time.perf_counter()
    for document_id in sample_ids:
        assert read(document_id) == reference
    cold_seconds = time.perf_counter() - started

    started = time.perf_counter()
    for _ in range(3):
        for document_id in sample_ids:
            read(document_id)
    hot_seconds = (time.perf_counter() - started) / 3.0

    after = store.describe()
    assert after["page_misses"] >= sample
    assert after["page_hits"] >= 3 * sample
    assert after["cache_used_bytes"] <= CACHE_BYTES
    store.close()

    # Recovery: replaying the full six-figure manifest must stay
    # interactive — this is every restart's startup cost.
    started = time.perf_counter()
    reopened = LogStore(str(tmp_path), cache_bytes=CACHE_BYTES)
    recover_seconds = time.perf_counter() - started
    assert len(reopened) == DOCS
    assert bytes(reopened.get(sample_ids[0]).prepared.secure.stored) == reference
    reopened.close()

    hit_speedup = cold_seconds / hot_seconds if hot_seconds else float("inf")
    assert hit_speedup >= MIN_HIT_SPEEDUP, (
        "page-cache hit path only %.1fx faster than cold reads "
        "(cold %.1fus, hot %.1fus)"
        % (
            hit_speedup,
            1e6 * cold_seconds / sample,
            1e6 * hot_seconds / sample,
        )
    )

    payload = {
        "bench": "store",
        "documents": DOCS,
        "record_bytes": record_bytes,
        "log_bytes": description["log_bytes"],
        "cache_bytes": CACHE_BYTES,
        "working_set_over_cache": round(
            description["log_bytes"] / CACHE_BYTES, 1
        ),
        "publish": {
            "seconds": round(publish_seconds, 3),
            "docs_per_second": round(DOCS / publish_seconds, 1),
            "mb_per_second": round(
                description["log_bytes"] / publish_seconds / 1e6, 1
            ),
        },
        "reads": {
            "sample": sample,
            "cold_us": round(1e6 * cold_seconds / sample, 2),
            "hit_us": round(1e6 * hot_seconds / sample, 2),
            "hit_speedup": round(hit_speedup, 1),
        },
        "recovery": {
            "seconds": round(recover_seconds, 3),
            "manifest_entries": DOCS,
        },
        "counters": {
            key: after[key]
            for key in (
                "page_hits",
                "page_misses",
                "bytes_read",
                "bytes_written",
                "commits",
            )
        },
    }
    (REPO_ROOT / "BENCH_store.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

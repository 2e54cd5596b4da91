"""Hot-path regression guards: view cache, crypto, compute backends.

Runs the ``repro bench hotpath`` experiment once and asserts the
*ratios* it reports (never wall-clock absolutes, which vary with the
host): the whole-buffer crypto must beat the block-at-a-time
reference, and the native kernels the pure fast path.  Emits
``BENCH_hotpath.json`` — the artifact CI uploads.

A second guard serves the same requests over TCP with the view cache
off and then on, and asserts the cached path wins by a wide margin.
"""

import json
import pathlib
import time

from conftest import write_bench
from repro.bench.experiments import hotpath_experiment
from repro.server.client import RemoteSession
from repro.server.service import ServerThread, StationServer, hospital_station

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Generous floors under the locally measured ratios (crypto ~16x,
#: serving ~6x) so a loaded CI host does not flake the guard.
MIN_CRYPTO_SPEEDUP = 3.0
MIN_CACHED_SPEEDUP = 3.0
#: The C kernels vs the pure fast path on CBC (measured ~110x; the
#: chain dependency leaves pure Python no SWAR escape, so even a
#: heavily loaded host clears 10x).  Skipped when no compiler exists.
MIN_NATIVE_SPEEDUP = 10.0


def test_hotpath_regression_guard():
    data = hotpath_experiment(output=None)
    report = data["report"]
    # The crypto and backend microbenches draw their buffers from these.
    write_bench("hotpath", report, seed=[20260730, 20260807])
    ratios = report["ratios"]

    # -- vectorized crypto: every whole-buffer mode beats the reference
    assert ratios["crypto_speedup_min"] >= MIN_CRYPTO_SPEEDUP, report["crypto"]
    for case in report["crypto"]:
        if case["parallelizable"]:
            assert case["speedup"] >= MIN_CRYPTO_SPEEDUP, case

    # -- compute backends: native kernels vs the pure fast path
    backends = report["backends"]
    assert "pure" in backends["available"]
    if ratios["native_vs_fast"] is not None:  # compiler present
        assert "native" in backends["available"]
        assert ratios["native_vs_fast"] >= MIN_NATIVE_SPEEDUP, backends["cipher"]

    # -- the artifact landed
    written = json.loads((REPO_ROOT / "BENCH_hotpath.json").read_text())
    assert written["bench"] == "hotpath"
    assert written["ratios"] == ratios


def _serve_sequentially(cache_views, folders=4, requests=30):
    """Serve ``requests`` views per subject over TCP, one sequential
    session per subject.  Returns (seconds, cached responses, station
    view-cache hits)."""
    station, subjects = hospital_station(folders=folders)
    station.cache_views = cache_views
    try:
        with ServerThread(StationServer(station)) as (host, port):
            sessions = [RemoteSession(host, port, subject) for subject in subjects]
            try:
                cached = 0
                started = time.perf_counter()
                for _ in range(requests):
                    for session in sessions:
                        cached += session.evaluate("hospital").cached
                seconds = time.perf_counter() - started
            finally:
                for session in sessions:
                    session.close()
        return seconds, cached, station.stats.view_hits
    finally:
        station.close()


def test_cached_serving_beats_uncached():
    uncached_s, uncached_hits, uncached_view_hits = _serve_sequentially(False)
    cached_s, cached_hits, cached_view_hits = _serve_sequentially(True)
    assert uncached_hits == 0 and uncached_view_hits == 0
    assert cached_hits > 0 and cached_view_hits > 0
    speedup = uncached_s / cached_s
    assert speedup >= MIN_CACHED_SPEEDUP, (uncached_s, cached_s)

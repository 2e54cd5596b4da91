"""Hot-path regression guard: view cache, skip-pruned replay, crypto.

Runs the ``repro bench hotpath`` experiment once and asserts the
*ratios* it reports (never wall-clock absolutes, which vary with the
host): the cached serving path must beat the uncached path by a wide
margin, the whole-buffer crypto must beat the block-at-a-time
reference, and the skip-pruned replay must demonstrably engage (its
deterministic counters, plus byte-identical views).  Emits
``BENCH_hotpath.json`` — the artifact CI uploads.
"""

import json
import pathlib

from repro.bench.experiments import hotpath_experiment

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
    data = hotpath_experiment(output=str(REPO_ROOT / "BENCH_hotpath.json"))
    report = data["report"]
    ratios = report["ratios"]

    # -- vectorized crypto: every whole-buffer mode beats the reference
    assert ratios["crypto_speedup_min"] >= MIN_CRYPTO_SPEEDUP, report["crypto"]
    for case in report["crypto"]:
        if case["parallelizable"]:
            assert case["speedup"] >= MIN_CRYPTO_SPEEDUP, case

    # -- view cache: repeated-query serving throughput
    assert ratios["cached_speedup"] >= MIN_CACHED_SPEEDUP, report["serving"]
    assert report["serving"]["uncached"]["errors"] == 0
    assert report["serving"]["cached"]["errors"] == 0
    assert report["serving"]["uncached"]["cached_hits"] == 0
    assert report["serving"]["cached"]["cached_hits"] > 0
    assert report["serving"]["cached"]["view_hits"] > 0

    # -- skip-pruned replay engaged (deterministic counters; the
    #    wall-clock speedup is reported, not asserted)
    for entry in report["evaluator"]:
        assert entry["pruned_pruned_subtrees"] > 0, entry
        assert entry["cold_pruned_subtrees"] == 0, entry
        # Pruned subtrees never reach token filtering, so the pruned
        # run kills no more tokens than the cold run.
        assert entry["pruned_killed_tokens"] <= entry["cold_killed_tokens"], entry

    # -- compute backends: native kernels vs the pure fast path
    backends = report["backends"]
    assert "pure" in backends["available"]
    if ratios["native_vs_fast"] is not None:  # compiler present
        assert "native" in backends["available"]
        assert ratios["native_vs_fast"] >= MIN_NATIVE_SPEEDUP, backends["cipher"]

    # -- mixed workload: per-class stats exist and add up
    mixed = report["mixed_workload"]
    assert mixed["errors"] == 0
    assert sum(c["requests"] for c in mixed["classes"].values()) == mixed["requests"]
    assert sum(c["cached"] for c in mixed["classes"].values()) == mixed["cached_hits"]

    # -- the artifact landed
    written = json.loads((REPO_ROOT / "BENCH_hotpath.json").read_text())
    assert written["bench"] == "hotpath"
    assert written["ratios"] == ratios

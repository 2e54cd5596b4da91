"""Tracing overhead guard: the cached hot path with tracing on vs off.

Every request already pays the frame-header and dispatch cost; tracing
adds span bookkeeping server-side plus the trace id echoed in the
RESULT trailer.  The guard drives the same cached query end-to-end
against a ``repro serve --seal`` **subprocess** — a real station server
in its own interpreter, streaming link-sealed chunks: the paper's
Section 2 deployment, where the terminal talks to the station over an
untrusted network — with and without a trace id, and asserts the
traced path stays within ``MAX_OVERHEAD`` of the untraced one.  (An
in-process server thread would share the GIL with the measuring
client, double-billing every server-side microsecond against the
client's turnaround and measuring an overhead no deployed client ever
sees.)

Wall-clock on a shared CI host is noisy, so the measurement compares
the *per-request minimum* of each arm over interleaved rounds (each
round runs one untraced and one traced batch back to back, alternating
which goes first to cancel machine-speed drift).  The minimum is the
deterministic floor: GC pauses and scheduler preemption only ever add
time, and they hit both arms stochastically, so the min-to-min ratio
isolates the cost tracing itself adds to every request.  A
``gc.collect()`` before each batch keeps one arm's garbage from being
billed to the other.  A failing attempt is re-measured a few times
before the guard trips.  Emits ``BENCH_obs.json`` — the artifact CI
uploads.
"""

import gc
import os
import pathlib
import re
import subprocess
import sys
import time

from conftest import write_bench
from repro.obs.trace import new_trace_id
from repro.server.client import RemoteSession

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: The issue's acceptance bar: traced cached-path <= 1.05x untraced.
MAX_OVERHEAD = 1.05
ROUNDS = 7
BATCH = 40
ATTEMPTS = 4

_SERVING = re.compile(
    r"serving '(?P<doc>[^']+)' on (?P<host>\S+):(?P<port>\d+) "
    r"\(subjects: (?P<subjects>.+), backend: "
)


def _spawn_server():
    """``repro serve`` in its own interpreter; returns (proc, host, port,
    document, first subject) parsed from its announce line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--hospital",
            "6",
            "--port",
            "0",
            "--chunk-size",
            "4096",
            "--seal",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
    )
    line = proc.stdout.readline()
    match = _SERVING.search(line)
    if match is None:
        proc.terminate()
        proc.wait(timeout=10)
        raise AssertionError("could not parse serve banner: %r" % line)
    subject = match.group("subjects").split(",")[0].strip()
    return proc, match.group("host"), int(match.group("port")), subject


def _time_batch(session, trace_ids):
    """Fastest single request in one batch (the deterministic floor)."""
    gc.collect()
    fastest = float("inf")
    for trace in trace_ids:
        started = time.perf_counter()
        result = session.evaluate("hospital", trace=trace)
        elapsed = time.perf_counter() - started
        if elapsed < fastest:
            fastest = elapsed
        assert result.trailer.get("cached") is True
    return fastest


def _measure(session):
    """One attempt: interleaved rounds, best-of for each arm."""
    untraced = [0] * BATCH
    best = {"off": float("inf"), "on": float("inf")}
    for round_index in range(ROUNDS):
        traced = [new_trace_id() for _ in range(BATCH)]
        arms = [("off", untraced), ("on", traced)]
        if round_index % 2:
            arms.reverse()
        for name, ids in arms:
            best[name] = min(best[name], _time_batch(session, ids))
    return best["on"] / best["off"], best


def test_tracing_overhead_on_cached_path():
    proc, host, port, subject = _spawn_server()
    attempts = []
    try:
        with RemoteSession(host, port, subject) as session:
            warm = session.evaluate("hospital")  # populate the view cache
            assert session.evaluate("hospital").trailer.get("cached") is True
            assert warm.data
            for _ in range(ATTEMPTS):
                ratio, best = _measure(session)
                attempts.append(
                    {
                        "ratio": round(ratio, 4),
                        "untraced_us": round(best["off"] * 1e6, 1),
                        "traced_us": round(best["on"] * 1e6, 1),
                    }
                )
                if ratio <= MAX_OVERHEAD:
                    break
            observability = session.stats()["observability"]
    finally:
        proc.terminate()
        proc.wait(timeout=10)

    final = attempts[-1]
    report = {
        "bench": "obs",
        "rounds": ROUNDS,
        "batch": BATCH,
        "max_overhead": MAX_OVERHEAD,
        "attempts": attempts,
        "ratio": final["ratio"],
        "tracer": observability,
    }
    write_bench("obs", report)

    # Every traced request finished its trace server-side.
    assert observability["finished"] >= ROUNDS * BATCH
    assert final["ratio"] <= MAX_OVERHEAD, attempts

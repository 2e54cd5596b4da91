"""Shared fixtures for the per-table/figure benchmark suite.

The Workloads instance is process-wide: documents, encodings and
protected forms are built once and reused by every bench.
"""

import json
import pathlib
import platform
import subprocess

import pytest

from repro.bench.workloads import Workloads

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
#: Where every bench writes its report.  Gitignored, so a test run never
#: rewrites the committed ``BENCH_*.json`` trajectory at the repo root
#: (DESIGN.md, "Benchmarks", says how those are refreshed on purpose).
BENCH_DIR = REPO_ROOT / "bench-out"


@pytest.fixture(scope="session")
def workloads():
    return Workloads.shared()


def print_experiment(title: str, data) -> None:
    """Render an experiment table into the captured bench output."""
    from repro.bench.experiments import render

    print()
    print(render(data, title=title))


def write_bench(name: str, report: dict, seed=None) -> dict:
    """Write ``report`` to ``bench-out/BENCH_<name>.json`` under
    one provenance header: the checked-out commit, the Python version,
    the usable CPUs, the XTEA implementation and the seed the bench drew its
    data from (``None`` when it draws none).  Returns what was written.
    """
    from repro.compute import BACKEND
    from repro.server.frames import worker_count

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    written = {
        "provenance": {
            "commit": commit,
            "python": platform.python_version(),
            "nproc": worker_count(),
            "backend": BACKEND.name,
            "seed": seed,
        },
        **report,
    }
    BENCH_DIR.mkdir(exist_ok=True)
    path = BENCH_DIR / ("BENCH_%s.json" % name)
    path.write_text(json.dumps(written, indent=2, default=str) + "\n")
    return written

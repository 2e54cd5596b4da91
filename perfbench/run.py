"""Serving benchmark: one run of one workload.

    python3 perfbench/run.py --workload hot-views --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The last line of standard output is a
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
``end_to_end`` metrics of BENCHMARK.json with ``--trace 0``, its
``per_layer`` metrics with ``--trace 1``.  A full report (provenance,
sample counts, the simulated-vs-measured ledger) goes to
``.perfbench/<workload>-seed<n>-trace<t>/report.json``.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: Hard stop well inside the 180 s a run may take.
TIME_LIMIT_S = 170


def _expired(signum, frame):
    raise TimeoutError("benchmark run exceeded %d s" % TIME_LIMIT_S)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no program to run under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    # Everything the run writes stays inside the checkout, including the
    # native kernels the program compiles into its temporary directory.
    temporary = ROOT / ".perfbench" / "tmp"
    temporary.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(temporary)
    tempfile.tempdir = None
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    signal.signal(signal.SIGALRM, _expired)
    signal.alarm(TIME_LIMIT_S)
    from perfbench.client import run
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error("--workload must be one of %s" % ", ".join(WORKLOADS))
    return run(args, ROOT)


if __name__ == "__main__":
    sys.exit(main())

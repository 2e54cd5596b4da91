"""Run every experiment and print the paper-vs-measured tables.

Usage::

    python -m repro.bench                       # all experiments
    python -m repro.bench fig9 fig11            # a subset
    python -m repro.bench --format csv fig9     # machine-readable
    python -m repro.bench --format json         # one JSON object

The default ``table`` format is the aligned-markdown form; ``csv``
emits one header+rows block per experiment and ``json`` a single JSON
object keyed by experiment name.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.bench.experiments import (
    fig8_index_overhead,
    fig9_access_control,
    fig10_queries,
    fig11_integrity,
    fig12_real_datasets,
    hotpath_experiment,
    render,
    table1_costs,
    table2_documents,
    updates_experiment,
)
from repro.bench.reporting import FORMATS

EXPERIMENTS = {
    "table1": ("Table 1 - communication and decryption costs", table1_costs),
    "table2": ("Table 2 - document characteristics", table2_documents),
    "fig8": ("Figure 8 - index storage overhead", fig8_index_overhead),
    "fig9": ("Figure 9 - access control overhead", fig9_access_control),
    "fig10": ("Figure 10 - impact of queries", fig10_queries),
    "fig11": ("Figure 11 - impact of integrity control", fig11_integrity),
    "fig12": ("Figure 12 - performance on real datasets", fig12_real_datasets),
    "updates": ("Updates - live dirty-chunk re-encryption costs", updates_experiment),
    "hotpath": ("Hot path - vectorized crypto, compute backends", hotpath_experiment),
}


def main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench", description="run the paper's experiments"
    )
    parser.add_argument("experiments", nargs="*", metavar="experiment")
    parser.add_argument("--format", choices=FORMATS, default="table")
    args = parser.parse_args(argv)
    fmt = args.format
    selected = args.experiments or list(EXPERIMENTS)
    for key in selected:
        if key not in EXPERIMENTS:
            print("unknown experiment %r (choose from %s)" % (key, list(EXPERIMENTS)))
            return 2
    collected = {}
    for key in selected:
        title, fn = EXPERIMENTS[key]
        start = time.time()
        data = fn()
        elapsed = time.time() - start
        if fmt == "json":
            collected[key] = json.loads(render(data, title=title, fmt="json"))
            collected[key]["seconds"] = round(elapsed, 3)
        else:
            if fmt == "table":
                print()
            print(render(data, title=title, fmt=fmt))
            if fmt == "table":
                print("(computed in %.1fs)" % elapsed)
    if fmt == "json":
        print(json.dumps(collected, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload cold-corpus --seeds 1-5

Runs ``run.py`` once per seed (one after another, untraced) and prints
each metric's median and its quartile spread -- the inter-quartile
distance as a share of the median -- next to the bound BENCHMARK.json
sets for it.  A steady benchmark keeps every spread but ``setup_s``
below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from percentiles import quartile_spread

ROOT = Path(__file__).resolve().parents[1]


def seed_range(text: str):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/spread.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-5"))
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    values = {}
    for seed in args.seeds:
        completed = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py")]
            + ["--workload", args.workload, "--seed", str(seed)]
            + ["--seconds", str(seconds), "--trace", "0"],
            cwd=str(ROOT),
            capture_output=True,
            text=True,
            check=True,
        )
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print("seed %d: %d failed" % (seed, result["failed"]))
        shown = {}
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            shown[name] = round(metric["value"], 4)
        print("seed %d: %s" % (seed, json.dumps(shown)), flush=True)
    for metric in spec["end_to_end"]:
        series = values[metric["name"]]
        spread = quartile_spread(series) if len(series) > 1 else 0.0
        print(
            "%-16s median %12.5g  spread %6.3f  bound %.2f%s"
            % (
                metric["name"],
                statistics.median(series),
                spread,
                metric["bound"],
                "" if spread < metric["bound"] / 3 else "  <- not steady",
            )
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

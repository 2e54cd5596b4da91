"""The serving process: set a workload up, then serve it until told to quit.

``python3 -m perfbench.serving --workload W --seed N --run-dir DIR
--cpus 0,1 [--trace]`` (started by ``run.py``, with ``src`` on
``PYTHONPATH``).
It sets the workload up -- generate, publish (parse, encode, encrypt,
index, fsync), grant, bind -- and says so with one JSON line on stdout.
Then one JSON line goes out per JSON command read on stdin: ``trace``
(start the ledger), ``ledger``, ``cpu`` (CPU seconds the process has
used, all threads), ``rss``, ``quit``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

import repro
from repro.cluster import StationCluster
from repro.engine import PublishOptions, StationConfig
from repro.server.service import ServerThread, StationServer
from repro.store.log import DEFAULT_CACHE_BYTES, LogStore

from perfbench.ledger import SERVER_SPANS, SETUP_SPANS, Ledger, Span
from perfbench.workloads import WORKLOADS, Workload, documents, policies


class Serving:
    """One launched workload: where it listens and how to stop it."""

    def __init__(self, address, stations, stop):
        self.address = address
        self.stations = stations
        self.stop = stop

    def stored_bytes(self) -> int:
        """Bytes the stores hold: the log on disk, or memory-resident
        chunk records."""
        total = 0
        for station in self.stations:
            info = station.store.describe()
            total += int(info.get("log_bytes", info.get("stored_bytes", 0)))
        return total


def launch(workload: Workload, seed: int, directory: Path) -> Serving:
    """Generate, publish, grant and bind one instance of ``workload``."""
    grants = list(policies().values())
    if workload.store == "cluster":
        # hospital_cluster's topology, serving this workload's documents.
        cluster = StationCluster(replicas=2)
        cluster.start_backends(2)
        for doc in documents(workload, seed):
            cluster.publish(doc.id, doc.xml, grants, scheme=doc.scheme)
        cluster.start_gateway()
        stations = [node.station for node in cluster.nodes.values()]
        return Serving(cluster.gateway_address, stations, cluster.stop)
    store = None
    if workload.store == "log":
        store = LogStore(
            str(directory), cache_bytes=workload.cache_bytes or DEFAULT_CACHE_BYTES
        )
    station = repro.open_station(StationConfig(store=store))
    for doc in documents(workload, seed):
        station.publish(doc.id, doc.xml, PublishOptions(scheme=doc.scheme, index=True))
        for policy in grants:
            station.grant(doc.id, policy)
    # No per-session query cap: a closed-loop client sends tens of
    # thousands of requests on one session.
    server = StationServer(station, seal=True, max_queries_per_session=2**62)
    thread = ServerThread(server)
    address = thread.start()

    def stop() -> None:
        thread.stop()
        station.close()

    return Serving(address, [station], stop)


def peak_rss_mib() -> float:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m perfbench.serving")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--run-dir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--cpus", required=True, help="CPUs to run on, as 0,1")
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, [int(cpu) for cpu in args.cpus.split(",")])
    workload = WORKLOADS[args.workload]
    # Replies own stdout; anything else the process prints goes to stderr.
    out, sys.stdout = sys.stdout, sys.stderr

    def reply(body) -> None:
        out.write(json.dumps(body) + "\n")
        out.flush()

    ledger = Ledger() if args.trace else None
    if ledger is not None:
        ledger.install(SETUP_SPANS)
    store = args.run_dir / "store"
    serving = launch(workload, args.seed, store)
    source_bytes = sum(
        len(doc.xml.encode("utf-8")) for doc in documents(workload, args.seed)
    )
    reply(
        {
            "address": list(serving.address),
            "stored_bytes": serving.stored_bytes(),
            "source_bytes": source_bytes,
            "backend": serving.stations[0].backend.describe(),
        }
    )
    setup_totals = {}
    try:
        for line in sys.stdin:
            command = json.loads(line)["cmd"]
            if command == "trace":
                setup_totals = ledger.totals()
                ledger.reset()
                ledger.install(SERVER_SPANS)
                reply({"ok": True})
            elif command == "ledger":
                spans = list(ledger.spans)
                with open(args.run_dir / "server-spans.json", "w") as sink:
                    json.dump({"fields": Span._fields, "spans": spans}, sink)
                reply(
                    {
                        "setup": setup_totals,
                        "serving": ledger.totals(),
                        "backend_request_s": ledger.durations("server.request"),
                        "spans": len(spans),
                    }
                )
            elif command == "cpu":
                reply({"cpu_s": time.process_time()})
            elif command == "rss":
                reply({"peak_rss_mib": peak_rss_mib()})
            elif command == "quit":
                break
    finally:
        if ledger is not None:
            ledger.uninstall()
        serving.stop()
        shutil.rmtree(store, True)
    reply({"ok": True})
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Concurrent load generator for the station server.

Drives N blocking :class:`~repro.server.client.RemoteSession` clients
from N threads, each issuing M queries, and reports real wall-clock
service quality — throughput (requests/s), latency percentiles
(p50/p95/p99) and error counts — next to the *simulated* SOE seconds
the cost model accounts per view.  The report lands in
``BENCH_server.json`` (same convention as ``BENCH_engine.json``).

Two workload shapes:

* the default hammers one ``(subject, query)`` pair per client — the
  repeated-query regime the station's view cache is built for;
* ``--mix`` draws every request from a *weighted set* of (subject,
  query) pairs and reports latency percentiles and cache-hit counts
  **per query class**, so cache-hit-rate numbers are honest: a mixed
  report shows exactly which classes were served hot and which cold.

Run it against any live server::

    python -m repro.server.loadgen 127.0.0.1:8471 --clients 8 --queries 5
    python -m repro.server.loadgen 127.0.0.1:8471 --mix "secretary:4" \\
        --mix "doctor0:2://Folder[//Age > 60]" --mix "researcher:1"

or via the CLI: ``repro loadgen 127.0.0.1:8471 ...``.

``--cluster N`` needs no address: it boots an in-process
:func:`~repro.cluster.topology.hospital_cluster` (N backends, R
replicas, K documents spread over distinct primaries by consistent
hash), drives the load *through the gateway*, and augments the report
with per-backend request counts and latency percentiles — the
throughput/p95 **skew** across backends is the honest measure of how
well the hash ring spreads the documents.  ``--kill-one`` is the
failover drill: once a third of the requests have been served, the
primary of the first document is killed mid-run; the run must still
finish with zero failed requests (the gateway retries on replicas)::

    python -m repro.server.loadgen --cluster 3 --replicas 2 --clients 4 \\
        --queries 8 --kill-one --output BENCH_cluster.json
"""

from __future__ import annotations

import argparse
import json
import random
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.metrics import percentile
from repro.obs.trace import new_trace_id
from repro.server.client import RemoteError, RemoteSession

#: Subjects granted by :func:`repro.server.service.hospital_station`.
DEFAULT_SUBJECTS = ("secretary", "doctor0", "researcher")
DEFAULT_DOCUMENT = "hospital"

#: One weighted workload class: (subject, query or None, weight).
MixPair = Tuple[str, Optional[str], float]

__all__ = [
    "percentile",  # canonical home: repro.metrics (re-exported for API
    # stability — the PR 3 nearest-rank switch documented it here)
    "run_load",
    "run_cluster_load",
    "write_report",
    "parse_address",
    "parse_mix_spec",
    "class_label",
]


def class_label(subject: str, query: Optional[str]) -> str:
    """Stable per-class key for the mixed-workload report."""
    return "%s|%s" % (subject, query or "-")


def parse_mix_spec(text: str) -> MixPair:
    """Parse one ``subject[:weight[:query]]`` spec.

    The query may contain colons of its own — only the first two are
    separators.
    """
    parts = text.split(":", 2)
    subject = parts[0].strip()
    if not subject:
        raise argparse.ArgumentTypeError("mix spec needs a subject: %r" % text)
    weight = 1.0
    if len(parts) > 1 and parts[1].strip():
        try:
            weight = float(parts[1])
        except ValueError:
            raise argparse.ArgumentTypeError(
                "mix weight must be a number, got %r" % parts[1]
            )
        if weight <= 0:
            raise argparse.ArgumentTypeError("mix weight must be > 0")
    query = parts[2].strip() if len(parts) > 2 and parts[2].strip() else None
    return subject, query, weight


class _Worker(threading.Thread):
    """One client thread.

    In plain mode it opens one session as its assigned subject and
    hammers a single (document, query) pair.  In mixed mode it opens
    one session per distinct subject in the mix and draws every request
    from the weighted pair set (seeded per worker, so runs are
    reproducible).
    """

    def __init__(
        self,
        host: str,
        port: int,
        subject: str,
        document: str,
        queries: int,
        query: Optional[str],
        connect_retry: float,
        barrier: threading.Barrier,
        mix: Optional[Sequence[MixPair]] = None,
        seed: int = 0,
        documents: Optional[Sequence[str]] = None,
        auto_reconnect: bool = False,
        trace: bool = False,
    ):
        super().__init__(daemon=True)
        self.args = (host, port, subject, document, queries, query)
        self.connect_retry = connect_retry
        self.barrier = barrier
        self.mix = list(mix) if mix else None
        #: Multi-document pool (cluster runs): each request draws its
        #: target document uniformly, exercising every shard.
        self.documents = list(documents) if documents else None
        self.auto_reconnect = auto_reconnect
        #: Stamp every request with a trace id minted from the worker's
        #: seeded RNG — the ids a ``--seed`` run emits are reproducible.
        self.trace = trace
        self.rng = random.Random(seed)
        self.latencies: List[float] = []
        #: Parallel to ``latencies``: (class label, served-from-cache).
        self.classes: List[Tuple[str, bool]] = []
        self.bytes_received = 0
        self.simulated_seconds = 0.0
        self.cached_hits = 0
        self.traced_requests = 0
        self.errors: List[str] = []

    def _connect_sessions(
        self, host: str, port: int, subject: str
    ) -> Dict[str, RemoteSession]:
        subjects = (
            sorted({pair[0] for pair in self.mix}) if self.mix else [subject]
        )
        sessions: Dict[str, RemoteSession] = {}
        for name in subjects:
            sessions[name] = RemoteSession(
                host,
                port,
                name,
                connect_retry=self.connect_retry,
                auto_reconnect=self.auto_reconnect,
            )
        return sessions

    def run(self) -> None:
        host, port, subject, document, queries, query = self.args
        try:
            sessions = self._connect_sessions(host, port, subject)
        except Exception as exc:  # noqa: BLE001 - anything must be reported
            self.errors.append("connect: %s" % exc)
            try:
                self.barrier.wait(timeout=30)
            except threading.BrokenBarrierError:
                pass
            return
        try:
            # Start all workers' query phases together so concurrency
            # is real, not an artifact of staggered connects.
            try:
                self.barrier.wait(timeout=30)
            except threading.BrokenBarrierError:
                pass
            if self.mix:
                pairs = self.mix
                weights = [pair[2] for pair in pairs]
            for _ in range(queries):
                if self.mix:
                    pick_subject, pick_query, _w = self.rng.choices(
                        pairs, weights=weights
                    )[0]
                else:
                    pick_subject, pick_query = subject, query
                if self.documents:
                    pick_document = self.rng.choice(self.documents)
                else:
                    pick_document = document
                session = sessions[pick_subject]
                trace_id = new_trace_id(self.rng) if self.trace else 0
                if trace_id:
                    self.traced_requests += 1
                start = time.perf_counter()
                try:
                    result = session.evaluate(
                        pick_document, query=pick_query, trace=trace_id
                    )
                except RemoteError as exc:
                    self.errors.append(str(exc))
                    continue
                except Exception as exc:  # noqa: BLE001 - a dead thread
                    # would silently under-run the benchmark; record
                    # the failure and stop this worker instead.
                    self.errors.append("fatal: %s" % exc)
                    return
                self.latencies.append(time.perf_counter() - start)
                self.classes.append(
                    (class_label(pick_subject, pick_query), result.cached)
                )
                if result.cached:
                    self.cached_hits += 1
                self.bytes_received += result.result_bytes
                self.simulated_seconds += result.seconds
        finally:
            for session in sessions.values():
                session.close()


def _poll_observability(host: str, port: int, subject: str) -> Dict[str, Any]:
    """One STATS round-trip distilled to the tracer's view of the run:
    how many traces finished and how many landed in the slow-query log
    (the count *and* the retained records are the loadgen's proof that
    tracing was live server-side, not just stamped client-side)."""
    try:
        with RemoteSession(host, port, subject, connect_retry=5.0) as session:
            body = session.stats()
    except Exception:  # noqa: BLE001 - observability must not fail a run
        return {}
    obs = dict(body.get("observability") or {})
    obs["slow_log_hits"] = len(obs.get("slow_log") or [])
    return obs


def _class_report(workers: Sequence[_Worker]) -> Dict[str, Dict[str, Any]]:
    """Per-query-class latency/cache stats of a mixed run."""
    by_class: Dict[str, Dict[str, List]] = {}
    for worker in workers:
        for latency, (label, cached) in zip(worker.latencies, worker.classes):
            entry = by_class.setdefault(label, {"latencies": [], "cached": 0})
            entry["latencies"].append(latency)
            if cached:
                entry["cached"] += 1
    report = {}
    for label, entry in sorted(by_class.items()):
        latencies = entry["latencies"]
        report[label] = {
            "requests": len(latencies),
            "cached": entry["cached"],
            "p50_ms": round(percentile(latencies, 50) * 1000, 3),
            "p95_ms": round(percentile(latencies, 95) * 1000, 3),
            "mean_ms": round(sum(latencies) / len(latencies) * 1000, 3),
        }
    return report


def run_load(
    host: str,
    port: int,
    clients: int = 8,
    queries: int = 5,
    document: str = DEFAULT_DOCUMENT,
    subjects: Sequence[str] = DEFAULT_SUBJECTS,
    query: Optional[str] = None,
    connect_retry: float = 10.0,
    mix: Optional[Sequence[MixPair]] = None,
    seed: int = 0,
    documents: Optional[Sequence[str]] = None,
    auto_reconnect: bool = False,
    backend: Optional[str] = None,
    trace: bool = False,
) -> Dict[str, Any]:
    """N clients x M queries against ``host:port``; returns the report.

    ``backend`` labels the run with the compute backend the server
    under load was started with (``repro serve --backend ...``), so a
    BENCH_server.json archive says which backend produced its numbers.

    ``trace=True`` stamps every request with a trace id minted from
    each worker's seeded RNG (reproducible under ``--seed``) and, after
    the run, polls the server's STATS for its tracer counters and
    slow-query-log hits, which land in the report's ``observability``
    section.

    With ``mix`` (a sequence of ``(subject, query, weight)`` triples)
    every request is drawn from the weighted set and the report gains a
    per-query-class breakdown.  With ``documents`` every request also
    draws its target document uniformly from that pool (the cluster
    regime: distinct documents live on distinct primaries).
    """
    barrier = threading.Barrier(clients)
    workers = [
        _Worker(
            host,
            port,
            subjects[index % len(subjects)],
            document,
            queries,
            query,
            connect_retry,
            barrier,
            mix=mix,
            seed=seed * 10_007 + index,
            documents=documents,
            auto_reconnect=auto_reconnect,
            trace=trace,
        )
        for index in range(clients)
    ]
    start = time.perf_counter()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    elapsed = time.perf_counter() - start

    latencies = [lat for worker in workers for lat in worker.latencies]
    errors = [err for worker in workers for err in worker.errors]
    requests = len(latencies)
    report = {
        "bench": "server_load",
        "address": "%s:%d" % (host, port),
        "clients": clients,
        "queries_per_client": queries,
        "document": document,
        "subjects": list(subjects),
        "requests": requests,
        "errors": len(errors),
        "error_samples": errors[:5],
        "elapsed_seconds": round(elapsed, 4),
        "throughput_rps": round(requests / elapsed, 2) if elapsed else 0.0,
        "bytes_received": sum(worker.bytes_received for worker in workers),
        "cached_hits": sum(worker.cached_hits for worker in workers),
        "simulated_soe_seconds": round(
            sum(worker.simulated_seconds for worker in workers), 4
        ),
        "latency_ms": {
            "p50": round(percentile(latencies, 50) * 1000, 3),
            "p95": round(percentile(latencies, 95) * 1000, 3),
            "p99": round(percentile(latencies, 99) * 1000, 3),
            "mean": round(
                sum(latencies) / requests * 1000 if requests else 0.0, 3
            ),
            "max": round(max(latencies) * 1000 if latencies else 0.0, 3),
        },
    }
    if backend:
        report["backend"] = backend
    if trace:
        report["traced_requests"] = sum(
            worker.traced_requests for worker in workers
        )
        report["observability"] = _poll_observability(
            host, port, subjects[0] if subjects else DEFAULT_SUBJECTS[0]
        )
    if documents:
        report["documents"] = list(documents)
    if mix:
        report["mix"] = [
            {"subject": s, "query": q, "weight": w} for s, q, w in mix
        ]
        report["classes"] = _class_report(workers)
    return report


def run_cluster_load(
    backends: int = 3,
    replicas: int = 2,
    documents: int = 2,
    clients: int = 4,
    queries: int = 6,
    folders: int = 2,
    subjects: Optional[Sequence[str]] = None,
    query: Optional[str] = None,
    mix: Optional[Sequence[MixPair]] = None,
    seed: int = 0,
    kill_one: bool = False,
    trace: bool = False,
    slow_ms: Optional[float] = None,
) -> Dict[str, Any]:
    """Boot an in-process cluster, drive load through its gateway.

    ``kill_one=True`` is the failover drill: a watcher thread waits
    until a third of the expected requests have been answered, then
    abruptly stops the backend that is primary for the first document
    — mid-run, with queries in flight.  The gateway must absorb the
    loss (retry on a replica, repair placement) without a single
    client-visible failure; the CI smoke step asserts exactly that via
    the zero-errors exit code.

    The report is the ordinary :func:`run_load` one plus a ``cluster``
    section: which backend was killed, the gateway counters (failovers,
    repairs), per-backend request counts and latency percentiles, the
    p95 skew across backends, and the final topology.
    """
    from repro.cluster.topology import hospital_cluster
    from repro.server.client import RemoteSession

    cluster, document_ids, default_subjects = hospital_cluster(
        backends=backends,
        replicas=replicas,
        documents=documents,
        folders=folders,
        slow_ms=slow_ms,
        trace=trace,
    )
    killed: Dict[str, Any] = {}
    done = threading.Event()
    killer: Optional[threading.Thread] = None
    try:
        host, port = cluster.gateway_address
        if kill_one:
            threshold = max(1, clients * queries // 3)

            def kill_primary() -> None:
                gateway = cluster.gateway
                while not done.is_set():
                    if gateway.gateway_stats["queries"] >= threshold:
                        break
                    time.sleep(0.01)
                if done.is_set():
                    return  # run finished before the threshold: no drill
                target = cluster.primary_of(document_ids[0])
                killed["backend"] = target
                killed["after_queries"] = gateway.gateway_stats["queries"]
                cluster.kill_backend(target)

            killer = threading.Thread(target=kill_primary, daemon=True)
            killer.start()
        report = run_load(
            host,
            port,
            clients=clients,
            queries=queries,
            document=document_ids[0],
            subjects=tuple(subjects) if subjects else tuple(default_subjects),
            query=query,
            mix=mix,
            seed=seed,
            documents=document_ids,
            auto_reconnect=True,
            trace=trace,
        )
        done.set()
        if killer is not None:
            killer.join(timeout=10)
        with RemoteSession(host, port, "@admin", connect_retry=5.0) as admin:
            stats = admin.stats()
            topology = admin.topology()
        per_backend = stats.get("per_backend", {})
        p95s = [
            entry["latency_ms"]["p95"]
            for entry in per_backend.values()
            if entry.get("requests")
        ]
        elapsed = report.get("elapsed_seconds") or 0.0
        report["bench"] = "cluster_load"
        report["cluster"] = {
            "backends": backends,
            "replicas": replicas,
            "documents": document_ids,
            "killed_backend": killed.get("backend"),
            "killed_after_queries": killed.get("after_queries"),
            "gateway": stats.get("gateway"),
            "per_backend": {
                name: dict(
                    entry,
                    throughput_rps=round(entry.get("requests", 0) / elapsed, 2)
                    if elapsed
                    else 0.0,
                )
                for name, entry in per_backend.items()
            },
            "p95_skew_ms": round(max(p95s) - min(p95s), 3) if p95s else 0.0,
            "topology": topology.get("documents"),
        }
        return report
    finally:
        done.set()
        cluster.stop()


def write_report(report: Dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")


def parse_address(text: str) -> Tuple[str, int]:
    host, _sep, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise argparse.ArgumentTypeError(
            "address must look like HOST:PORT, got %r" % text
        )
    return host, int(port)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.server.loadgen",
        description="concurrent load generator for the station server",
    )
    parser.add_argument(
        "address",
        type=parse_address,
        nargs="?",
        help="HOST:PORT (omit with --cluster)",
    )
    parser.add_argument(
        "--cluster",
        type=int,
        metavar="N",
        help="no address needed: boot an in-process N-backend cluster "
        "and drive the load through its gateway",
    )
    parser.add_argument(
        "--replicas", type=int, default=2, help="copies per document (--cluster)"
    )
    parser.add_argument(
        "--cluster-documents",
        type=int,
        default=2,
        help="hospital documents spread over the shards (--cluster)",
    )
    parser.add_argument(
        "--folders",
        type=int,
        default=2,
        help="hospital folders per document (--cluster)",
    )
    parser.add_argument(
        "--kill-one",
        action="store_true",
        help="failover drill: kill the primary of the first document "
        "mid-run (--cluster); the run must still end with 0 errors",
    )
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--queries", type=int, default=5, help="per client")
    parser.add_argument("--document", default=DEFAULT_DOCUMENT)
    parser.add_argument(
        "--subject",
        action="append",
        dest="subjects",
        help="subject(s) to cycle clients through (repeatable)",
    )
    parser.add_argument("--query", help="optional XPath query")
    parser.add_argument(
        "--mix",
        action="append",
        type=parse_mix_spec,
        metavar="SUBJECT[:WEIGHT[:QUERY]]",
        help="mixed workload: draw each request from this weighted set "
        "(repeatable); the report then breaks latency and cache hits "
        "down per query class",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="mixed-workload draw seed"
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="stamp every request with a trace id (minted from the "
        "seeded per-worker RNG, so ids reproduce under --seed) and "
        "report the server's tracer counters + slow-query-log hits",
    )
    parser.add_argument(
        "--slow-ms",
        type=float,
        metavar="MS",
        help="slow-query threshold for the booted cluster's gateway "
        "(--cluster only; a live server sets its own via repro serve)",
    )
    parser.add_argument(
        "--output", default="BENCH_server.json", help="report path"
    )
    parser.add_argument(
        "--connect-retry",
        type=float,
        default=10.0,
        help="seconds to keep retrying the initial connect",
    )
    parser.add_argument(
        "--backend",
        choices=["pure", "native", "auto"],
        help="compute backend the target server runs (recorded in the "
        "report so archived runs are attributable)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.cluster:
        report = run_cluster_load(
            backends=args.cluster,
            replicas=args.replicas,
            documents=args.cluster_documents,
            clients=args.clients,
            queries=args.queries,
            folders=args.folders,
            subjects=tuple(args.subjects) if args.subjects else None,
            query=args.query,
            mix=args.mix,
            seed=args.seed,
            kill_one=args.kill_one,
            trace=args.trace,
            slow_ms=args.slow_ms,
        )
        if args.backend:
            report["backend"] = args.backend
    else:
        if args.address is None:
            parser.error("an address is required unless --cluster is given")
        host, port = args.address
        report = run_load(
            host,
            port,
            clients=args.clients,
            queries=args.queries,
            document=args.document,
            subjects=tuple(args.subjects) if args.subjects else DEFAULT_SUBJECTS,
            query=args.query,
            connect_retry=args.connect_retry,
            mix=args.mix,
            seed=args.seed,
            backend=args.backend,
            trace=args.trace,
        )
    write_report(report, args.output)
    print(
        "%(requests)d requests from %(clients)d clients in "
        "%(elapsed_seconds).2fs -> %(throughput_rps).1f req/s, "
        % report
        + "p50 %.1f ms, p95 %.1f ms, %d cached, %d errors (report: %s)"
        % (
            report["latency_ms"]["p50"],
            report["latency_ms"]["p95"],
            report["cached_hits"],
            report["errors"],
            args.output,
        )
    )
    if args.trace:
        obs = report.get("observability") or {}
        print(
            "  tracing: %d requests stamped, %s traces finished, "
            "%s slow queries (%s retained in the slow log)"
            % (
                report.get("traced_requests", 0),
                obs.get("finished", "?"),
                obs.get("slow_queries", "?"),
                obs.get("slow_log_hits", 0),
            )
        )
    if args.mix:
        for label, entry in report["classes"].items():
            print(
                "  %-40s %4d requests, %4d cached, p50 %.1f ms, p95 %.1f ms"
                % (
                    label,
                    entry["requests"],
                    entry["cached"],
                    entry["p50_ms"],
                    entry["p95_ms"],
                )
            )
    if args.cluster:
        info = report["cluster"]
        gateway = info.get("gateway") or {}
        print(
            "  cluster: %d backends x R=%d, killed=%s, failovers=%d, "
            "repairs=%d, p95 skew %.1f ms"
            % (
                info["backends"],
                info["replicas"],
                info.get("killed_backend") or "-",
                gateway.get("failovers", 0),
                gateway.get("repairs", 0),
                info.get("p95_skew_ms", 0.0),
            )
        )
        for name, entry in sorted(info["per_backend"].items()):
            print(
                "  %-10s %s %4d requests, %7.2f req/s, p95 %.1f ms"
                % (
                    name,
                    "up  " if entry.get("alive") else "DOWN",
                    entry.get("requests", 0),
                    entry.get("throughput_rps", 0.0),
                    entry.get("latency_ms", {}).get("p95", 0.0),
                )
            )
    expected = args.clients * args.queries
    return 0 if report["errors"] == 0 and report["requests"] == expected else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

"""The client side of one benchmark run.

Launches the serving process, then drives it from this process:

1. **count pass** -- a fixed, seeded sequence of requests sent one at a
   time, with STATS read before and after each; it also warms the
   caches.  The *count* metrics come from it, so a seed fixes them.
2. **timed phase** -- after an untimed warm-up, two closed-loop clients
   (each waits for its reply before sending the next request) for
   ``--seconds``; latency, throughput and CPU per request come from it.
3. with ``--trace 1`` (where updates are sent, after a timed phase twice
   as long) a **traced phase** of ``--seconds`` follows, with the
   ledger's spans installed in both processes; the per-layer times come
   from it.

The serving process runs on all CPUs but one and this process on the
last one, so neither waits behind the other or moves between cores.

Every response of every phase is checked against the oracle afterwards,
outside the timed intervals.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import threading
from collections import Counter, defaultdict
from itertools import chain, islice
from pathlib import Path
from time import perf_counter, process_time

import repro
from repro import Meter
from repro.server.client import RemoteError
from repro.server.protocol import ProtocolError
from repro.soe.costmodel import CONTEXTS, CostModel

from perfbench.ledger import CLIENT_SPANS, Ledger
from perfbench.oracle import Oracle
from perfbench.percentiles import nearest_rank
from perfbench.workloads import (
    SCHEMES,
    SUBJECTS,
    WORKLOADS,
    RequestStream,
    documents,
    policies,
)

#: The serving process is launched this many times per run and the last
#: launch serves; ``setup_s`` is the median launch-to-ready time.
LAUNCHES = 5
COUNT_STREAM = 9
CLIENTS = 2
#: An untimed closed-loop warm-up, as a share of ``--seconds``, runs
#: before the timed phase; its views are verified like the others.
WARM_UP_SHARE = 0.2
SIM_FIELDS = ("communication", "decryption", "integrity", "access_control")
#: Per-request layer times: metric -> (span name, denominator).
LAYER_TIMES = {
    "server.executor_wait_ms": ("server.executor_wait", "requests"),
    "server.frame_ms": ("server.frame", "requests"),
    "server.seal_ms": ("server.seal", "requests"),
    "engine.station_self_ms": ("engine.station", "requests"),
    "engine.plan_lookup_ms": ("engine.plan_lookup", "requests"),
    "store.fetch_ms": ("store.fetch", "requests"),
    "store.commit_ms": ("store.commit", "updates"),
    "crypto.decrypt_ms": ("crypto.decrypt", "requests"),
    "crypto.verify_ms": ("crypto.verify", "requests"),
    "crypto.reencrypt_ms": ("crypto.reencrypt", "updates"),
    "skipindex.decode_ms": ("skipindex.decode", "requests"),
    "skipindex.index_match_ms": ("skipindex.index_match", "requests"),
    "skipindex.reencode_ms": ("skipindex.reencode", "updates"),
    "accesscontrol.nfa_ms": ("accesscontrol.nfa", "requests"),
    "xmlkit.serialize_ms": ("xmlkit.serialize", "requests"),
}
#: Paper's Table-1 components next to the layers that spend that time.
SIMULATED_VS_MEASURED = {
    "communication": (
        "store.fetch_ms",
        "server.executor_wait_ms",
        "server.frame_ms",
        "server.seal_ms",
        "server.client_ms",
    ),
    "decryption": ("crypto.decrypt_ms",),
    "integrity": ("crypto.verify_ms",),
    "access_control": ("skipindex.decode_ms", "accesscontrol.nfa_ms"),
}
_FAILURES = (RemoteError, ProtocolError, ValueError, OSError)


class ServingProcess:
    """The program under test, in its own process (``perfbench.serving``)."""

    def __init__(self, root, run_dir, workload: str, seed: int, trace, cpus):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join((str(root / "src"), str(root)))
        command = [
            sys.executable,
            "-m",
            "perfbench.serving",
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--run-dir",
            str(run_dir),
            "--cpus",
            ",".join(map(str, cpus)),
        ]
        self.process = subprocess.Popen(
            command + (["--trace"] if trace else []),
            cwd=str(root),
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            self.ready = self._reply(timeout=120)
        except BaseException:
            self.process.kill()
            self.process.wait()
            raise

    def _reply(self, timeout: float):
        readable, _, _ = select.select([self.process.stdout], [], [], timeout)
        if not readable:
            raise TimeoutError("serving process sent no reply in %gs" % timeout)
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(
                "serving process exited (code %s)" % self.process.wait(timeout=10)
            )
        return json.loads(line)

    def command(self, name: str, timeout: float = 60):
        self.process.stdin.write(json.dumps({"cmd": name}) + "\n")
        self.process.stdin.flush()
        return self._reply(timeout)

    def close(self) -> None:
        if self.process.poll() is None:
            try:
                self.command("quit", timeout=30)
            except (OSError, RuntimeError, TimeoutError, ValueError):
                pass
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


def cpu_steal():
    """``(steal, total)`` jiffies over all CPUs, from /proc/stat: time the
    hypervisor ran other guests while this machine wanted the CPU."""
    with open("/proc/stat") as stat:
        fields = [int(value) for value in stat.readline().split()[1:]]
    return fields[7], sum(fields)


def split_cpus():
    """``(serving CPUs, client CPUs)``: the client process gets a CPU of
    its own when there are two or more, so the two processes never queue
    behind each other or trade cores while they are timed."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return cpus, cpus
    return cpus[:-1], cpus[-1:]


def launch_serving(root: Path, run_dir: Path, args, cpus):
    """Launch the serving process :data:`LAUNCHES` times and keep the
    last; returns it and each launch's seconds until it was ready."""
    seconds = []
    for attempt in range(LAUNCHES):
        started = perf_counter()
        serving = ServingProcess(
            root, run_dir, args.workload, args.seed, args.trace, cpus
        )
        seconds.append(perf_counter() - started)
        if attempt < LAUNCHES - 1:
            serving.close()
    return serving, seconds


class Phase:
    """Everything one phase observed; checked after the phase ends."""

    def __init__(self):
        self.view_ms = []
        self.update_ms = []
        self.requests = 0
        self.errors = 0
        #: ``(document, subject, query, version, bytes) -> count``.
        self.views = Counter()
        #: First trailer meter seen per ``(document, subject, query, version)``.
        self.meters = {}
        self.start = 0.0
        self.end = 0.0
        self.failed_views = 0

    def merge(self, other: "Phase") -> None:
        self.view_ms += other.view_ms
        self.update_ms += other.update_ms
        self.requests += other.requests
        self.errors += other.errors
        self.views.update(other.views)
        for key, meter in other.meters.items():
            self.meters.setdefault(key, meter)
        self.end = max(self.end, other.end)

    @property
    def verified_views(self) -> int:
        return len(self.view_ms) - self.failed_views

    @property
    def elapsed(self) -> float:
        return self.end - self.start


class Client:
    """One closed-loop client: a session per subject, and the latest
    version it has seen per document (versions must never go back)."""

    def __init__(self, address, oracle: Oracle):
        self.sessions = {
            subject: repro.connect(tuple(address), subject, timeout=60)
            for subject in SUBJECTS
        }
        self.oracle = oracle
        self.versions = {}

    def close(self) -> None:
        for session in self.sessions.values():
            session.close()

    def send(self, request, phase: Phase):
        """Send one request and record its outcome; returns the trailer
        (``None`` on failure)."""
        kind, document, subject, argument = request
        session = self.sessions[subject]
        phase.requests += 1
        started = perf_counter()
        try:
            if kind == "view":
                result = session.evaluate(document, argument)
                trailer = result.trailer
            else:
                trailer = session.update(document, argument)
        except _FAILURES:
            phase.errors += 1
            phase.end = perf_counter()
            return None
        ended = phase.end = perf_counter()
        version = trailer.get("version")
        if not isinstance(version, int) or version < self.versions.get(document, 0):
            phase.errors += 1
            return None
        self.versions[document] = version
        if kind == "view":
            phase.view_ms.append((ended - started) * 1000.0)
            key = (document, subject, argument, version)
            phase.views[key + (result.data,)] += 1
            if key not in phase.meters:
                phase.meters[key] = trailer.get("meter", {})
        else:
            phase.update_ms.append((ended - started) * 1000.0)
            if not self.oracle.acknowledge(document, version, argument):
                phase.errors += 1
        return trailer


def flat_stats(body) -> dict:
    """A STATS reply (station server or gateway) as flat numeric counters."""
    flat = defaultdict(float)

    def add(prefix, section):
        for key, value in (section or {}).items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                flat[prefix + key] += value

    add("station.", body.get("station"))
    add("server.", body.get("server"))
    add("gateway.", body.get("gateway"))
    if "per_backend" in body:
        for entry in body["per_backend"].values():
            add("store.", entry.get("store"))
    else:
        add("store.", body.get("store"))
    return flat


def _meter(fields) -> Meter:
    meter = Meter()
    for name, value in fields.items():
        setattr(meter, name, value)
    return meter


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def count_pass(client, stats_session, stream, units, scheme_of, phase):
    """Send the requests of ``units`` stream units one at a time; the
    count metrics.

    Meter counts are work done, so they are taken from views that missed
    the view cache; the simulated Table-1 times charge every view, as
    the station's cost accounting does."""
    model = CostModel(CONTEXTS["smartcard"])
    total = Counter()
    sim = Counter()
    #: View counts per scheme, and over all schemes under "".
    views_by = defaultdict(Counter)
    before = flat_stats(stats_session.stats())
    for request in chain.from_iterable(islice(stream, units)):
        trailer = client.send(request, phase)
        after = flat_stats(stats_session.stats())
        delta = Counter({key: after[key] - before.get(key, 0) for key in after})
        before = after
        if trailer is None:
            continue
        page_lookups = delta["store.page_hits"] + delta["store.page_misses"]
        total.update(
            {
                "page_hits": delta["store.page_hits"],
                "page_lookups": page_lookups,
                "planned_chunks": delta["station.index_planned_chunks"],
                "index_chunks": delta["station.index_chunks_total"],
                "retries": delta["gateway.failovers"],
            }
        )
        if request[0] == "update":
            total.update({"updates": 1, "bytes_written": delta["store.bytes_written"]})
            continue
        meter = trailer.get("meter", {})
        for field, seconds in model.breakdown(_meter(meter)).as_dict().items():
            sim[field] += seconds
        work = Counter() if trailer.get("cached") else Counter(meter)
        view = {
            "views": 1,
            "cached": int(bool(trailer.get("cached"))),
            "indexed": int(trailer.get("served") == "indexed"),
            "wire_bytes": delta["server.bytes_streamed"],
            "page_lookups": page_lookups,
            "store_bytes_read": delta["store.bytes_read"],
            "chunks": work["chunks_accessed"],
            "decrypted": work["bytes_decrypted"],
            "transferred": work["bytes_transferred"],
            "events": work["events"],
            "token_ops": work["token_ops"],
        }
        for bucket in ("", scheme_of[request[1]]):
            views_by[bucket].update(view)
    every = views_by[""]
    views = every["views"]
    metrics = {
        "server.wire_bytes_per_view": _ratio(every["wire_bytes"], views),
        "engine.view_hit_ratio": _ratio(every["cached"], views),
        "engine.indexed_share": _ratio(every["indexed"], views),
        "store.page_hit_ratio": _ratio(total["page_hits"], total["page_lookups"]),
        "store.bytes_written_per_update": _ratio(
            total["bytes_written"], total["updates"]
        ),
        "skipindex.planned_chunk_share": _ratio(
            total["planned_chunks"], total["index_chunks"]
        ),
        "accesscontrol.events_per_view": _ratio(every["events"], views),
        "accesscontrol.token_ops_per_view": _ratio(every["token_ops"], views),
        "cluster.retries": float(total["retries"]),
    }
    for field in SIM_FIELDS:
        metrics["soe.sim_%s_ms" % field] = _ratio(sim[field] * 1000.0, views)
    for scheme in ("",) + SCHEMES:
        counts = views_by[scheme]
        suffix = "." + scheme if scheme else ""
        metrics["store.fetches_per_chunk" + suffix] = _ratio(
            counts["page_lookups"], counts["chunks"]
        )
        metrics["store.read_amp" + suffix] = _ratio(
            counts["store_bytes_read"], counts["transferred"]
        )
        metrics["crypto.bytes_decrypted_per_view" + suffix] = _ratio(
            counts["decrypted"], counts["views"]
        )
        metrics["crypto.chunks_per_view" + suffix] = _ratio(
            counts["chunks"], counts["views"]
        )
    return metrics


def closed_loop(clients, streams, seconds: float) -> Phase:
    """Every client sends its next request as soon as its reply is in,
    until ``seconds`` have passed; returns the merged observations."""
    phases = [Phase() for _ in clients]
    go = threading.Event()
    window = {}

    def loop(client, stream, phase):
        go.wait()
        stop_at = window["stop"]
        # The deadline is checked before a unit is drawn, so a phase sends
        # all of a unit or none of it and the next phase goes on from there.
        while perf_counter() < stop_at:
            for request in next(stream):
                client.send(request, phase)

    threads = [
        threading.Thread(target=loop, args=args, daemon=True)
        for args in zip(clients, streams, phases)
    ]
    for thread in threads:
        thread.start()
    merged = Phase()
    merged.start = perf_counter()
    window["stop"] = merged.start + seconds
    go.set()
    for thread in threads:
        thread.join(seconds + 60)
        if thread.is_alive():
            raise TimeoutError("a client did not finish its closed loop")
    for phase in phases:
        merged.merge(phase)
    return merged


def verify(phases, oracle: Oracle) -> int:
    """Check every recorded view; returns the number of wrong ones."""
    wrong = 0
    for phase in phases:
        for (document, subject, query, version, data), n in phase.views.items():
            if not oracle.check(document, subject, query, version, data):
                phase.failed_views += n
                wrong += n
    return wrong


def latency_metrics(prefix: str, samples, samples_out) -> dict:
    """Nearest-rank p50 and p95 (0 when the phase had no such request)."""
    samples_out[prefix] = len(samples)
    if not samples:
        return {prefix + "_p50_ms": 0.0, prefix + "_p95_ms": 0.0}
    return {
        prefix + "_p50_ms": nearest_rank(samples, 50),
        prefix + "_p95_ms": nearest_rank(samples, 95),
    }


def layer_metrics(workload, ledger_reply, client_totals, traced: Phase):
    """Per-request milliseconds per layer from the traced phase."""
    serving = defaultdict(float, ledger_reply["serving"])
    views = len(traced.view_ms)
    updates = len(traced.update_ms)
    counts = {"requests": views + updates, "updates": updates}
    metrics = {
        metric: _ratio(serving[name] * 1000.0, counts[denominator])
        for metric, (name, denominator) in LAYER_TIMES.items()
    }
    metrics["server.client_ms"] = _ratio(
        client_totals.get("server.client", 0.0) * 1000.0, views
    )
    parsed = ledger_reply["setup"].get("xmlkit.parse", 0.0)
    metrics["xmlkit.parse_ms"] = _ratio(parsed * 1000.0, workload.documents)
    gateway = 0.0
    if serving["cluster.gateway"]:
        gateway = (
            serving["cluster.gateway"]
            + serving["cluster.ring"]
            - ledger_reply["backend_request_s"]
        )
    metrics["cluster.gateway_ms"] = _ratio(gateway * 1000.0, counts["requests"])
    metrics["unattributed_ms"] = _ratio(
        serving["server.request"] * 1000.0, counts["requests"]
    )
    return metrics


def simulated_vs_measured(traced: Phase, layers) -> dict:
    """Table-1 simulated ms per view next to the measured layers."""
    model = CostModel(CONTEXTS["smartcard"])
    per_key = Counter()
    for (document, subject, query, version, _data), n in traced.views.items():
        per_key[(document, subject, query, version)] += n
    simulated = Counter()
    for key, n in per_key.items():
        breakdown = model.breakdown(_meter(traced.meters[key])).as_dict()
        for field in SIM_FIELDS:
            simulated[field] += n * breakdown[field] * 1000.0
    views = len(traced.view_ms)
    requests = views + len(traced.update_ms)
    table = {}
    for field, names in SIMULATED_VS_MEASURED.items():
        # Layer metrics are per request; the table is per view.
        measured = sum(layers[name] for name in names) * _ratio(requests, views)
        table[field] = {
            "simulated_ms": _ratio(simulated[field], views),
            "measured_ms": measured,
            "layers": list(names),
        }
    return table


def provenance(root: Path, args, ready, samples, steal_share) -> dict:
    digest = hashlib.sha1()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(path.read_bytes())
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(root), "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "commit": commit or None,
        "source_sha1": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "compute_backend": ready["backend"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": samples,
        # Timing metrics slow down in step with this on a shared host.
        "cpu_steal_share": steal_share,
    }


def run(args, root: Path) -> int:
    workload = WORKLOADS[args.workload]
    run_dir = root / ".perfbench" / (
        "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    )
    run_dir.mkdir(parents=True, exist_ok=True)
    docs = documents(workload, args.seed)
    scheme_of = {doc.id: doc.scheme for doc in docs}
    oracle = Oracle({doc.id: doc.xml for doc in docs}, policies())
    count = Phase()
    warm_up = timed = traced = None
    client_totals = {}
    ledger_reply = None
    serving_cpus, client_cpus = split_cpus()
    os.sched_setaffinity(0, client_cpus)
    serving, setup_seconds = launch_serving(root, run_dir, args, serving_cpus)
    clients = []
    try:
        address = serving.ready["address"]
        probe = Client(address, oracle)
        clients.append(probe)
        writers = range(workload.written)
        stream = RequestStream(workload, docs, args.seed, COUNT_STREAM, list(writers))
        with repro.connect(tuple(address), SUBJECTS[0], timeout=60) as stats:
            counts = count_pass(
                probe, stats, iter(stream), workload.count_units, scheme_of, count
            )
        loop_clients = [Client(address, oracle) for _ in range(CLIENTS)]
        clients += loop_clients
        streams = [
            iter(
                RequestStream(
                    workload,
                    docs,
                    args.seed,
                    index,
                    [index] if index in writers else [],
                )
            )
            for index in range(CLIENTS)
        ]
        warm_up = closed_loop(loop_clients, streams, args.seconds * WARM_UP_SHARE)
        # A traced run of a workload with updates gives its untraced phase
        # twice the time: the update percentiles it reports need 200
        # updates even on a slow machine.
        seconds = args.seconds * (2 if args.trace and workload.update_share else 1)
        steal_before = cpu_steal()
        cpu_before = serving.command("cpu")["cpu_s"] + process_time()
        timed = closed_loop(loop_clients, streams, seconds)
        cpu_seconds = serving.command("cpu")["cpu_s"] + process_time() - cpu_before
        steal = [after - before for after, before in zip(cpu_steal(), steal_before)]
        if args.trace:
            serving.command("trace")
            client_ledger = Ledger()
            client_ledger.install(CLIENT_SPANS)
            try:
                traced = closed_loop(loop_clients, streams, args.seconds)
            finally:
                client_ledger.uninstall()
            client_totals = client_ledger.totals()
            ledger_reply = serving.command("ledger", timeout=120)
        peak_rss = serving.command("rss")["peak_rss_mib"]
    finally:
        for client in clients:
            client.close()
        serving.close()

    phases = [count, warm_up, timed] + ([traced] if traced else [])
    wrong = verify(phases, oracle)
    attempted = sum(phase.requests for phase in phases)
    failed = wrong + sum(phase.errors for phase in phases)
    samples = {}
    ready = serving.ready
    end_to_end = {
        "setup_s": statistics.median(setup_seconds),
        "server_rss_mb": peak_rss,
        "space_amp": _ratio(ready["stored_bytes"], ready["source_bytes"]),
    }
    timed_figures = latency_metrics("view", timed.view_ms, samples)
    timed_figures["view_rps"] = _ratio(timed.verified_views, timed.elapsed)
    timed_figures["request_cpu_ms"] = _ratio(
        cpu_seconds * 1000.0, timed.verified_views + len(timed.update_ms)
    )
    per_layer = dict(counts)
    per_layer["failed_ratio"] = _ratio(failed, attempted)
    report = {
        "end_to_end": end_to_end,
        "timed": timed_figures,
        "setup_s_launches": setup_seconds,
    }
    if traced is not None:
        per_layer.update(timed_figures)
        per_layer.update(latency_metrics("update", timed.update_ms, samples))
        per_layer["update_rps"] = _ratio(len(timed.update_ms), timed.elapsed)
        layers = layer_metrics(workload, ledger_reply, client_totals, traced)
        samples["traced_view"] = len(traced.view_ms)
        layers["trace_overhead"] = _ratio(
            nearest_rank(traced.view_ms, 50), timed_figures["view_p50_ms"]
        )
        per_layer.update(layers)
        report["simulated_vs_measured"] = simulated_vs_measured(traced, layers)
        report["ledger_raw_s"] = ledger_reply
        report["client_ledger_raw_s"] = client_totals
    report["per_layer"] = per_layer
    report["provenance"] = provenance(root, args, ready, samples, _ratio(*steal))
    report["attempted"], report["failed"] = attempted, failed
    with open(run_dir / "report.json", "w") as sink:
        json.dump(report, sink, indent=1, sort_keys=True)

    shown = per_layer if args.trace else end_to_end
    units = _units(root, "per_layer" if args.trace else "end_to_end")
    if set(shown) != set(units):
        raise RuntimeError(
            "metrics do not match BENCHMARK.json: %s"
            % sorted(set(shown).symmetric_difference(units))
        )
    for name in sorted(shown):
        print("%-40s %14.6g %s" % (name, shown[name], units[name]))
    if traced is not None:
        print("simulated vs measured, ms per view:")
        for field, row in report["simulated_vs_measured"].items():
            print(
                "  %-15s simulated %9.4f  measured %9.4f  (%s)"
                % (
                    field,
                    row["simulated_ms"],
                    row["measured_ms"],
                    " + ".join(row["layers"]),
                )
            )
    print("provenance: " + json.dumps(report["provenance"], sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in sorted(shown.items())
        },
    }
    print(json.dumps(result))
    return 0


def _units(root: Path, family: str) -> dict:
    """Metric name -> unit for one family of BENCHMARK.json."""
    with open(root / "BENCHMARK.json") as source:
        return {metric["name"]: metric["unit"] for metric in json.load(source)[family]}

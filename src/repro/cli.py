"""Command-line interface.

Exposes the pipeline end to end::

    python -m repro inspect  doc.xml
    python -m repro encode   doc.xml doc.xskp
    python -m repro protect  doc.xml doc.store --scheme ECB-MHT --key 00112233445566778899aabbccddeeff
    python -m repro view     doc.store --key 001122... --rule "+://book" --rule "-://internal" [--query "//book[price < 20]"]
    python -m repro bench    [table1 table2 fig8 fig9 fig10 fig11 fig12 server updates hotpath]
    python -m repro serve    --port 8471 [--hospital 3 | --store doc.store --key ... --rule ... --subject bob]
    python -m repro serve    --port 8471 --store ./station-data --cache-mb 64   # persistent chunk log
    python -m repro cluster  --backends 3 --replicas 2 [--documents 2 --port 8470] [--store ./cluster-data]
    python -m repro store    inspect ./station-data [--format json]
    python -m repro store    compact ./station-data
    python -m repro remote-view 127.0.0.1:8471 hospital --subject secretary [--query ...]
    python -m repro update   127.0.0.1:8471 hospital --subject secretary --kind update-text --path 0,1 --text "new value"
    python -m repro loadgen  127.0.0.1:8471 --clients 8 --queries 5 [--mix "subject[:weight[:query]]" ...]
    python -m repro loadgen  --cluster 3 --replicas 2 --kill-one --output BENCH_cluster.json
    python -m repro stats    127.0.0.1:8470 [--format table|csv|json]
    python -m repro top      127.0.0.1:8470 [--interval 2] [--once]

The protected store is a self-describing file: one JSON header line
(scheme name, layout, plaintext size) followed by the raw terminal
bytes.  The key never appears in the file — it travels via the secure
channel (see :mod:`repro.soe.provisioning`), or here, the command line.

``--store`` is overloaded for compatibility: an existing regular file
is the legacy single-document protected store above; anything else is
treated as a :class:`repro.store.LogStore` directory (created on first
use) holding the station's whole persistent document set.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.accesscontrol.model import AccessRule, Policy
from repro.crypto.chunks import ChunkLayout
from repro.crypto.integrity import SCHEMES, SecureDocument, make_scheme
from repro.engine import DocumentPipeline, compile_policy
from repro.skipindex.variants import encoding_report
from repro.soe.costmodel import CONTEXTS
from repro.soe.session import PreparedDocument, SecureSession
from repro.skipindex.decoder import decode_document, EncodedDocument
from repro.skipindex.decoder import read_header
from repro.xmlkit.parser import parse_document
from repro.xmlkit.serializer import serialize_events

STORE_MAGIC = "XPROT1"


def _load_xml(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_document(handle.read())


def _parse_key(text: Optional[str]) -> bytes:
    if not text:
        return b"\x00" * 16
    key = bytes.fromhex(text)
    if len(key) != 16:
        raise SystemExit("key must be 16 bytes (32 hex characters)")
    return key


def _parse_rules(rule_args: List[str]) -> List[AccessRule]:
    rules = []
    for raw in rule_args:
        if ":" not in raw or raw[0] not in "+-":
            raise SystemExit(
                "rule must look like '+://path' or '-://path', got %r" % raw
            )
        sign, _sep, expression = raw.partition(":")
        rules.append(AccessRule(sign, expression))
    return rules


# ----------------------------------------------------------------------
def cmd_inspect(args) -> int:
    tree = _load_xml(args.document)
    print("document statistics:")
    print("  elements:      %d" % tree.count_elements())
    print("  text nodes:    %d" % tree.count_text_nodes())
    print("  text bytes:    %d" % tree.text_size())
    print("  max depth:     %d" % tree.max_depth())
    print("  avg depth:     %.2f" % tree.average_depth())
    print("  distinct tags: %d" % len(tree.distinct_tags()))
    print("encodings (structure/text %):")
    for name, stats in encoding_report(tree).items():
        print(
            "  %-6s total=%8d bytes  struct/text=%6.1f%%"
            % (name, stats.total_bytes, 100.0 * stats.struct_text_ratio())
        )
    return 0


def cmd_encode(args) -> int:
    from repro.engine import EncodeStage, ParseStage

    with open(args.document, "r", encoding="utf-8") as handle:
        source = handle.read()
    ctx = DocumentPipeline([ParseStage(), EncodeStage()]).run(source=source)
    encoded = ctx.encoded
    with open(args.output, "wb") as handle:
        handle.write(encoded.data)
    print(
        "encoded %d elements into %d bytes (%d dictionary entries, "
        "%d fixpoint rounds)"
        % (
            ctx.tree.count_elements(),
            len(encoded.data),
            len(encoded.dictionary),
            encoded.stats.fixpoint_rounds,
        )
    )
    return 0


def cmd_decode(args) -> int:
    with open(args.store, "rb") as handle:
        data = handle.read()
    dictionary, offset = read_header(data)
    from repro.skipindex.encoder import EncodedDocument as _Enc
    from repro.skipindex.encoder import EncodingStats

    document = _Enc(data, dictionary, EncodingStats(), offset)
    tree = decode_document(document)
    from repro.xmlkit.serializer import serialize

    sys.stdout.write(serialize(tree, indent=2))
    return 0


def cmd_protect(args) -> int:
    key = _parse_key(args.key)
    with open(args.document, "r", encoding="utf-8") as handle:
        source = handle.read()
    pipeline = DocumentPipeline.publisher(scheme=args.scheme, key=key)
    prepared = pipeline.run(source=source).prepared
    secure = prepared.secure
    header = json.dumps(
        {
            "magic": STORE_MAGIC,
            "scheme": args.scheme,
            "plaintext_size": secure.plaintext_size,
            "chunk_size": prepared.scheme.layout.chunk_size,
            "fragment_size": prepared.scheme.layout.fragment_size,
        }
    )
    with open(args.output, "wb") as handle:
        handle.write(header.encode("utf-8") + b"\n")
        handle.write(bytes(secure.stored))
    print(
        "protected with %s: %d plaintext -> %d stored bytes"
        % (args.scheme, secure.plaintext_size, secure.stored_size())
    )
    return 0


def _load_store(path: str, key: bytes) -> PreparedDocument:
    with open(path, "rb") as handle:
        header_line = handle.readline()
        stored = handle.read()
    header = json.loads(header_line.decode("utf-8"))
    if header.get("magic") != STORE_MAGIC:
        raise SystemExit("not a repro protected store")
    layout = ChunkLayout(
        chunk_size=header["chunk_size"], fragment_size=header["fragment_size"]
    )
    scheme = make_scheme(header["scheme"], key=key, layout=layout)
    secure = SecureDocument(scheme, stored, header["plaintext_size"])
    # Recover the dictionary by reading the (decrypted) header region.
    from repro.crypto.integrity import SecureBytes
    from repro.metrics import Meter
    from repro.skipindex.encoder import EncodingStats

    probe = SecureBytes(scheme.reader(secure, Meter()))
    dictionary, offset = read_header(probe)
    encoded = EncodedDocument(b"", dictionary, EncodingStats(), offset)
    return PreparedDocument(encoded, scheme, secure)


def cmd_view(args) -> int:
    key = _parse_key(args.key)
    prepared = _load_store(args.store, key)
    rules = _parse_rules(args.rule or [])
    policy = Policy(rules, subject=args.subject or "", dummy_tag=args.dummy_tag)
    plan = compile_policy(policy)
    session = SecureSession(
        prepared,
        plan,
        query=args.query,
        context=args.context,
        use_skip_index=not args.brute_force,
    )
    result = session.run()
    print(serialize_events(result.events))
    if args.costs:
        breakdown = result.breakdown
        print(
            "# simulated %.4f s on %s "
            "(comm %.4f, dec %.4f, ac %.4f, integrity %.4f); "
            "%d bytes in, %d bytes out, %d subtrees skipped"
            % (
                result.seconds,
                session.context.name,
                breakdown.communication,
                breakdown.decryption,
                breakdown.access_control,
                breakdown.integrity,
                result.meter.bytes_transferred,
                result.meter.bytes_delivered,
                result.meter.skipped_subtrees,
            ),
            file=sys.stderr,
        )
    return 0


def cmd_bench(args) -> int:
    from repro.bench.__main__ import main as bench_main

    argv = list(args.experiments)
    if args.format != "table":
        argv += ["--format", args.format]
    if args.backend:
        argv += ["--backend", args.backend]
    return bench_main(argv)


# ----------------------------------------------------------------------
# Network layer (repro.server)
# ----------------------------------------------------------------------
def _slow_query_printer(record) -> None:
    """Slow-query sink: dump the full span tree to stderr as it lands."""
    from repro.obs.trace import format_span_tree

    print(format_span_tree(record.as_dict()), file=sys.stderr, flush=True)


def _start_metrics(registry, args):
    """Boot the Prometheus endpoint when ``--metrics-port`` was given."""
    if getattr(args, "metrics_port", None) is None:
        return None
    from repro.obs.http import MetricsServer

    metrics_server = MetricsServer(
        registry, args.metrics_port, host=args.host
    ).start()
    print("metrics on http://%s/metrics" % metrics_server.address, flush=True)
    return metrics_server


def _open_store_arg(path: str, cache_mb, sync: str):
    from repro.store import open_store

    cache_bytes = None if cache_mb is None else int(cache_mb) * 1024 * 1024
    return open_store(path, cache_bytes=cache_bytes, sync=sync)


def cmd_serve(args) -> int:
    import asyncio
    import os

    from repro import open_station
    from repro.engine import PublishOptions, StationConfig
    from repro.server.service import StationServer, hospital_station

    if args.store and os.path.isfile(args.store):
        # Legacy single-document protected store file.
        key = _parse_key(args.key)
        prepared = _load_store(args.store, key)
        station = open_station(
            StationConfig(context=args.context, backend=args.backend)
        )
        document_id = args.document_id
        station.publish(document_id, prepared, PublishOptions(index=args.index))
        rules = _parse_rules(args.rule or [])
        if not rules:
            raise SystemExit("--store serving needs at least one --rule")
        subject = args.subject or ""
        policy = Policy(rules, subject=subject)
        station.grant(document_id, policy, subject=subject)
        subjects = [subject]
    else:
        chunk_store = None
        if args.store:
            chunk_store = _open_store_arg(args.store, args.cache_mb, args.sync)
        station, subjects = hospital_station(
            folders=args.hospital,
            context=args.context,
            backend=args.backend,
            store=chunk_store,
            index=args.index,
        )
        document_id = "hospital"

    server = StationServer(
        station,
        host=args.host,
        port=args.port,
        chunk_size=args.chunk_size,
        queue_depth=args.queue_depth,
        seal=args.seal,
        allow_updates=not args.readonly,
        slow_ms=args.slow_ms,
        slow_sink=_slow_query_printer if args.slow_ms is not None else None,
    )
    metrics_server = _start_metrics(server.registry, args)

    async def amain() -> None:
        host, port = await server.start()
        print(
            "serving %r on %s:%d (subjects: %s, backend: %s)%s"
            % (
                document_id,
                host,
                port,
                ", ".join(subjects),
                station.backend.name,
                " [sealed link]" if args.seal else "",
            ),
            flush=True,
        )
        await server.serve_forever()

    try:
        asyncio.run(amain())
    except KeyboardInterrupt:
        print("station server stopped", file=sys.stderr)
    finally:
        if metrics_server is not None:
            metrics_server.stop()
        # Shutdown summary: the operational counters (plan/view cache
        # behaviour, volumes) that were previously visible only
        # in-process — remote operators get them live via STATS, and
        # here one last time on the way out.
        summary = {
            "station": station.stats.as_dict(),
            "cached_plans": station.cached_plans(),
            "cached_views": station.cached_views(),
            "backend": station.backend.describe(),
            "store": station.store.describe(),
            "server": dict(server.server_stats),
            "meter": {
                k: v for k, v in server.meter.as_dict().items() if v
            },
        }
        print(json.dumps(summary, indent=2), file=sys.stderr)
        station.close()
    return 0


def cmd_cluster(args) -> int:
    """Boot the in-process sharded cluster and serve until interrupted."""
    import time

    from repro.cluster.topology import hospital_cluster

    cluster, document_ids, subjects = hospital_cluster(
        backends=args.backends,
        replicas=args.replicas,
        documents=args.documents,
        folders=args.folders,
        context=args.context,
        host=args.host,
        gateway_port=args.port,
        slow_ms=args.slow_ms,
        trace=args.trace,
        store_dir=args.store,
        cache_mb=args.cache_mb,
    )
    metrics_server = None
    if cluster.gateway is not None:
        if args.slow_ms is not None:
            cluster.gateway.tracer.slow_sink = _slow_query_printer
        metrics_server = _start_metrics(cluster.gateway.registry, args)
    try:
        host, port = cluster.gateway_address
        print(
            "cluster gateway on %s:%d — %d backends, R=%d (subjects: %s)"
            % (host, port, args.backends, args.replicas, ", ".join(subjects)),
            flush=True,
        )
        for name, node in sorted(cluster.nodes.items()):
            print(
                "  backend %-8s %s:%d" % (name, node.address[0], node.address[1]),
                flush=True,
            )
        for document_id in document_ids:
            print(
                "  document %-12s primary=%s"
                % (document_id, cluster.primary_of(document_id)),
                flush=True,
            )
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        print("cluster stopped", file=sys.stderr)
    finally:
        if metrics_server is not None:
            metrics_server.stop()
        gateway = cluster.gateway
        if gateway is not None:
            print(
                json.dumps(
                    {
                        "gateway": dict(gateway.gateway_stats),
                        "observability": gateway.tracer.stats(),
                    },
                    indent=2,
                ),
                file=sys.stderr,
            )
        cluster.stop()
    return 0


def cmd_store(args) -> int:
    """Offline maintenance of a persistent chunk-store directory."""
    import os

    from repro.store import LogStore, StoreError

    if not os.path.isdir(args.directory):
        raise SystemExit("not a store directory: %s" % args.directory)
    try:
        store = LogStore(args.directory)
    except StoreError as exc:
        raise SystemExit("cannot open store: %s" % exc)
    try:
        if args.action == "compact":
            before = store.describe()
            stats = store.compact()
            print(
                "compacted generation %d -> %d: %d -> %d bytes "
                "(%d documents, %d bytes reclaimed)"
                % (
                    before["generation"],
                    stats["generation"],
                    stats["log_bytes_before"],
                    stats["log_bytes_after"],
                    stats["documents"],
                    stats["reclaimed_bytes"],
                )
            )
            return 0
        description = store.describe()
        description["document_versions"] = store.versions()
        if args.format == "json":
            print(json.dumps(description, indent=2, sort_keys=True))
            return 0
        print("store %s (generation %d)" % (args.directory, description["generation"]))
        for key in (
            "documents",
            "log_bytes",
            "live_bytes",
            "segments",
            "manifest_replays",
            "torn_bytes_dropped",
            "orphan_records_dropped",
            "lost_entries_dropped",
            "compactions",
        ):
            print("  %-24s %s" % (key, description.get(key, "-")))
        for document_id, version in sorted(store.versions().items()):
            print("  document %-16s v%d" % (document_id, version))
    finally:
        store.close()
    return 0


def cmd_remote_view(args) -> int:
    from repro.server.client import RemoteError, RemoteSession
    from repro.server.loadgen import parse_address

    host, port = parse_address(args.address)
    with RemoteSession(
        host, port, args.subject or "", connect_retry=args.connect_retry
    ) as session:
        try:
            result = session.evaluate(args.document, query=args.query)
        except RemoteError as exc:
            raise SystemExit("server refused the query -- %s" % exc)
        sys.stdout.write(result.text)
        if result.text and not result.text.endswith("\n"):
            sys.stdout.write("\n")
        if args.costs:
            print(
                "# %d bytes in %d chunks; simulated %.4f s on the SOE"
                % (result.result_bytes, result.chunks, result.seconds),
                file=sys.stderr,
            )
        if args.stats:
            print(json.dumps(session.stats(), indent=2), file=sys.stderr)
    return 0


def cmd_stats(args) -> int:
    """One STATS round-trip, rendered as a table, CSV or JSON."""
    from repro.obs.dashboard import render_stats
    from repro.server.client import RemoteSession
    from repro.server.loadgen import parse_address

    host, port = parse_address(args.address)
    try:
        with RemoteSession(
            host, port, args.subject or "@stats", connect_retry=args.connect_retry
        ) as session:
            body = session.stats()
    except (ConnectionError, OSError) as exc:
        raise SystemExit(
            "cannot reach station at %s:%d -- %s" % (host, port, exc)
        )
    print(render_stats(body, args.format))
    return 0


def cmd_top(args) -> int:
    """Live terminal dashboard over a station server or gateway.

    Redraws every ``--interval`` seconds from STATS round-trips —
    per-backend throughput, latency percentiles, view-cache hit rate,
    native-kernel availability and ring health.
    ``--once`` prints a single frame and exits (scripts, tests).
    """
    import time

    from repro.obs.dashboard import render_top
    from repro.server.client import RemoteSession
    from repro.server.loadgen import parse_address

    host, port = parse_address(args.address)
    address = "%s:%d" % (host, port)
    try:
        with RemoteSession(
            host,
            port,
            args.subject or "@top",
            connect_retry=args.connect_retry,
            auto_reconnect=True,
        ) as session:
            previous = None
            try:
                while True:
                    body = session.stats()
                    text = render_top(body, previous, args.interval, address)
                    if args.once:
                        print(text)
                        return 0
                    # Clear + home, then one frame; plain ANSI keeps this
                    # dependency-free and scrollback-friendly under watch.
                    sys.stdout.write("\x1b[2J\x1b[H" + text + "\n")
                    sys.stdout.flush()
                    previous = body
                    time.sleep(args.interval)
            except KeyboardInterrupt:
                print()
    except (ConnectionError, OSError) as exc:
        # A dashboard pointed at a dead or unreachable server is an
        # operator typo, not a crash: one line, non-zero exit.
        raise SystemExit(
            "cannot reach station at %s -- %s" % (address, exc)
        )
    return 0


def _parse_index_path(text: str) -> List[int]:
    if not text:
        return []
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise SystemExit("--path must be comma-separated indexes, e.g. '0,2'")


def cmd_update(args) -> int:
    """Apply one live edit to a document on a running station server."""
    from repro.server.client import RemoteError, RemoteSession
    from repro.server.loadgen import parse_address
    from repro.skipindex.updates import UpdateError, UpdateOp
    from repro.xmlkit.parser import parse_document

    node = None
    if args.xml:
        node = parse_document(args.xml)
    try:
        op = UpdateOp(
            args.kind.replace("-", "_"),
            _parse_index_path(args.path or ""),
            text=args.text,
            tag=args.tag,
            node=node,
            position=args.at,
        )
    except UpdateError as exc:
        raise SystemExit("bad update: %s" % exc)
    host, port = parse_address(args.address)
    with RemoteSession(
        host, port, args.subject or "", connect_retry=args.connect_retry
    ) as session:
        try:
            trailer = session.update(args.document, op)
        except RemoteError as exc:
            raise SystemExit("server refused the update -- %s" % exc)
    summary = trailer.get("update", {})
    print(
        "updated %r to version %s: re-encrypted %s/%s chunks (%.1f%%%s), "
        "%s bytes"
        % (
            args.document,
            trailer.get("version"),
            summary.get("chunks_reencrypted"),
            summary.get("total_chunks"),
            100.0 * float(summary.get("dirtied_ratio", 0.0)),
            ", worst case" if summary.get("worst_case") else "",
            summary.get("reencrypted_bytes"),
        )
    )
    return 0


def cmd_loadgen(args) -> int:
    from repro.server.loadgen import main as loadgen_main

    argv = ["--clients", str(args.clients),
            "--queries", str(args.queries), "--document", args.document,
            "--output", args.output]
    if args.address:
        argv.insert(0, args.address)
    if args.cluster:
        argv += ["--cluster", str(args.cluster),
                 "--replicas", str(args.replicas),
                 "--cluster-documents", str(args.cluster_documents),
                 "--folders", str(args.folders)]
        if args.kill_one:
            argv += ["--kill-one"]
    for subject in args.subjects or []:
        argv += ["--subject", subject]
    if args.query:
        argv += ["--query", args.query]
    for spec in args.mix or []:
        argv += ["--mix", spec]
    if args.seed:
        argv += ["--seed", str(args.seed)]
    if args.backend:
        argv += ["--backend", args.backend]
    if args.trace:
        argv += ["--trace"]
    if args.slow_ms is not None:
        argv += ["--slow-ms", str(args.slow_ms)]
    return loadgen_main(argv)


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Client-based access control for XML documents "
        "(Bouganim et al., VLDB 2004).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_inspect = sub.add_parser("inspect", help="document statistics + Fig. 8 row")
    p_inspect.add_argument("document")
    p_inspect.set_defaults(func=cmd_inspect)

    p_encode = sub.add_parser("encode", help="Skip-index encode a document")
    p_encode.add_argument("document")
    p_encode.add_argument("output")
    p_encode.set_defaults(func=cmd_encode)

    p_decode = sub.add_parser("decode", help="decode an unencrypted .xskp file")
    p_decode.add_argument("store")
    p_decode.set_defaults(func=cmd_decode)

    p_protect = sub.add_parser("protect", help="encode + encrypt for the terminal")
    p_protect.add_argument("document")
    p_protect.add_argument("output")
    p_protect.add_argument("--scheme", default="ECB-MHT", choices=sorted(SCHEMES))
    p_protect.add_argument("--key", help="16-byte hex key")
    p_protect.set_defaults(func=cmd_protect)

    p_view = sub.add_parser("view", help="authorized view of a protected store")
    p_view.add_argument("store")
    p_view.add_argument("--key", help="16-byte hex key")
    p_view.add_argument(
        "--rule",
        action="append",
        help="access rule, e.g. '+://Folder/Admin' or '-://internal' "
        "(repeatable)",
    )
    p_view.add_argument("--query", help="XPath query over the authorized view")
    p_view.add_argument("--subject", help="binds the USER variable")
    p_view.add_argument("--dummy-tag", help="rename denied ancestors to this tag")
    p_view.add_argument("--context", default="smartcard", choices=sorted(CONTEXTS))
    p_view.add_argument(
        "--brute-force", action="store_true", help="disable the Skip index"
    )
    p_view.add_argument(
        "--costs", action="store_true", help="print the cost report to stderr"
    )
    p_view.set_defaults(func=cmd_view)

    p_bench = sub.add_parser("bench", help="run the paper's experiments")
    p_bench.add_argument("experiments", nargs="*")
    p_bench.add_argument(
        "--format",
        choices=["table", "csv", "json"],
        default="table",
        help="output format for the result tables",
    )
    p_bench.add_argument(
        "--backend",
        choices=["pure", "native", "all", "auto"],
        help="compute backend for the hotpath experiment "
        "('all' measures every available one)",
    )
    p_bench.set_defaults(func=cmd_bench)

    p_serve = sub.add_parser(
        "serve", help="serve a station over TCP (repro.server)"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=8471, help="0 binds an ephemeral port"
    )
    p_serve.add_argument(
        "--hospital",
        type=int,
        default=3,
        metavar="FOLDERS",
        help="serve the generated hospital document with the three "
        "paper profiles (default)",
    )
    p_serve.add_argument(
        "--store",
        metavar="PATH",
        help="persistence: an existing file is served as a legacy "
        "protected store; otherwise a chunk-store directory (created "
        "on first use) that survives restarts",
    )
    p_serve.add_argument(
        "--cache-mb",
        type=int,
        metavar="N",
        help="page-cache budget for a directory --store (default 64)",
    )
    p_serve.add_argument(
        "--sync",
        choices=["commit", "batch"],
        default="commit",
        help="durability for a directory --store: fsync per commit "
        "(default) or only on flush/close",
    )
    p_serve.add_argument("--key", help="16-byte hex key for --store")
    p_serve.add_argument(
        "--rule", action="append", help="access rule for --store (repeatable)"
    )
    p_serve.add_argument("--subject", help="subject granted the --store rules")
    p_serve.add_argument(
        "--document-id", default="store", help="document id for --store"
    )
    p_serve.add_argument("--context", default="smartcard", choices=sorted(CONTEXTS))
    p_serve.add_argument("--chunk-size", type=int, default=4096)
    p_serve.add_argument("--queue-depth", type=int, default=8)
    p_serve.add_argument(
        "--seal",
        action="store_true",
        help="seal every chunk under the session link key",
    )
    p_serve.add_argument(
        "--readonly",
        action="store_true",
        help="refuse UPDATE frames (documents stay immutable)",
    )
    p_serve.add_argument(
        "--index",
        action="store_true",
        help="build the publish-time structural index so eligible "
        "queries are served from chunk-range plans",
    )
    p_serve.add_argument(
        "--backend",
        choices=["pure", "native", "auto"],
        default="auto",
        help="compute backend for the crypto hot paths "
        "(auto prefers the native C kernels when available)",
    )
    p_serve.add_argument(
        "--metrics-port",
        type=int,
        metavar="PORT",
        help="expose Prometheus metrics over HTTP on this port "
        "(0 binds an ephemeral port)",
    )
    p_serve.add_argument(
        "--slow-ms",
        type=float,
        metavar="MS",
        help="log traced requests at or above this many milliseconds, "
        "dumping their full span tree to stderr",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_cluster = sub.add_parser(
        "cluster",
        help="serve a sharded station cluster behind one gateway "
        "(repro.cluster)",
    )
    p_cluster.add_argument(
        "--backends", type=int, default=3, help="station backends to spawn"
    )
    p_cluster.add_argument(
        "--replicas", type=int, default=2, help="copies per document"
    )
    p_cluster.add_argument(
        "--documents",
        type=int,
        default=2,
        help="hospital documents spread over the shards",
    )
    p_cluster.add_argument(
        "--folders", type=int, default=3, help="hospital folders per document"
    )
    p_cluster.add_argument("--host", default="127.0.0.1")
    p_cluster.add_argument(
        "--port",
        type=int,
        default=8470,
        help="gateway port (0 binds an ephemeral port)",
    )
    p_cluster.add_argument(
        "--context", default="smartcard", choices=sorted(CONTEXTS)
    )
    p_cluster.add_argument(
        "--metrics-port",
        type=int,
        metavar="PORT",
        help="expose the gateway's Prometheus metrics over HTTP "
        "(0 binds an ephemeral port)",
    )
    p_cluster.add_argument(
        "--slow-ms",
        type=float,
        metavar="MS",
        help="gateway slow-query threshold; slow span trees go to stderr",
    )
    p_cluster.add_argument(
        "--trace",
        action="store_true",
        help="mint a trace id for every request, even from clients "
        "that did not stamp one",
    )
    p_cluster.add_argument(
        "--store",
        metavar="DIR",
        help="root directory for per-backend chunk stores; a restarted "
        "cluster recovers its documents instead of regenerating them",
    )
    p_cluster.add_argument(
        "--cache-mb",
        type=int,
        metavar="N",
        help="per-backend page-cache budget for --store (default 64)",
    )
    p_cluster.set_defaults(func=cmd_cluster)

    p_store = sub.add_parser(
        "store", help="inspect or compact a persistent chunk-store directory"
    )
    store_sub = p_store.add_subparsers(dest="action", required=True)
    p_store_inspect = store_sub.add_parser(
        "inspect", help="print recovery counters and per-document versions"
    )
    p_store_inspect.add_argument("directory")
    p_store_inspect.add_argument(
        "--format", choices=["table", "json"], default="table"
    )
    p_store_inspect.set_defaults(func=cmd_store)
    p_store_compact = store_sub.add_parser(
        "compact", help="rewrite live records into a fresh generation"
    )
    p_store_compact.add_argument("directory")
    p_store_compact.set_defaults(func=cmd_store)

    p_stats = sub.add_parser(
        "stats", help="one STATS snapshot from a server or gateway"
    )
    p_stats.add_argument("address", help="HOST:PORT")
    p_stats.add_argument(
        "--format", choices=["table", "csv", "json"], default="table"
    )
    p_stats.add_argument("--subject", help="subject to connect as")
    p_stats.add_argument("--connect-retry", type=float, default=5.0)
    p_stats.set_defaults(func=cmd_stats)

    p_top = sub.add_parser(
        "top", help="live terminal dashboard over a server or gateway"
    )
    p_top.add_argument("address", help="HOST:PORT")
    p_top.add_argument(
        "--interval", type=float, default=2.0, help="refresh period, seconds"
    )
    p_top.add_argument(
        "--once", action="store_true", help="print one frame and exit"
    )
    p_top.add_argument("--subject", help="subject to connect as")
    p_top.add_argument("--connect-retry", type=float, default=5.0)
    p_top.set_defaults(func=cmd_top)

    p_remote = sub.add_parser(
        "remote-view", help="authorized view from a running station server"
    )
    p_remote.add_argument("address", help="HOST:PORT")
    p_remote.add_argument("document", help="document id (e.g. 'hospital')")
    p_remote.add_argument("--subject", help="subject to connect as")
    p_remote.add_argument("--query", help="XPath query over the view")
    p_remote.add_argument(
        "--costs", action="store_true", help="print the cost line to stderr"
    )
    p_remote.add_argument(
        "--stats", action="store_true", help="print server STATS to stderr"
    )
    p_remote.add_argument("--connect-retry", type=float, default=5.0)
    p_remote.set_defaults(func=cmd_remote_view)

    p_update = sub.add_parser(
        "update", help="apply a live edit to a served document"
    )
    p_update.add_argument("address", help="HOST:PORT")
    p_update.add_argument("document", help="document id (e.g. 'hospital')")
    p_update.add_argument(
        "--kind",
        required=True,
        choices=["insert-element", "delete-element", "update-text", "rename-element"],
    )
    p_update.add_argument(
        "--path",
        help="comma-separated element-child indexes from the root "
        "(empty = the root itself)",
    )
    p_update.add_argument("--text", help="replacement text for update-text")
    p_update.add_argument("--tag", help="new tag for rename-element")
    p_update.add_argument("--xml", help="new element XML for insert-element")
    p_update.add_argument(
        "--at", type=int, help="insert position among element children"
    )
    p_update.add_argument("--subject", help="subject to connect as")
    p_update.add_argument("--connect-retry", type=float, default=5.0)
    p_update.set_defaults(func=cmd_update)

    p_load = sub.add_parser(
        "loadgen", help="drive N clients x M queries; writes BENCH_server.json"
    )
    p_load.add_argument(
        "address", nargs="?", help="HOST:PORT (omit with --cluster)"
    )
    p_load.add_argument(
        "--cluster",
        type=int,
        metavar="N",
        help="boot an in-process N-backend cluster and load its gateway",
    )
    p_load.add_argument("--replicas", type=int, default=2)
    p_load.add_argument("--cluster-documents", type=int, default=2)
    p_load.add_argument("--folders", type=int, default=2)
    p_load.add_argument(
        "--kill-one",
        action="store_true",
        help="failover drill: kill the first document's primary mid-run",
    )
    p_load.add_argument("--clients", type=int, default=8)
    p_load.add_argument("--queries", type=int, default=5)
    p_load.add_argument("--document", default="hospital")
    p_load.add_argument(
        "--subject", action="append", dest="subjects", help="repeatable"
    )
    p_load.add_argument("--query")
    p_load.add_argument(
        "--mix",
        action="append",
        metavar="SUBJECT[:WEIGHT[:QUERY]]",
        help="mixed workload: weighted (subject, query) classes "
        "(repeatable; reports per-class latency + cache hits)",
    )
    p_load.add_argument("--seed", type=int, default=0)
    p_load.add_argument("--output", default="BENCH_server.json")
    p_load.add_argument(
        "--backend",
        choices=["pure", "native", "auto"],
        help="compute backend of the in-process server under load "
        "(recorded in the report)",
    )
    p_load.add_argument(
        "--trace",
        action="store_true",
        help="stamp every request with a reproducible trace id and "
        "report server-side tracer counters",
    )
    p_load.add_argument(
        "--slow-ms",
        type=float,
        metavar="MS",
        help="slow-query threshold for the booted cluster gateway",
    )
    p_load.set_defaults(func=cmd_loadgen)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

"""Command-line interface.

Exposes the pipeline end to end::

    python -m repro inspect  doc.xml
    python -m repro encode   doc.xml doc.xskp
    python -m repro protect  doc.xml doc.store --scheme ECB-MHT --key 00112233445566778899aabbccddeeff
    python -m repro view     doc.store --key 001122... --rule "+://book" --rule "-://internal" [--query "//book[price < 20]"]
    python -m repro bench    [table1 table2 fig8 fig9 fig10 fig11 fig12 updates hotpath]
    python -m repro serve    --port 8471 [--hospital 3]
    python -m repro serve    --port 8471 --store ./station-data --cache-mb 64   # persistent chunk log
    python -m repro cluster  --backends 3 --replicas 2 [--documents 2 --port 8470] [--store ./cluster-data]
    python -m repro store    inspect ./station-data [--format json]
    python -m repro store    compact ./station-data
    python -m repro remote-view 127.0.0.1:8471 hospital --subject secretary [--query ...]
    python -m repro update   127.0.0.1:8471 hospital --subject secretary --kind update-text --path 0,1 --text "new value"
    python -m repro stats    127.0.0.1:8470 [--format table|csv|json]
    python -m repro top      127.0.0.1:8470 [--interval 2] [--once]

The protected store of ``protect``/``view`` is a self-describing
file: one JSON header line (scheme name, layout, plaintext size)
followed by the raw terminal bytes.  The key never appears in the
file — here it is given on the command line.

``serve --store`` and ``cluster --store`` take a
:class:`repro.store.LogStore` directory (created on first use) holding
the station's whole persistent document set; a regular file there is
refused, like ``store inspect`` refuses it.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Tuple

from repro.accesscontrol.model import AccessRule, Policy
from repro.crypto.chunks import ChunkLayout
from repro.crypto.integrity import SCHEMES, SecureDocument, make_scheme
from repro.engine import encode_source, evaluate_document, prepare_document
from repro.soe.costmodel import CONTEXTS
from repro.soe.session import PreparedDocument
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
    from repro.skipindex.variants import encoding_report

    print("encodings (structure/text %):")
    for name, stats in encoding_report(tree).items():
        print(
            "  %-6s total=%8d bytes  struct/text=%6.1f%%"
            % (name, stats.total_bytes, 100.0 * stats.struct_text_ratio())
        )
    return 0


def cmd_encode(args) -> int:
    tree = _load_xml(args.document)
    encoded = encode_source(tree)
    with open(args.output, "wb") as handle:
        handle.write(encoded.data)
    print(
        "encoded %d elements into %d bytes (%d dictionary entries, "
        "at most %d sizing rounds per element)"
        % (
            tree.count_elements(),
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
    prepared = prepare_document(source, args.scheme, key)
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
    result = evaluate_document(
        prepared,
        policy,
        query=args.query,
        context=args.context,
        use_skip_index=not args.brute_force,
    )
    print(serialize_events(result.events))
    if args.costs:
        breakdown = result.breakdown
        print(
            "# simulated %.4f s on %s "
            "(comm %.4f, dec %.4f, ac %.4f, integrity %.4f); "
            "%d bytes in, %d bytes out, %d subtrees skipped"
            % (
                result.seconds,
                result.context.name,
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


def _open_log_store(
    path: str, create: bool, cache_mb=None, sync: str = "commit"
):
    """Open a chunk-store directory (``create`` a missing one), or exit
    with a one-line diagnostic: a regular file, or a directory another
    process holds."""
    import os

    from repro.store import StoreError, open_store

    if not os.path.isdir(path) and (os.path.exists(path) or not create):
        raise SystemExit("not a store directory: %s" % path)
    cache_bytes = None if cache_mb is None else int(cache_mb) * 1024 * 1024
    try:
        return open_store(path, cache_bytes=cache_bytes, sync=sync)
    except StoreError as exc:
        raise SystemExit("cannot open store: %s" % exc)


def cmd_serve(args) -> int:
    import asyncio

    from repro.server.service import StationServer, hospital_station

    chunk_store = None
    if args.store:
        chunk_store = _open_log_store(
            args.store, create=True, cache_mb=args.cache_mb, sync=args.sync
        )
    station, subjects = hospital_station(
        folders=args.hospital,
        context=args.context,
        store=chunk_store,
        index=args.index,
    )

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
            "serving 'hospital' on %s:%d (subjects: %s, backend: %s)%s"
            % (
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
        # Shutdown summary: the STATS body, one last time on the way out.
        print(json.dumps(server.stats_body(), indent=2), file=sys.stderr)
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
                        "gateway": dict(gateway.stats),
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
    store = _open_log_store(args.directory, create=False)
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


def parse_address(text: str) -> Tuple[str, int]:
    """``HOST:PORT`` -> ``(host, port)``; the ``type=`` of every
    ``address`` positional, so a malformed one is a usage error."""
    from repro.server.client import parse_address as split_address

    try:
        return split_address(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def port_number(text: str) -> int:
    """``type=`` of every listening port: 0 (ephemeral) to 65535."""
    port = int(text)
    if not 0 <= port <= 65535:
        raise argparse.ArgumentTypeError("port must be 0-65535, got %s" % text)
    return port


def positive_int(text: str) -> int:
    """``type=`` of sizes and depths, which must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %s" % text)
    return value


def _unreachable(address: Tuple[str, int], exc: Exception) -> SystemExit:
    """A client verb pointed at a dead or unreachable station is an
    operator typo, not a crash: one line, non-zero exit."""
    return SystemExit("cannot reach station at %s:%d -- %s" % (*address, exc))


def cmd_remote_view(args) -> int:
    from repro.server.client import RemoteError, RemoteSession

    host, port = args.address
    try:
        with RemoteSession(
            host, port, args.subject or "", connect_retry=args.connect_retry
        ) as session:
            result = session.evaluate(args.document, query=args.query)
            stats = session.stats() if args.stats else None
    except RemoteError as exc:
        raise SystemExit("server refused the query -- %s" % exc)
    except (ConnectionError, OSError) as exc:
        raise _unreachable(args.address, exc)
    sys.stdout.write(result.text)
    if result.text and not result.text.endswith("\n"):
        sys.stdout.write("\n")
    if args.costs:
        print(
            "# %d bytes in %d chunks; simulated %.4f s on the SOE"
            % (result.result_bytes, result.chunks, result.seconds),
            file=sys.stderr,
        )
    if stats is not None:
        print(json.dumps(stats, indent=2), file=sys.stderr)
    return 0


def cmd_stats(args) -> int:
    """One STATS round-trip, rendered as a table, CSV or JSON."""
    from repro.obs.dashboard import render_stats
    from repro.server.client import RemoteSession

    host, port = args.address
    try:
        with RemoteSession(
            host, port, args.subject or "@stats", connect_retry=args.connect_retry
        ) as session:
            body = session.stats()
    except (ConnectionError, OSError) as exc:
        raise _unreachable(args.address, exc)
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

    host, port = args.address
    address = "%s:%d" % args.address
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
        raise _unreachable(args.address, exc)
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
    host, port = args.address
    try:
        with RemoteSession(
            host, port, args.subject or "", connect_retry=args.connect_retry
        ) as session:
            trailer = session.update(args.document, op)
    except RemoteError as exc:
        raise SystemExit("server refused the update -- %s" % exc)
    except (ConnectionError, OSError) as exc:
        raise _unreachable(args.address, exc)
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
    p_bench.set_defaults(func=cmd_bench)

    p_serve = sub.add_parser(
        "serve", help="serve a station over TCP (repro.server)"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=port_number, default=8471, help="0 binds an ephemeral port"
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
        metavar="DIR",
        help="persistence: a chunk-store directory (created on first "
        "use) that survives restarts",
    )
    p_serve.add_argument(
        "--cache-mb",
        type=positive_int,
        metavar="N",
        help="page-cache budget for --store (default 64)",
    )
    p_serve.add_argument(
        "--sync",
        choices=["commit", "batch"],
        default="commit",
        help="durability for --store: fsync per commit "
        "(default) or only on flush/close",
    )
    p_serve.add_argument("--context", default="smartcard", choices=sorted(CONTEXTS))
    p_serve.add_argument("--chunk-size", type=positive_int, default=4096)
    p_serve.add_argument("--queue-depth", type=positive_int, default=8)
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
        "--metrics-port",
        type=port_number,
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
        type=port_number,
        default=8470,
        help="gateway port (0 binds an ephemeral port)",
    )
    p_cluster.add_argument(
        "--context", default="smartcard", choices=sorted(CONTEXTS)
    )
    p_cluster.add_argument(
        "--metrics-port",
        type=port_number,
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
        type=positive_int,
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
    p_stats.add_argument("address", type=parse_address, help="HOST:PORT")
    p_stats.add_argument(
        "--format", choices=["table", "csv", "json"], default="table"
    )
    p_stats.add_argument("--subject", help="subject to connect as")
    p_stats.add_argument("--connect-retry", type=float, default=5.0)
    p_stats.set_defaults(func=cmd_stats)

    p_top = sub.add_parser(
        "top", help="live terminal dashboard over a server or gateway"
    )
    p_top.add_argument("address", type=parse_address, help="HOST:PORT")
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
    p_remote.add_argument("address", type=parse_address, help="HOST:PORT")
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
    p_update.add_argument("address", type=parse_address, help="HOST:PORT")
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

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

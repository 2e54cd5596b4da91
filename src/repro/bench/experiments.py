"""Experiment drivers: one function per paper table/figure.

Every function returns a dict with ``headers``/``rows`` (plus extra
series where applicable) so the pytest benches and the EXPERIMENTS.md
generator share one source of truth.  Paper reference values are
embedded where the paper states them, for side-by-side reporting.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.reporting import format_output, human_bytes
from repro.bench.workloads import Workloads
from repro.engine.pipeline import evaluate_document
from repro.engine.plans import compile_policy
from repro.skipindex.variants import encoding_report
from repro.soe.costmodel import CONTEXTS
from repro.soe.session import lwb_seconds
from repro.xmlkit.serializer import serialize

MB = 1_000_000.0


# ----------------------------------------------------------------------
# Table 1 — communication and decryption costs
# ----------------------------------------------------------------------
def table1_costs() -> Dict[str, object]:
    """The platform contexts (constants of the cost model)."""
    paper = {
        "smartcard": (0.5, 0.15),
        "sw-internet": (0.1, 1.2),
        "sw-lan": (10.0, 1.2),
    }
    rows = []
    for key, context in CONTEXTS.items():
        paper_comm, paper_dec = paper[key]
        rows.append(
            (
                context.name,
                "%.2f MB/s" % (context.communication_bps / MB),
                "%.2f MB/s" % (context.decryption_bps / MB),
                "%.2f / %.2f" % (paper_comm, paper_dec),
            )
        )
    return {
        "headers": ["Context", "Communication", "Decryption", "Paper (comm/dec)"],
        "rows": rows,
    }


# ----------------------------------------------------------------------
# Table 2 — document characteristics
# ----------------------------------------------------------------------
#: Paper's Table 2 (size, text, max depth, avg depth, tags, text nodes,
#: elements) — absolute sizes differ because our documents are scaled.
TABLE2_PAPER = {
    "wsu": ("1.3 MB", "210 KB", 4, 3.1, 20, 48820, 74557),
    "sigmod": ("350 KB", "146 KB", 6, 5.1, 11, 8383, 11526),
    "treebank": ("59 MB", "33 MB", 36, 7.8, 250, 1391845, 2437666),
    "hospital": ("3.6 MB", "2.1 MB", 8, 6.8, 89, 98310, 117795),
}


def table2_documents(workloads: Optional[Workloads] = None) -> Dict[str, object]:
    workloads = workloads or Workloads.shared()
    rows = []
    for name in ["wsu", "sigmod", "treebank", "hospital"]:
        doc = workloads.document(name)
        size = len(serialize(doc).encode("utf-8"))
        paper = TABLE2_PAPER[name]
        rows.append(
            (
                name,
                human_bytes(size),
                human_bytes(doc.text_size()),
                doc.max_depth(),
                round(doc.average_depth(), 1),
                len(doc.distinct_tags()),
                doc.count_text_nodes(),
                doc.count_elements(),
                "%s/%s d%s avg%s tags%s"
                % (paper[0], paper[1], paper[2], paper[3], paper[4]),
            )
        )
    return {
        "headers": [
            "Document", "Size", "Text", "MaxDepth", "AvgDepth",
            "Tags", "TextNodes", "Elements", "Paper (scaled doc)",
        ],
        "rows": rows,
    }


# ----------------------------------------------------------------------
# Fig. 8 — index storage overhead (struct / text %)
# ----------------------------------------------------------------------
#: Paper's Fig. 8 bars (struct/text %), per dataset, per variant.
FIG8_PAPER = {
    "wsu": {"NC": 542, "TC": 77, "TCS": 106, "TCSB": 142, "TCSBR": 82},
    "sigmod": {"NC": 142, "TC": 16, "TCS": 24, "TCSB": 31, "TCSBR": 15},
    "treebank": {"NC": 77, "TC": 15, "TCS": 36, "TCSB": 254, "TCSBR": 23},
    "hospital": {"NC": 67, "TC": 11, "TCS": 16, "TCSB": 38, "TCSBR": 14},
}

VARIANT_ORDER = ["NC", "TC", "TCS", "TCSB", "TCSBR"]


def fig8_index_overhead(workloads: Optional[Workloads] = None) -> Dict[str, object]:
    workloads = workloads or Workloads.shared()
    rows = []
    measured: Dict[str, Dict[str, float]] = {}
    for name in ["wsu", "sigmod", "treebank", "hospital"]:
        doc = workloads.document(name)
        report = encoding_report(doc)
        ratios = {
            variant: 100.0 * stats.struct_text_ratio()
            for variant, stats in report.items()
        }
        measured[name] = ratios
        for variant in VARIANT_ORDER:
            rows.append(
                (
                    name,
                    variant,
                    round(ratios[variant], 1),
                    FIG8_PAPER[name][variant],
                )
            )
    return {
        "headers": ["Document", "Encoding", "Struct/Text % (measured)", "Paper %"],
        "rows": rows,
        "measured": measured,
    }


# ----------------------------------------------------------------------
# Fig. 9 — access control overhead (BF / TCSBR / LWB)
# ----------------------------------------------------------------------
#: Paper's Fig. 9 absolute seconds (2.5 MB compressed Hospital).
FIG9_PAPER = {
    "secretary": {"BF": 19.5, "TCSBR": 1.4, "LWB": 1.3},
    "doctor": {"BF": 20.4, "TCSBR": 6.4, "LWB": 5.8},
    "researcher": {"BF": 19.5, "TCSBR": 2.4, "LWB": 1.8},
}


def fig9_access_control(
    workloads: Optional[Workloads] = None, context: str = "smartcard"
) -> Dict[str, object]:
    workloads = workloads or Workloads.shared()
    prepared = workloads.prepared("hospital", "ECB")
    rows = []
    details: Dict[str, Dict[str, object]] = {}
    for profile in ["secretary", "doctor", "researcher"]:
        policy = workloads.plan(profile)
        tcsbr = evaluate_document(prepared, policy, context=context)
        brute = evaluate_document(
            prepared, policy, context=context, use_skip_index=False
        )
        lwb = lwb_seconds(tcsbr.events, context)
        shares = tcsbr.breakdown.shares()
        paper = FIG9_PAPER[profile]
        rows.append(
            (
                profile,
                round(brute.seconds, 3),
                round(tcsbr.seconds, 3),
                round(lwb, 3),
                round(brute.seconds / lwb, 1) if lwb else float("inf"),
                round(tcsbr.seconds / lwb, 2) if lwb else float("inf"),
                "%.0f/%.0f/%.0f" % (
                    100 * shares["decryption"],
                    100 * shares["communication"],
                    100 * shares["access_control"],
                ),
                "BF/LWB=%.1f TCSBR/LWB=%.2f"
                % (paper["BF"] / paper["LWB"], paper["TCSBR"] / paper["LWB"]),
            )
        )
        details[profile] = {
            "tcsbr": tcsbr,
            "bf_seconds": brute.seconds,
            "lwb_seconds": lwb,
        }
    return {
        "headers": [
            "Profile", "BF (s)", "TCSBR (s)", "LWB (s)",
            "BF/LWB", "TCSBR/LWB", "dec/comm/ac %", "Paper ratios",
        ],
        "rows": rows,
        "details": details,
    }


# ----------------------------------------------------------------------
# Fig. 10 — impact of queries (exec time vs result size)
# ----------------------------------------------------------------------
FIG10_VIEWS = [
    ("Sec", "secretary"),
    ("PTD", "part-time-doctor"),
    ("FTD", "full-time-doctor"),
    ("JR", "junior-researcher"),
    ("SR", "senior-researcher"),
]

FIG10_THRESHOLDS = [95, 85, 70, 55, 40, 20, 0]


def fig10_queries(
    workloads: Optional[Workloads] = None, context: str = "smartcard"
) -> Dict[str, object]:
    workloads = workloads or Workloads.shared()
    prepared = workloads.prepared("hospital", "ECB")
    series: Dict[str, List[Tuple[float, float]]] = {}
    rows = []
    for label, profile in FIG10_VIEWS:
        policy = workloads.plan(profile)
        points: List[Tuple[float, float]] = []
        for threshold in FIG10_THRESHOLDS:
            query = "//Folder[//Age > %d]" % threshold
            result = evaluate_document(
                prepared, policy, query=query, context=context
            )
            result_kb = result.result_bytes / 1000.0
            points.append((result_kb, result.seconds))
            rows.append((label, threshold, round(result_kb, 1), round(result.seconds, 3)))
        series[label] = points
    return {
        "headers": ["View", "Age >", "Result (KB)", "Time (s)"],
        "rows": rows,
        "series": series,
    }


def linear_fit(points: Sequence[Tuple[float, float]]) -> Tuple[float, float, float]:
    """Least-squares fit (slope, intercept, r2) — Fig. 10 linearity."""
    n = len(points)
    if n < 2:
        return 0.0, 0.0, 1.0
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in points)
    if sxx == 0:
        return 0.0, mean_y, 1.0
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in points)
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    r2 = 1.0 - ss_res / ss_tot if ss_tot else 1.0
    return slope, intercept, r2


# ----------------------------------------------------------------------
# Fig. 11 — impact of integrity control
# ----------------------------------------------------------------------
#: Paper's Fig. 11 seconds per (profile, scheme).
FIG11_PAPER = {
    "secretary": {"ECB": 1.4, "CBC-SHA": 3.4, "CBC-SHAC": 2.4, "ECB-MHT": 1.9},
    "doctor": {"ECB": 6.4, "CBC-SHA": 18.6, "CBC-SHAC": 12.6, "ECB-MHT": 8.5},
    "researcher": {"ECB": 2.4, "CBC-SHA": 8.5, "CBC-SHAC": 5.2, "ECB-MHT": 3.3},
}

SCHEME_ORDER = ["ECB", "CBC-SHA", "CBC-SHAC", "ECB-MHT"]


def fig11_integrity(
    workloads: Optional[Workloads] = None, context: str = "smartcard"
) -> Dict[str, object]:
    workloads = workloads or Workloads.shared()
    rows = []
    measured: Dict[str, Dict[str, float]] = {}
    for profile in ["secretary", "doctor", "researcher"]:
        policy = workloads.plan(profile)
        times: Dict[str, float] = {}
        for scheme in SCHEME_ORDER:
            prepared = workloads.prepared("hospital", scheme)
            result = evaluate_document(prepared, policy, context=context)
            times[scheme] = result.seconds
        measured[profile] = times
        for scheme in SCHEME_ORDER:
            rows.append(
                (
                    profile,
                    scheme,
                    round(times[scheme], 3),
                    round(times[scheme] / times["ECB"], 2),
                    FIG11_PAPER[profile][scheme],
                    round(FIG11_PAPER[profile][scheme] / FIG11_PAPER[profile]["ECB"], 2),
                )
            )
    return {
        "headers": [
            "Profile", "Scheme", "Time (s)", "vs ECB",
            "Paper (s)", "Paper vs ECB",
        ],
        "rows": rows,
        "measured": measured,
    }


# ----------------------------------------------------------------------
# Fig. 12 — throughput on real datasets
# ----------------------------------------------------------------------
FIG12_TARGETS = [
    ("sigmod", None),
    ("wsu", None),
    ("treebank", None),
    ("hospital", "secretary"),
    ("hospital", "doctor"),
    ("hospital", "researcher"),
]


def fig12_real_datasets(
    workloads: Optional[Workloads] = None, context: str = "smartcard"
) -> Dict[str, object]:
    workloads = workloads or Workloads.shared()
    rows = []
    measured: Dict[str, Dict[str, float]] = {}
    for document, profile in FIG12_TARGETS:
        if profile is None:
            policy = compile_policy(
                workloads.random_policy(document, rules=8, seed=17)
            )
            label = document
        else:
            policy = workloads.plan(profile)
            label = "%s/%s" % (document, profile[:4])

        # The paper's Fig. 12 throughput is authorized output produced
        # per second (e.g. Secretary: 135 KB view / 1.4 s = 96 KB/s).
        entry: Dict[str, float] = {}
        for with_integrity, scheme in [(False, "ECB"), (True, "ECB-MHT")]:
            prepared = workloads.prepared(document, scheme)
            result = evaluate_document(prepared, policy, context=context)
            suffix = "int" if with_integrity else "noint"
            view_bytes = result.result_bytes
            entry["tcsbr-%s" % suffix] = (
                view_bytes / result.seconds / 1000.0 if result.seconds else 0.0
            )
            lwb = lwb_seconds(result.events, context, with_integrity=with_integrity)
            entry["lwb-%s" % suffix] = (
                view_bytes / lwb / 1000.0 if lwb > 0 else float("inf")
            )
        measured[label] = entry
        rows.append(
            (
                label,
                round(entry["tcsbr-int"], 1),
                round(entry["lwb-int"], 1),
                round(entry["tcsbr-noint"], 1),
                round(entry["lwb-noint"], 1),
            )
        )
    return {
        "headers": [
            "Workload",
            "TCSBR+Integrity (KB/s)",
            "LWB+Integrity (KB/s)",
            "TCSBR (KB/s)",
            "LWB (KB/s)",
        ],
        "rows": rows,
        "measured": measured,
        "paper_note": "paper: throughput 55-85 KB/s across documents, LWB above",
    }


# ----------------------------------------------------------------------
# Updates (post-paper: the live update path of Section 4.1)
# ----------------------------------------------------------------------
def _first_text_path(tree) -> Tuple[List[int], str]:
    """Index path of a reasonably deep element with direct text."""
    from repro.xmlkit.dom import Node

    best: Tuple[List[int], str] = ([], "")

    def visit(node, path):
        nonlocal best
        text = "".join(c for c in node.children if isinstance(c, str))
        if len(text) >= 4 and len(path) > len(best[0]):
            best = (list(path), text)
        for index, child in enumerate(
            c for c in node.children if isinstance(c, Node)
        ):
            visit(child, path + [index])

    visit(tree, [])
    return best


def updates_experiment(
    folders: int = 16, output: Optional[str] = "bench-out/BENCH_updates.json"
) -> Dict[str, object]:
    """Live update costs: dirtied-chunk ratio, re-encrypted bytes, latency.

    Publishes the hospital document into a :class:`SecureStation` and
    applies one edit of each kind through the live
    :meth:`~repro.engine.station.SecureStation.update` path, measuring
    what fraction of the store each edit really re-encrypts.  Best-case
    edits (a same-length text change) touch a couple of chunks; a
    rename introducing a fresh tag grows the dictionary — the paper's
    worst case — and cascades into a full re-encryption.  The report
    lands in ``bench-out/BENCH_updates.json``.
    """
    import json as _json
    import time as _time

    from repro.datasets.hospital import HospitalConfig, generate_hospital
    from repro.engine import SecureStation
    from repro.skipindex.updates import UpdateOp
    from repro.xmlkit.parser import parse_document

    from repro.xmlkit.serializer import serialize

    config = HospitalConfig(
        folders=folders,
        doctors=4,
        acts_per_folder=3,
        labresults_per_folder=2,
        seed=7,
    )
    tree = generate_hospital(config)

    # Edits early in the document shift every byte after them (the
    # whole tail re-encrypts); the interesting best-case numbers come
    # from edits that keep lengths stable or sit near the end.  Each op
    # runs against a fresh publication of the same document so the rows
    # are directly comparable.
    text_path, text = _first_text_path(tree)
    children = list(tree.element_children())
    last = len(children) - 1
    tail_path, tail_text = _first_text_path(children[last])
    ops = [
        ("text/same-length", UpdateOp.set_text(text_path, "#" * len(text))),
        (
            "insert/append",
            UpdateOp.insert([], parse_document(serialize(children[0]).strip())),
        ),
        ("delete/last", UpdateOp.delete([last])),
        (
            "text/grow-tail",
            UpdateOp.set_text([last] + tail_path, "x" * (len(tail_text) + 40)),
        ),
        ("rename/new-tag", UpdateOp.rename([0], "RenamedFolder")),
    ]
    rows = []
    records = []
    for label, op in ops:
        station = SecureStation()
        station.publish("hospital", tree)
        started = _time.perf_counter()
        result = station.update("hospital", op)
        latency_ms = (_time.perf_counter() - started) * 1000.0
        record = result.as_dict()
        record["op"] = label
        record["latency_ms"] = round(latency_ms, 2)
        records.append(record)
        rows.append(
            (
                label,
                result.impact.changed_bytes,
                result.chunks_reencrypted,
                result.total_chunks,
                "%.1f%%" % (100.0 * result.dirtied_ratio),
                human_bytes(result.reencrypted_bytes),
                "yes" if result.impact.is_worst_case else "no",
                round(latency_ms, 1),
            )
        )
        station.close()
    # One station takes an edit chain, exercising the version counter
    # end-to-end (every op bumps it by one).  grow-tail is excluded:
    # its path is only valid against the pristine tree.
    chained = SecureStation()
    chained.publish("hospital", tree)
    for label, op in ops:
        if label == "text/grow-tail":
            continue
        chained.update("hospital", op)
    report = {
        "bench": "updates",
        "document": "hospital",
        "folders": folders,
        "chained_version": chained.document_version("hospital"),
        "ops": records,
    }
    chained.close()
    if output:
        os.makedirs(os.path.dirname(output) or ".", exist_ok=True)
        with open(output, "w", encoding="utf-8") as handle:
            _json.dump(report, handle, indent=2)
            handle.write("\n")
    return {
        "headers": [
            "Op",
            "Changed bytes",
            "Re-encrypted",
            "Total chunks",
            "Dirtied",
            "Rewritten",
            "Worst case",
            "Latency (ms)",
        ],
        "rows": rows,
        "report": report,
    }


# ----------------------------------------------------------------------
# Hot path (post-paper: vectorized crypto, compute backends)
# ----------------------------------------------------------------------
def _best_seconds(fn, repeats: int = 5) -> float:
    import time as _time

    best = float("inf")
    for _ in range(repeats):
        started = _time.perf_counter()
        fn()
        best = min(best, _time.perf_counter() - started)
    return best


def _crypto_microbench(buffer_bytes: int = 65536) -> List[Dict[str, object]]:
    """Whole-buffer modes vs the block-at-a-time reference, in MB/s.

    CBC encryption is inherently sequential (each block chains on the
    previous ciphertext), so its speedup comes only from the schedule
    precomputation and int-XOR; every other mode decrypts/encrypts the
    whole buffer through the SWAR lane path.
    """
    import random as _random

    from repro.crypto import modes
    from repro.crypto.xtea import Xtea

    rng = _random.Random(20260730)
    data = bytes(rng.randrange(256) for _ in range(buffer_bytes))
    cipher = Xtea(bytes(range(16)))
    iv = modes.make_iv(3)
    positioned = modes.encrypt_positioned(cipher, data, 0)
    chained = modes.encrypt_cbc(cipher, data, iv)
    # The per-chunk CBC regime the schemes actually run: independent
    # 2 KiB chains (one IV per chunk) encrypt in SWAR lockstep across
    # chunks, unlike the single whole-buffer chain above.
    chunk_list = [data[i : i + 2048] for i in range(0, len(data), 2048)]
    chunk_ivs = [modes.make_iv(i) for i in range(len(chunk_list))]
    cases = [
        ("ecb-encrypt", True,
         lambda: modes.encrypt_ecb(cipher, data),
         lambda: modes.encrypt_ecb_reference(cipher, data)),
        ("positioned-encrypt", True,
         lambda: modes.encrypt_positioned(cipher, data, 0),
         lambda: modes.encrypt_positioned_reference(cipher, data, 0)),
        ("positioned-decrypt", True,
         lambda: modes.decrypt_positioned(cipher, positioned, 0),
         lambda: modes.decrypt_positioned_reference(cipher, positioned, 0)),
        ("cbc-encrypt", False,
         lambda: modes.encrypt_cbc(cipher, data, iv),
         lambda: modes.encrypt_cbc_reference(cipher, data, iv)),
        ("cbc-encrypt-chunked", True,
         lambda: modes.encrypt_cbc_chunked(cipher, chunk_list, chunk_ivs),
         lambda: modes.encrypt_cbc_chunked_reference(cipher, chunk_list, chunk_ivs)),
        ("cbc-decrypt", True,
         lambda: modes.decrypt_cbc(cipher, chained, iv),
         lambda: modes.decrypt_cbc_reference(cipher, chained, iv)),
    ]
    results = []
    for name, parallel, fast, reference in cases:
        fast_mbps = buffer_bytes / _best_seconds(fast, repeats=3) / MB
        ref_mbps = buffer_bytes / _best_seconds(reference, repeats=2) / MB
        results.append(
            {
                "mode": name,
                "parallelizable": parallel,
                "fast_mbps": round(fast_mbps, 3),
                "reference_mbps": round(ref_mbps, 3),
                "speedup": round(fast_mbps / ref_mbps, 2) if ref_mbps else 0.0,
            }
        )
    return results


def _backend_microbench(buffer_bytes: int = 65536) -> Dict[str, object]:
    """XTEA throughput: native kernels vs the pure fast paths.

    The cipher section compares the C XTEA kernels against the
    pure-Python *fast* paths (not the block-at-a-time reference) on the
    two bulk modes the schemes run: positioned-ECB (random-access reads)
    and CBC (chained publish encryption).  ``native_vs_fast`` is the
    CBC-encrypt ratio — CBC's chain dependency defeats the SWAR trick
    entirely, so it is where moving the loop to C pays the most; the
    positioned ratio is reported alongside it.
    """
    import random as _random

    from repro.compute import native_available
    from repro.crypto import modes
    from repro.crypto.xtea import Xtea

    rng = _random.Random(20260807)
    data = bytes(rng.randrange(256) for _ in range(buffer_bytes))
    iv = modes.make_iv(7)
    pure = Xtea(bytes(range(16)))
    pure_pos_mbps = (
        buffer_bytes
        / _best_seconds(lambda: modes.encrypt_positioned(pure, data, 0), repeats=3)
        / MB
    )
    pure_cbc_mbps = (
        buffer_bytes
        / _best_seconds(lambda: modes.encrypt_cbc(pure, data, iv), repeats=3)
        / MB
    )
    out: Dict[str, object] = {
        "available": ["pure", "native"] if native_available() else ["pure"],
        "cipher": {
            "mode": "cbc-encrypt",
            "pure_mbps": round(pure_cbc_mbps, 3),
            "positioned_pure_mbps": round(pure_pos_mbps, 3),
        },
    }
    if native_available():
        from repro.compute.native import NativeXtea

        native = NativeXtea(bytes(range(16)))
        native_pos_mbps = (
            buffer_bytes
            / _best_seconds(
                lambda: modes.encrypt_positioned(native, data, 0), repeats=3
            )
            / MB
        )
        native_cbc_mbps = (
            buffer_bytes
            / _best_seconds(lambda: modes.encrypt_cbc(native, data, iv), repeats=3)
            / MB
        )
        out["cipher"]["native_mbps"] = round(native_cbc_mbps, 3)
        out["cipher"]["positioned_native_mbps"] = round(native_pos_mbps, 3)
        out["cipher"]["native_vs_fast"] = (
            round(native_cbc_mbps / pure_cbc_mbps, 2) if pure_cbc_mbps else 0.0
        )
        out["cipher"]["positioned_native_vs_fast"] = (
            round(native_pos_mbps / pure_pos_mbps, 2) if pure_pos_mbps else 0.0
        )
    return out


def hotpath_experiment(
    output: Optional[str] = "bench-out/BENCH_hotpath.json",
) -> Dict[str, object]:
    """Hot-path profile: vectorized crypto and compute backends.

    Two coordinated measurements, one JSON report:

    1. **crypto** — whole-buffer mode throughput vs the block-at-a-time
       reference (the seed path);
    2. **backends** — native C kernel vs the pure fast path.

    Served end-to-end numbers (cold, view cache, TCP, gateway) are
    ``perfbench/run.py``'s job.
    """
    import json as _json

    crypto = _crypto_microbench()
    backends = _backend_microbench()
    parallel_speedups = [
        case["speedup"] for case in crypto if case["parallelizable"]
    ]
    ratios = {
        # Minimum across the whole-buffer (parallelizable) modes; CBC
        # encryption is chained by construction and reported separately.
        "crypto_speedup_min": min(parallel_speedups),
        # Backend ratios: None when that backend cannot run here (no
        # compiler for native); the CI guards skip accordingly.
        "native_vs_fast": backends["cipher"].get("native_vs_fast"),
    }
    report = {
        "bench": "hotpath",
        "crypto": crypto,
        "backends": backends,
        "ratios": ratios,
    }
    if output:
        os.makedirs(os.path.dirname(output) or ".", exist_ok=True)
        with open(output, "w", encoding="utf-8") as handle:
            _json.dump(report, handle, indent=2)
            handle.write("\n")
    rows = [
        ("crypto MB/s (min parallelizable speedup)", "x%.1f" % ratios["crypto_speedup_min"]),
        (
            "native kernels vs pure fast path",
            "x%.1f (%s)"
            % (ratios["native_vs_fast"], backends["cipher"]["mode"])
            if ratios["native_vs_fast"] is not None
            else "unavailable (no C compiler)",
        ),
    ]
    return {
        "headers": ["Hot-path measurement", "Result"],
        "rows": rows,
        "report": report,
    }


def render(experiment: Dict[str, object], title: str, fmt: str = "table") -> str:
    return format_output(
        experiment["rows"], experiment["headers"], fmt=fmt, title=title
    )

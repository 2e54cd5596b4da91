"""Plan-cache microbenchmark: compilation amortization under load.

The engine's whole premise is that a :class:`~repro.engine.plans.
PolicyPlan` is compiled once at provisioning time and reused for every
document and request.  This bench serves 100 documents under one
policy both ways and asserts the cached path does >= 10x fewer
``compile_path`` calls (it actually does exactly one compilation per
rule, total).  Results land in ``BENCH_engine.json``.
"""

import random
import time

from conftest import write_bench
from repro import AccessRule, Policy, authorized_view
from repro.engine import SecureStation, compile_policy
from repro.xmlkit.dom import Node
from repro.xpath import nfa
from repro.xpath import parser as xparser

POLICY_RULES = [
    ("+", "//folder/admin"),
    ("-", "//admin/ssn"),
    ("+", "//acts/act[doctor]"),
    ("-", "//act[result = bad]"),
    ("+", "//notes//entry"),
]

N_DOCUMENTS = 100


def make_policy() -> Policy:
    return Policy(
        [AccessRule(sign, obj) for sign, obj in POLICY_RULES], subject="bench"
    )


def make_documents(count: int = N_DOCUMENTS):
    rng = random.Random(7)
    documents = []
    for _ in range(count):
        folder = Node("folder")
        admin = Node("admin")
        admin.children.append(Node("name"))
        admin.children[-1].children.append("u%d" % rng.randint(0, 99))
        admin.children.append(Node("ssn"))
        admin.children[-1].children.append(str(rng.randint(100, 999)))
        folder.children.append(admin)
        acts = Node("acts")
        for _ in range(rng.randint(1, 4)):
            act = Node("act")
            doctor = Node("doctor")
            doctor.children.append("d%d" % rng.randint(0, 9))
            result = Node("result")
            result.children.append(rng.choice(["ok", "bad"]))
            act.children.append(doctor)
            act.children.append(result)
            acts.children.append(act)
        folder.children.append(acts)
        documents.append(folder)
    return documents


def test_engine_plan_cache_amortizes_compilation(benchmark):
    documents = make_documents()
    events = [list(document.iter_events()) for document in documents]
    policy = make_policy()

    # -- uncached: a fresh evaluator (fresh compilation) per document --
    compiles_before = nfa.compile_calls()
    parses_before = xparser.parse_calls()
    started = time.perf_counter()
    uncached_views = [authorized_view(evs, make_policy()) for evs in events]
    uncached_seconds = time.perf_counter() - started
    uncached_compiles = nfa.compile_calls() - compiles_before
    uncached_parses = xparser.parse_calls() - parses_before

    # -- cached: one PolicyPlan serves every document ------------------
    plan = compile_policy(policy)
    compiles_before = nfa.compile_calls()
    parses_before = xparser.parse_calls()

    def cached_kernel():
        return [authorized_view(evs, plan) for evs in events]

    cached_views = benchmark.pedantic(cached_kernel, rounds=1, iterations=1)
    cached_seconds = benchmark.stats.stats.mean
    cached_compiles = nfa.compile_calls() - compiles_before
    cached_parses = xparser.parse_calls() - parses_before

    assert cached_views == uncached_views  # identical semantics
    # Reusing the plan performs ZERO additional parse/NFA-compile work.
    assert cached_compiles == 0
    assert cached_parses == 0
    assert uncached_compiles >= 10 * max(1, cached_compiles + 1)
    assert uncached_compiles == N_DOCUMENTS * len(POLICY_RULES)

    # -- station plan cache: repeated requests hit the LRU -------------
    station = SecureStation()
    station.publish("bench", documents[0])
    station.grant("bench", policy)
    station.evaluate("bench", "bench")
    compiles_before = nfa.compile_calls()
    for _ in range(10):
        station.evaluate("bench", "bench")
    station_compiles = nfa.compile_calls() - compiles_before
    assert station_compiles == 0
    assert station.stats.plan_hits >= 10

    payload = {
        "bench": "engine_plan_cache",
        "documents": N_DOCUMENTS,
        "rules": len(POLICY_RULES),
        "uncached": {
            "compile_path_calls": uncached_compiles,
            "parse_xpath_calls": uncached_parses,
            "seconds": round(uncached_seconds, 4),
        },
        "cached": {
            "compile_path_calls": cached_compiles,
            "parse_xpath_calls": cached_parses,
            "seconds": round(cached_seconds, 4),
        },
        # ratio vs max(1, cached) keeps the JSON finite when cached == 0
        "compile_ratio": uncached_compiles / max(1, cached_compiles),
        "station": {
            "repeat_requests": 10,
            "compile_path_calls": station_compiles,
            "plan_hits": station.stats.plan_hits,
            "plan_misses": station.stats.plan_misses,
        },
    }
    write_bench("engine", payload, seed=7)
    station.close()

"""Differential testing: streaming evaluator vs DOM reference oracle.

Random documents x random policies x random queries, in all navigator
configurations (brute force, index+skip, skip without metadata).  Any
divergence is a bug in either the evaluator or the oracle.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import AccessRule, Policy, reference_authorized_view
from repro.accesscontrol.evaluator import StreamingEvaluator
from repro.accesscontrol.navigation import EventListNavigator, SimpleEventNavigator
from repro.xmlkit.dom import Node
from repro.xmlkit.serializer import serialize_events

TAGS = ["a", "b", "c", "d", "e"]
VALUES = ["1", "2", "3", "x"]


def random_tree(rng: random.Random, max_nodes: int = 40) -> Node:
    """A random small document over a fixed tag alphabet."""
    budget = [rng.randint(1, max_nodes)]

    def build(depth: int) -> Node:
        node = Node(rng.choice(TAGS))
        while budget[0] > 0 and rng.random() < (0.75 if depth < 4 else 0.25):
            budget[0] -= 1
            if rng.random() < 0.35:
                node.children.append(rng.choice(VALUES))
            else:
                node.children.append(build(depth + 1))
        return node

    return build(1)


def random_path(rng: random.Random, allow_predicates: bool = True) -> str:
    """A random XP{[],*,//} expression over the tag alphabet."""
    steps = []
    for _ in range(rng.randint(1, 3)):
        axis = "//" if rng.random() < 0.5 else "/"
        test = "*" if rng.random() < 0.15 else rng.choice(TAGS)
        predicate = ""
        if allow_predicates and rng.random() < 0.4:
            p_axis = "//" if rng.random() < 0.3 else ""
            p_tag = rng.choice(TAGS)
            if rng.random() < 0.5:
                predicate = "[%s%s]" % (p_axis, p_tag)
            else:
                op = rng.choice(["=", "!=", ">", "<"])
                value = rng.choice(VALUES)
                predicate = "[%s%s %s %s]" % (p_axis, p_tag, op, value)
        steps.append(axis + test + predicate)
    return "".join(steps)


def random_policy(rng: random.Random) -> Policy:
    rules = []
    for _ in range(rng.randint(1, 5)):
        sign = "+" if rng.random() < 0.6 else "-"
        rules.append(AccessRule(sign, random_path(rng)))
    return Policy(rules)


def check_agreement(tree: Node, policy: Policy, query=None) -> None:
    reference = reference_authorized_view(tree, policy, query=query)
    events = list(tree.iter_events())
    for label, make_navigator in [
        ("brute-force", lambda: SimpleEventNavigator(events)),
        ("indexed", lambda: EventListNavigator(events)),
    ]:
        evaluator = StreamingEvaluator(policy, query=query)
        streamed = evaluator.run(make_navigator())
        assert streamed == reference, (
            "divergence (%s):\n  policy=%s\n  query=%s\n  doc=%s\n"
            "  streaming=%s\n  reference=%s"
            % (
                label,
                list(policy.rules),
                query,
                serialize_events(events),
                serialize_events(streamed),
                serialize_events(reference),
            )
        )


@pytest.mark.parametrize("seed", range(120))
def test_random_policies_agree(seed):
    rng = random.Random(seed)
    tree = random_tree(rng)
    policy = random_policy(rng)
    check_agreement(tree, policy)


@pytest.mark.parametrize("seed", range(120, 180))
def test_random_policies_with_queries_agree(seed):
    rng = random.Random(seed)
    tree = random_tree(rng)
    policy = random_policy(rng)
    query = random_path(rng)
    check_agreement(tree, policy, query=query)


@pytest.mark.parametrize("seed", range(180, 220))
def test_recursive_documents_agree(seed):
    """Documents with heavy tag recursion (the hard case for //)."""
    rng = random.Random(seed)

    def deep(depth):
        node = Node(rng.choice(["a", "b"]))
        if depth < 6 and rng.random() < 0.8:
            for _ in range(rng.randint(1, 2)):
                node.children.append(deep(depth + 1))
        else:
            node.children.append(rng.choice(VALUES))
        return node

    tree = deep(0)
    rules = [
        AccessRule("+", "//a//b[a]"),
        AccessRule("-", "//b//a/b"),
        AccessRule("+", random_path(rng)),
    ]
    check_agreement(tree, Policy(rules))


# ----------------------------------------------------------------------
# Engine-path fuzzing: compiled plans vs the DOM reference oracle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(1000, 1200))
def test_fuzz_engine_path_matches_reference(seed):
    """Randomized (document, policy, query) triples through the engine.

    The engine path — a :class:`~repro.engine.plans.PolicyPlan` compiled
    once and shared by every evaluation — must agree with
    :func:`reference_authorized_view` exactly, across two distinct
    random documents per plan (exercising plan reuse, the query-plan
    memo, and both navigator configurations).
    """
    from repro.engine import compile_policy

    rng = random.Random(seed)
    policy = random_policy(rng)
    query = random_path(rng) if rng.random() < 0.5 else None
    plan = compile_policy(policy)
    for _ in range(2):
        tree = random_tree(rng, max_nodes=25)
        reference = reference_authorized_view(tree, policy, query=query)
        events = list(tree.iter_events())
        query_plan = plan.query_plan(query)
        for label, with_index in [("indexed", True), ("bare", False)]:
            evaluator = StreamingEvaluator(plan, query=query_plan)
            streamed = evaluator.run_events(events, with_index=with_index)
            assert streamed == reference, (
                "engine-path divergence (%s, seed=%d):\n  policy=%s\n"
                "  query=%s\n  doc=%s\n  engine=%s\n  reference=%s"
                % (
                    label,
                    seed,
                    list(policy.rules),
                    query,
                    serialize_events(events),
                    serialize_events(streamed),
                    serialize_events(reference),
                )
            )


def test_fuzz_engine_batch_matches_reference():
    """SecureStation.evaluate over random cohorts == oracle, one
    request per subject of each cohort."""
    from repro.engine import SecureStation
    from repro.xmlkit.serializer import serialize

    rng = random.Random(20260730)
    for round_index in range(10):
        # Round-trip through text first: adjacent text children merge
        # on parsing, and the oracle must see what the station stores.
        from repro.xmlkit.parser import parse_document

        tree = parse_document(serialize(random_tree(rng, max_nodes=30)))
        station = SecureStation()
        station.publish("doc", serialize(tree))
        policies = []
        for index in range(3):
            policy = Policy(random_policy(rng).rules, subject="s%d" % index)
            policies.append(policy)
            station.grant("doc", policy)
        for policy in policies:
            reference = reference_authorized_view(tree, policy)
            view = station.evaluate("doc", policy.subject).events
            assert view == reference, (
                "station divergence (round %d): policy=%s"
                % (round_index, list(policy.rules))
            )


@pytest.mark.parametrize("scheme", ["ECB", "CBC-SHAC", "ECB-MHT"])
def test_fuzz_station_cold_cached_identical(scheme):
    """Random (document, policy, query) triples through the station's
    two serving strategies — cold and cache-hit — must produce
    byte-identical served views and costs on every scheme, equal to the
    local (uncached) evaluation's events."""
    from repro.engine import SecureStation, prepare_document
    from repro.xmlkit.parser import parse_document
    from repro.xmlkit.serializer import serialize

    rng = random.Random("fuzz:" + scheme)
    for round_index in range(8):
        tree = parse_document(serialize(random_tree(rng, max_nodes=30)))
        policy = Policy(random_policy(rng).rules, subject="fuzz")
        query = random_path(rng) if rng.random() < 0.5 else None
        prepared = prepare_document(tree, scheme=scheme)

        cold_station = SecureStation(cache_views=False)
        cold_station.publish("doc", prepared)
        local = cold_station.evaluate("doc", policy, query=query)
        cold = cold_station.stream("doc", policy, query=query)

        cached_station = SecureStation(cache_views=True)
        cached_station.publish("doc", prepared)
        cached_station.stream("doc", policy, query=query)
        hit = cached_station.stream("doc", policy, query=query)

        assert hit.cached, round_index
        cold_bytes = serialize_events(local.events).encode("utf-8")
        context = "cached divergence (%s, round %d): policy=%s query=%s" % (
            scheme,
            round_index,
            list(policy.rules),
            query,
        )
        assert cold.payload == cold_bytes, context
        assert hit.payload == cold_bytes, context
        assert hit.result.meter.as_dict() == cold.result.meter.as_dict(), context
        assert hit.result.seconds == cold.result.seconds, context
        assert hit.result.document_version == cold.result.document_version


# ----------------------------------------------------------------------
# Structural-index serving: indexed == streamed == cached
# ----------------------------------------------------------------------
def random_structural_query(rng: random.Random) -> str:
    """A wildcard-free absolute path — always index-plan eligible."""
    query = "".join(
        ("//" if rng.random() < 0.5 else "/") + rng.choice(TAGS)
        for _ in range(rng.randint(1, 3))
    )
    if rng.random() < 0.3:
        query += "[%s]" % rng.choice(TAGS)
    return query


@pytest.mark.parametrize("scheme", ["ECB", "CBC-SHAC", "ECB-MHT"])
def test_fuzz_indexed_station_matches_every_strategy(scheme):
    """The indexed serving path against the streaming strategies.

    Per round: one random document published with ``index=True`` and
    once without, served the same random (policy, query) — the indexed
    view and its cache hit must be byte-identical to the cold streamed
    view on every scheme.  Wildcard queries ride along to exercise the
    fallback decision.
    """
    from repro.engine import (
        PublishOptions,
        SecureStation,
        StationConfig,
        prepare_document,
    )
    from repro.xmlkit.parser import parse_document
    from repro.xmlkit.serializer import serialize

    rng = random.Random("fuzz-index:" + scheme)
    indexed_served = 0
    for round_index in range(8):
        tree = parse_document(serialize(random_tree(rng, max_nodes=30)))
        policy = Policy(random_policy(rng).rules, subject="fuzz")
        query = (
            random_structural_query(rng)
            if rng.random() < 0.7
            else random_path(rng)
        )
        prepared = prepare_document(tree, scheme=scheme)

        cold_station = SecureStation(cache_views=False)
        cold_station.publish("doc", prepared)
        cold = cold_station.evaluate("doc", policy, query=query)

        indexed_station = SecureStation(StationConfig(cache_views=True))
        indexed_station.publish(
            "doc", serialize(tree), PublishOptions(scheme=scheme, index=True)
        )
        local = indexed_station.evaluate("doc", policy, query=query)
        indexed = indexed_station.stream("doc", policy, query=query)
        hit = indexed_station.stream("doc", policy, query=query)
        indexed_served += indexed_station.stats.indexed_requests

        cold_bytes = serialize_events(cold.events)
        context = "(%s, round %d): policy=%s query=%s" % (
            scheme,
            round_index,
            list(policy.rules),
            query,
        )
        assert serialize_events(local.events) == cold_bytes, context
        assert indexed.payload == cold_bytes.encode("utf-8"), context
        assert hit.payload == cold_bytes.encode("utf-8"), context
        assert local.indexed == indexed.result.indexed, context
        assert hit.cached and hit.result.indexed == indexed.result.indexed, context
        assert hit.result.meter.as_dict() == indexed.result.meter.as_dict(), context
        assert hit.result.seconds == indexed.result.seconds, context
    # The structural path must actually have engaged during the run —
    # otherwise this test silently degrades to streaming-vs-streaming.
    assert indexed_served > 0


def _random_update_op(rng: random.Random, tree: Node):
    """A random valid edit against ``tree`` (element index paths)."""
    from repro.skipindex.updates import UpdateOp

    paths = [[]]

    def walk(node, path):
        elements = [c for c in node.children if isinstance(c, Node)]
        for index, child in enumerate(elements):
            paths.append(path + [index])
            walk(child, path + [index])

    walk(tree, [])
    path = rng.choice(paths)
    roll = rng.random()
    if roll < 0.4:
        return UpdateOp.set_text(path, rng.choice(VALUES) * rng.randint(1, 3))
    if roll < 0.7:
        child = Node(rng.choice(TAGS))
        child.add(rng.choice(VALUES))
        return UpdateOp.insert(path, child)
    if roll < 0.85 and path:
        return UpdateOp.delete(path)
    return UpdateOp.rename(path, rng.choice(TAGS + ["fresh"]))


@pytest.mark.parametrize("seed", range(2000, 2012))
def test_fuzz_indexed_station_after_update_sequences(seed):
    """Random update sequences: the indexed station must keep matching
    the streamed station view-for-view after every committed edit
    (incremental refresh, rebuild and worst-case cascade alike)."""
    from repro.engine import PublishOptions, SecureStation, StationConfig
    from repro.skipindex.decoder import decode_document
    from repro.xmlkit.parser import parse_document
    from repro.xmlkit.serializer import serialize

    rng = random.Random(seed)
    source = serialize(random_tree(rng, max_nodes=25))
    policy = Policy(random_policy(rng).rules, subject="fuzz")

    streamed = SecureStation(StationConfig(cache_views=False))
    streamed.publish("doc", source)
    streamed.grant("doc", policy)
    indexed = SecureStation(StationConfig(cache_views=False))
    indexed.publish("doc", source, PublishOptions(index=True))
    indexed.grant("doc", policy)

    for step in range(4):
        current = decode_document(indexed.document("doc").encoded)
        op = _random_update_op(rng, current)
        try:
            streamed.update("doc", op)
        except Exception:
            continue  # invalid edit for this tree shape: skip it on both
        indexed.update("doc", op)
        query = random_structural_query(rng)
        a = streamed.evaluate("doc", "fuzz", query=query)
        b = indexed.evaluate("doc", "fuzz", query=query)
        assert serialize_events(b.events) == serialize_events(a.events), (
            "update divergence (seed=%d, step %d): op=%s query=%s"
            % (seed, step, op.kind, query)
        )
        c = streamed.evaluate("doc", "fuzz")
        d = indexed.evaluate("doc", "fuzz")
        assert serialize_events(d.events) == serialize_events(c.events), (
            "full-view divergence (seed=%d, step %d): op=%s" % (seed, step, op.kind)
        )
    assert indexed.stats.indexed_requests > 0


@pytest.mark.parametrize("seed", range(2012, 2018))
def test_fuzz_indexed_station_after_logstore_restart(seed, tmp_path):
    """Kill-and-recover: an indexed document served from a reopened
    LogStore must equal the in-memory streamed oracle, and still be
    served through the index (the blob survived the restart)."""
    from repro.engine import PublishOptions, SecureStation, StationConfig
    from repro.store import LogStore
    from repro.xmlkit.serializer import serialize

    rng = random.Random(seed)
    source = serialize(random_tree(rng, max_nodes=25))
    policy = Policy(random_policy(rng).rules, subject="fuzz")
    query = random_structural_query(rng)

    oracle = SecureStation(StationConfig(cache_views=False))
    oracle.publish("doc", source)
    oracle.grant("doc", policy)
    reference = oracle.evaluate("doc", "fuzz", query=query)

    directory = str(tmp_path)
    with SecureStation(StationConfig(store=LogStore(directory))) as station:
        station.publish("doc", source, PublishOptions(index=True))
    with SecureStation(StationConfig(store=LogStore(directory))) as restarted:
        restarted.grant("doc", policy)
        result = restarted.evaluate("doc", "fuzz", query=query)
        assert serialize_events(result.events) == serialize_events(
            reference.events
        ), "restart divergence (seed=%d): query=%s" % (seed, query)
        assert restarted.stats.indexed_requests == 1
        assert restarted.stats.index_stale == 0


# ----------------------------------------------------------------------
# Hypothesis property tests
# ----------------------------------------------------------------------
@st.composite
def trees(draw, max_depth=4):
    tag = draw(st.sampled_from(TAGS))
    node = Node(tag)
    if max_depth > 0:
        n_children = draw(st.integers(min_value=0, max_value=3))
        for _ in range(n_children):
            if draw(st.booleans()):
                node.children.append(draw(st.sampled_from(VALUES)))
            else:
                node.children.append(draw(trees(max_depth=max_depth - 1)))
    else:
        node.children.append(draw(st.sampled_from(VALUES)))
    return node


@st.composite
def policies(draw):
    n_rules = draw(st.integers(min_value=1, max_value=4))
    rules = []
    for _ in range(n_rules):
        seed = draw(st.integers(min_value=0, max_value=10 ** 6))
        rng = random.Random(seed)
        sign = draw(st.sampled_from(["+", "-"]))
        rules.append(AccessRule(sign, random_path(rng)))
    return Policy(rules)


@settings(max_examples=150, deadline=None)
@given(tree=trees(), policy=policies())
def test_property_streaming_matches_reference(tree, policy):
    check_agreement(tree, policy)


@settings(max_examples=60, deadline=None)
@given(tree=trees(), policy=policies(), seed=st.integers(0, 10 ** 6))
def test_property_queries_match_reference(tree, policy, seed):
    query = random_path(random.Random(seed))
    check_agreement(tree, policy, query=query)


@settings(max_examples=60, deadline=None)
@given(tree=trees(), policy=policies())
def test_property_view_is_subset_of_document(tree, policy):
    """Every text chunk in the view exists in the document (no leakage
    of invented content) and the view is well-formed."""
    from repro.xmlkit.events import TEXT, validate_stream

    evaluator = StreamingEvaluator(policy)
    view = evaluator.run_events(list(tree.iter_events()), with_index=True)
    if view:
        validate_stream(view)
    doc_texts = []

    def collect(node):
        for child in node.children:
            if isinstance(child, str):
                doc_texts.append(child)
            else:
                collect(child)

    collect(tree)
    for event in view:
        if event[0] == TEXT:
            assert event[1] in doc_texts


@settings(max_examples=40, deadline=None)
@given(tree=trees(), policy=policies())
def test_property_idempotence(tree, policy):
    """Applying the policy to its own authorized view keeps the granted
    content granted (the view never shrinks below its own granted set)
    when rules have no predicates reaching outside the view.

    We restrict to predicate-free policies where idempotence holds
    exactly.
    """

    simple_rules = [
        rule for rule in policy.rules if not rule.object.has_predicates()
    ]
    if not simple_rules:
        return
    simple = Policy(simple_rules)
    evaluator = StreamingEvaluator(simple)
    view = evaluator.run_events(list(tree.iter_events()), with_index=True)
    if not view:
        return
    again = StreamingEvaluator(simple).run_events(view, with_index=True)
    # All PERMIT nodes survive; structural-only nodes may differ in text
    # content but the re-application must never add content.
    assert len(again) <= len(view)

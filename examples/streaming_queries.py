"""Queries over authorized views + streaming delivery (pull context).

The paper's evaluator can intersect the access-control view with an
XPath query (Section 3.2): the query's predicates are evaluated against
the *authorized* view ("predicates cannot be expressed on denied
elements"), and the result streams out as soon as delivery conditions
resolve — pending parts are reassembled at the right position.

This example shows:

1. a query whose predicate witness is access-controlled,
2. incremental result delivery with ``drain_ready`` while parsing,
3. a pending predicate resolving after the subtree it governs.

Run with::

    python examples/streaming_queries.py
"""

from repro import AccessRule, Policy
from repro.accesscontrol.evaluator import StreamingEvaluator
from repro.accesscontrol.navigation import EventListNavigator
from repro.xmlkit import parse_document, serialize_events
from repro.xmlkit.events import CLOSE, OPEN, TEXT

CATALOG = """
<catalog>
  <item><grade>95</grade><name>alpha</name><cost>9</cost></item>
  <item><grade>42</grade><name>beta</name><cost>12</cost></item>
  <item><grade>77</grade><name>gamma</name><cost>5</cost></item>
</catalog>
"""


def query_on_authorized_view() -> None:
    document = parse_document(CATALOG)
    events = list(document.iter_events())

    open_policy = Policy([AccessRule("+", "/catalog")])
    no_grades = Policy(
        [AccessRule("+", "/catalog"), AccessRule("-", "//grade")]
    )
    query = "//item[grade > 50]"

    for label, policy in [("grades visible", open_policy), ("grades denied", no_grades)]:
        evaluator = StreamingEvaluator(policy, query=query)
        view = evaluator.run_events(events, with_index=True)
        print("%-15s -> %s" % (label, serialize_events(view) or "(empty)"))
    # With grades denied, the query predicate has no authorized witness:
    # the result is empty even though the items themselves are granted.


def incremental_delivery() -> None:
    document = parse_document(CATALOG)
    events = list(document.iter_events())
    # Granting the root lets the evaluator stream it immediately; each
    # item then resolves as soon as its cost element is parsed.
    policy = Policy(
        [AccessRule("+", "/catalog"), AccessRule("-", "//item[cost >= 10]")]
    )

    evaluator = StreamingEvaluator(policy)
    navigator = EventListNavigator(events)
    evaluator._reset(navigator)

    print("\nIncremental delivery (cost < 10 items):")
    consumed = 0
    while True:
        item = navigator.next()
        if item is None:
            break
        kind, value, meta = item
        if kind == OPEN:
            evaluator._on_open(value, meta)
        elif kind == TEXT:
            evaluator._on_text(value)
        else:
            evaluator._on_close()
        consumed += 1
        ready = evaluator.result.drain_ready()
        if ready:
            rendered = "".join(
                "<%s>" % e[1] if e[0] == OPEN
                else "</%s>" % e[1] if e[0] == CLOSE
                else e[1]
                for e in ready
            )
            print("  after %2d input events: %s" % (consumed, rendered))
    tail = evaluator.result.finalize()
    if tail:
        print("  at end of document:    %s" % serialize_events(tail))


def pending_reassembly() -> None:
    # The approval flag arrives *after* the payload it governs.
    document = parse_document(
        "<batch>"
        "<job><payload>render frames</payload><approved>yes</approved></job>"
        "<job><payload>delete database</payload><approved>no</approved></job>"
        "</batch>"
    )
    policy = Policy(
        [AccessRule("+", "//job[approved = yes]")]
    )
    evaluator = StreamingEvaluator(policy)
    view = evaluator.run_events(list(document.iter_events()), with_index=True)
    print("\nPending predicate (approved flag after payload):")
    print("  " + serialize_events(view))


if __name__ == "__main__":
    query_on_authorized_view()
    incremental_delivery()
    pending_reassembly()

"""Self time over nested spans, on several threads."""

import asyncio
import sys
import threading
import types

import pytest

from perfbench.ledger import ABSORBABLE, ABSORBING, ENTRY, ROOT, Ledger, Span
from perfbench.ledger import self_times, union_length


class ThreadClock:
    """A clock per thread, advanced explicitly by the code under test."""

    def __init__(self):
        self.local = threading.local()

    def __call__(self):
        return getattr(self.local, "now", 0.0)

    def advance(self, seconds):
        self.local.now = self() + seconds


def test_union_length_merges_overlaps_and_clips():
    assert union_length([(1, 4), (3, 6), (9, 12)], 0, 10) == 6
    assert union_length([], 0, 10) == 0
    assert union_length([(-5, 2)], 0, 10) == 2


def test_self_time_subtracts_the_union_of_concurrent_children():
    spans = [
        Span(1, "root", 0.0, 10.0, 0, 1, None),
        # Two children on different threads overlap on [3, 4].
        Span(2, "a", 1.0, 4.0, 1, 1, 3.0),
        Span(3, "b", 3.0, 6.0, 1, 1, 2.5),
        # A child running past its parent only covers up to the end.
        Span(4, "c", 9.0, 12.0, 1, 1, 3.0),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10 - (5 + 1))
    # Spans whose self time was taken on exit keep it.
    assert own[3] == 2.5


def test_nested_sync_spans_on_several_threads():
    clock = ThreadClock()
    ledger = Ledger(clock=clock)

    def leaf():
        clock.advance(1.0)

    def inner():
        clock.advance(2.0)
        wrapped_leaf()
        wrapped_leaf()

    def outer():
        clock.advance(4.0)
        wrapped_inner()

    wrapped_leaf = ledger.sync_span("leaf", leaf)
    wrapped_inner = ledger.sync_span("inner", inner)
    wrapped_outer = ledger.sync_span("outer", outer)
    threads = [threading.Thread(target=wrapped_outer) for _ in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(10)
        assert not thread.is_alive()
    totals = ledger.totals()
    assert totals == pytest.approx({"outer": 12.0, "inner": 6.0, "leaf": 6.0})
    # Only the outermost span of each thread is kept as a record.
    assert sorted(span.name for span in ledger.spans) == ["outer"] * 3
    assert all(span.own == 4.0 for span in ledger.spans)
    assert all(span.end - span.start == 8.0 for span in ledger.spans)


def test_absorbing_span_keeps_absorbable_time():
    clock = ThreadClock()
    ledger = Ledger(clock=clock)
    digest = ledger.sync_span("verify", lambda: clock.advance(1.0), ABSORBABLE)

    def reencrypt():
        clock.advance(2.0)
        digest()

    ledger.sync_span("reencrypt", reencrypt, ABSORBING)()
    digest()
    assert ledger.totals() == pytest.approx({"reencrypt": 3.0, "verify": 1.0})


def test_request_root_follows_work_into_executor_threads():
    ledger = Ledger()
    module = types.ModuleType("perfbench_fake_server")

    def work():
        return threading.get_ident()

    async def handler():
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, module.work)

    module.work = work
    module.handler = handler
    sys.modules[module.__name__] = module
    try:
        ledger.install(
            (
                (module.__name__, "handler", "server.request", ROOT),
                (module.__name__, "work", "engine.station", ENTRY),
            )
        )
        worker = asyncio.run(module.handler())
    finally:
        ledger.uninstall()
        del sys.modules[module.__name__]
    assert worker != threading.get_ident()
    assert module.work is work and module.handler is handler
    by_name = {span.name: span for span in ledger.spans}
    root = by_name["server.request"]
    wait, station = by_name["server.executor_wait"], by_name["engine.station"]
    assert wait.parent == station.parent == root.sid
    assert wait.request == station.request == root.sid
    assert wait.start == root.start and wait.end <= station.start
    totals = ledger.totals()
    covered = union_length(
        [(wait.start, wait.end), (station.start, station.end)], root.start, root.end
    )
    assert totals["server.request"] == pytest.approx(
        root.end - root.start - covered
    )

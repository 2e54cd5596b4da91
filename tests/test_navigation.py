"""Unit tests for navigators and the SOE cost model."""

import pytest

from repro.accesscontrol.navigation import (
    EventListNavigator,
    SimpleEventNavigator,
)
from repro.metrics import Meter
from repro.soe.costmodel import CONTEXTS, CostModel, PlatformContext
from repro.xmlkit.events import CLOSE, OPEN, TEXT, Event
from repro.xmlkit.parser import iter_events

DOC = "<a><b><c>x</c></b><d>y</d><e/></a>"


def events():
    return list(iter_events(DOC))


class TestSimpleEventNavigator:
    def test_yields_everything_without_meta(self):
        navigator = SimpleEventNavigator(events())
        seen = []
        while True:
            item = navigator.next()
            if item is None:
                break
            seen.append(item)
        assert len(seen) == len(events())
        assert all(meta is None for _k, _v, meta in seen)

    def test_no_skip_support(self):
        navigator = SimpleEventNavigator(events())
        assert not navigator.supports_skip()
        with pytest.raises(NotImplementedError):
            navigator.skip_subtree()


class TestEventListNavigator:
    def test_metadata_strict_descendants(self):
        navigator = EventListNavigator(events())
        kind, value, meta = navigator.next()
        assert (kind, value) == (OPEN, "a")
        assert meta.desc_tags == frozenset({"b", "c", "d", "e"})
        kind, value, meta = navigator.next()
        assert (kind, value) == (OPEN, "b")
        assert meta.desc_tags == frozenset({"c"})

    def test_skip_subtree_lands_on_close(self):
        navigator = EventListNavigator(events())
        navigator.next()  # open a
        navigator.next()  # open b
        navigator.skip_subtree()
        kind, value, _ = navigator.next()
        assert (kind, value) == (CLOSE, "b")

    def test_skip_meter_accounting(self):
        meter = Meter()
        navigator = EventListNavigator(events(), meter=meter)
        navigator.next()
        navigator.next()
        navigator.skip_subtree()
        assert meter.skipped_bytes > 0

    def test_skip_rest_nothing_to_skip(self):
        navigator = EventListNavigator(events())
        navigator.next()  # open a
        navigator.next()  # open b
        navigator.next()  # open c
        navigator.next()  # text x
        assert navigator.skip_rest() is False  # c has nothing left
        assert navigator.skip_rest_and_capture() is None

    def test_capture_replays_subtree(self):
        navigator = EventListNavigator(events())
        navigator.next()  # a
        navigator.next()  # b
        fetch = navigator.skip_and_capture()
        captured = list(fetch())
        assert captured[0] == Event(OPEN, "b")
        assert captured[-1] == Event(CLOSE, "b")
        assert Event(TEXT, "x") in captured

    def test_unbalanced_rejected(self):
        with pytest.raises(ValueError):
            EventListNavigator([Event(OPEN, "a")])


class TestCostModel:
    def test_breakdown_linear_in_bytes(self):
        model = CostModel(CONTEXTS["smartcard"])
        meter = Meter()
        meter.bytes_transferred = 500_000
        assert model.breakdown(meter).communication == pytest.approx(1.0)
        meter.bytes_transferred = 1_000_000
        assert model.breakdown(meter).communication == pytest.approx(2.0)

    def test_delivered_bytes_count_as_communication(self):
        model = CostModel(CONTEXTS["smartcard"])
        meter = Meter()
        meter.bytes_delivered = 500_000
        assert model.breakdown(meter).communication == pytest.approx(1.0)

    def test_decryption_rate(self):
        model = CostModel(CONTEXTS["smartcard"])
        meter = Meter()
        meter.bytes_decrypted = 150_000
        assert model.breakdown(meter).decryption == pytest.approx(1.0)

    def test_integrity_components(self):
        context = PlatformContext(
            "test", 1e6, 1e6, hash_bps=1e6, hash_node_cost_s=1e-3
        )
        meter = Meter()
        meter.bytes_hashed = 1_000_000
        meter.hash_nodes = 10
        breakdown = CostModel(context).breakdown(meter)
        assert breakdown.integrity == pytest.approx(1.0 + 0.01)

    def test_access_control_component(self):
        context = PlatformContext("t", 1e6, 1e6, token_op_cost_s=1e-6,
                                  event_cost_s=1e-6)
        meter = Meter()
        meter.token_ops = 1000
        meter.events = 1000
        assert CostModel(context).breakdown(meter).access_control == (
            pytest.approx(0.002)
        )

    def test_shares_sum_to_one(self):
        meter = Meter()
        meter.bytes_transferred = 1000
        meter.bytes_decrypted = 1000
        meter.token_ops = 10
        meter.bytes_hashed = 100
        shares = CostModel(CONTEXTS["smartcard"]).breakdown(meter).shares()
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_zero_meter_zero_time(self):
        breakdown = CostModel(CONTEXTS["smartcard"]).breakdown(Meter())
        assert breakdown.total == 0
        assert sum(breakdown.shares().values()) == 0

    def test_lower_bound_monotone_in_bytes(self):
        model = CostModel(CONTEXTS["smartcard"])
        assert model.lower_bound_seconds(2000) > model.lower_bound_seconds(1000)
        assert model.lower_bound_seconds(1000, with_integrity=True) > (
            model.lower_bound_seconds(1000)
        )


class TestMeter:
    def test_reset(self):
        meter = Meter()
        meter.events = 5
        meter.reset()
        assert meter.events == 0

    def test_merge(self):
        a, b = Meter(), Meter()
        a.events = 3
        b.events = 4
        b.token_ops = 2
        a.merge(b)
        assert a.events == 7
        assert a.token_ops == 2

    def test_as_dict_covers_all_fields(self):
        meter = Meter()
        data = meter.as_dict()
        assert set(data) == set(Meter.FIELDS)
        assert all(value == 0 for value in data.values())

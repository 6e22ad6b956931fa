"""Unit tests for the subscription routing table (no sim, no HTTP)."""

from __future__ import annotations

import pytest

from repro import obs
from repro.nb.subscriptions import (
    KIND_CELL,
    KIND_EVENTS,
    KIND_TTI,
    KIND_UE,
    SubscriptionTable,
)


class TestMembership:
    def test_subscribe_assigns_unique_ids(self):
        table = SubscriptionTable()
        a = table.subscribe(KIND_EVENTS)
        b = table.subscribe(KIND_TTI, period_ttis=10)
        assert a.sub_id != b.sub_id
        assert len(table) == 2

    def test_unsubscribe_removes_and_reports(self):
        table = SubscriptionTable()
        sub = table.subscribe(KIND_EVENTS)
        assert table.unsubscribe(sub.sub_id) is True
        assert sub.closed is True
        assert table.unsubscribe(sub.sub_id) is False
        assert len(table) == 0

    def test_ue_and_cell_require_key(self):
        table = SubscriptionTable()
        with pytest.raises(ValueError):
            table.subscribe(KIND_UE)
        with pytest.raises(ValueError):
            table.subscribe(KIND_CELL, key=(1,))

    def test_rejects_unknown_kind_and_bad_params(self):
        table = SubscriptionTable()
        with pytest.raises(ValueError):
            table.subscribe("bogus")
        with pytest.raises(ValueError):
            table.subscribe(KIND_TTI, period_ttis=0)
        with pytest.raises(ValueError):
            table.subscribe(KIND_EVENTS, capacity=0)

    def test_describe_lists_rows(self):
        table = SubscriptionTable()
        table.subscribe(KIND_UE, key=(1, 7), period_ttis=5)
        (row,) = table.describe()
        assert row["kind"] == KIND_UE
        assert row["key"] == [1, 7]
        assert row["period_ttis"] == 5


class TestEventRouting:
    def test_publish_reaches_matching_classes_only(self):
        table = SubscriptionTable()
        any_class = table.subscribe(KIND_EVENTS)
        only_ho = table.subscribe(
            KIND_EVENTS, event_classes=frozenset({"handover_complete"}))
        reached = table.publish_event("ue_attach", b"{}", 0.0)
        assert reached == 1
        assert len(any_class.queue) == 1
        assert len(only_ho.queue) == 0
        reached = table.publish_event("handover_complete", b"{}", 0.0)
        assert reached == 2
        assert len(only_ho.queue) == 1

    def test_unsubscribed_rows_receive_nothing(self):
        table = SubscriptionTable()
        sub = table.subscribe(KIND_EVENTS)
        table.publish_event("ue_attach", b"{}", 0.0)
        table.unsubscribe(sub.sub_id)
        published_before = sub.published
        table.publish_event("ue_attach", b"{}", 0.0)
        assert sub.published == published_before


class TestBackpressure:
    def test_full_queue_drops_oldest_never_blocks(self):
        table = SubscriptionTable()
        sub = table.subscribe(KIND_EVENTS, capacity=3)
        for i in range(10):
            table.publish_event("ue_attach", b"%d" % i, 0.0)
        assert sub.drops == 7
        assert sub.published == 10
        # Drop-oldest: the freshest three frames survive.
        assert [p for p, _ in sub.queue] == [b"7", b"8", b"9"]

    def test_drops_counted_in_obs(self):
        with obs.enabled_scope(trace=False) as ob:
            table = SubscriptionTable()
            table.subscribe(KIND_EVENTS, capacity=1)
            for _ in range(5):
                table.publish_event("ue_attach", b"{}", 0.0)
            counter = ob.registry.counter("nb.fanout.dropped.events")
            assert counter.value == 4

    def test_active_gauge_tracks_membership(self):
        with obs.enabled_scope(trace=False) as ob:
            table = SubscriptionTable()
            a = table.subscribe(KIND_EVENTS)
            table.subscribe(KIND_TTI, period_ttis=10)
            gauge = ob.registry.gauge("nb.subscriptions.active")
            assert gauge.value == 2
            table.unsubscribe(a.sub_id)
            assert gauge.value == 1

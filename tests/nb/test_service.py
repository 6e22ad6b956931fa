"""Service-core tests: controller bridge, pump, sampling.

Everything here drives the simulation synchronously on the test thread
-- the pump runs as a master cycle hook, so streams fill as
``sim.run`` steps.  Commands through the server: tests/nb/test_pump.py.
"""

from __future__ import annotations

import json

from repro import obs
from repro.lte.phy.channel import FixedCqi
from repro.lte.ue import Ue
from repro.nb.service import NorthboundService

from tests.nb.conftest import build_sim


def drain(sub):
    """Decode and clear everything queued on a subscription."""
    items = [json.loads(payload) for payload, _ in sub.queue]
    sub.queue.clear()
    return items


def agent_id_of(sim) -> int:
    ids = sim.master.rib.agent_ids()
    assert ids, "agent not yet in RIB"
    return ids[0]


class TestEventStreams:
    def test_events_arrive_in_tti_order_then_unsubscribe(self):
        sim = build_sim(n_ues=0)
        svc = NorthboundService(sim.master)
        svc.attach()
        try:
            sub = svc.subscribe_events()
            enb = next(iter(sim.enbs.values()))
            # Attach UEs at different TTIs: each attach produces events.
            for i in range(3):
                sim.add_ue(enb, Ue(f"20893111100{i:02d}", FixedCqi(10)))
                sim.run(40)
            items = drain(sub)
            assert len(items) >= 3
            ttis = [item["tti"] for item in items]
            assert ttis == sorted(ttis), "events must be in TTI order"
            assert all(item["stream"] == "events" for item in items)
            # Unsubscribe: nothing further is delivered.
            svc.unsubscribe(sub.sub_id)
            published = sub.published
            sim.add_ue(enb, Ue("208931111999", FixedCqi(10)))
            sim.run(40)
            assert sub.published == published
            assert len(sub.queue) == 0
        finally:
            svc.detach()

    def test_event_class_filter(self):
        sim = build_sim(n_ues=0)
        svc = NorthboundService(sim.master)
        svc.attach()
        try:
            never = svc.subscribe_events(frozenset({"no_such_class"}))
            every = svc.subscribe_events()
            enb = next(iter(sim.enbs.values()))
            sim.add_ue(enb, Ue("208931111001", FixedCqi(10)))
            sim.run(40)
            assert len(every.queue) > 0
            assert len(never.queue) == 0
        finally:
            svc.detach()


class TestSampledStreams:
    def test_tti_stream_honours_period(self, sim, service):
        sim.run(10)
        sub = service.subscribe_tti(period_ttis=20)
        sim.run(100)
        items = drain(sub)
        ttis = [item["tti"] for item in items]
        assert len(items) == 5
        assert all(b - a == 20 for a, b in zip(ttis, ttis[1:]))

    def test_cell_stream_samples_rib(self, sim, service):
        sim.run(60)
        agent = agent_id_of(sim)
        cell_id = sorted(sim.master.rib.agent(agent).cells)[0]
        sub = service.subscribe_cell(agent, cell_id, period_ttis=10)
        sim.run(30)
        items = drain(sub)
        assert items
        assert items[0]["cell"] == cell_id
        assert items[0]["present"] is True

    def test_missing_ue_encodes_absent_not_crash(self, sim, service):
        sim.run(60)
        agent = agent_id_of(sim)
        sub = service.subscribe_ue(agent, 9999, period_ttis=10)
        sim.run(30)
        items = drain(sub)
        assert items
        assert items[0]["present"] is False


class TestBackpressure:
    def test_slow_consumer_never_stalls_tti_loop(self, sim, service):
        with obs.enabled_scope(trace=False) as ob:
            sub = service.subscribe_tti(period_ttis=1, capacity=4)
            start = sim.now
            sim.run(500)  # nobody drains the queue
            assert sim.now == start + 500, "TTI loop must keep ticking"
            assert len(sub.queue) == 4
            assert sub.drops == 500 - 4
            counter = ob.registry.counter("nb.fanout.dropped.tti")
            assert counter.value == 500 - 4


class TestLifecycle:
    def test_attach_is_idempotent_and_detach_unhooks(self, sim):
        svc = NorthboundService(sim.master)
        svc.attach()
        svc.attach()
        sub = svc.subscribe_tti(period_ttis=1)
        sim.run(5)
        assert sub.published == 5
        svc.detach()
        sim.run(5)
        assert sub.published == 5  # no pump, no publishes

"""Tests for the master controller: registry, task manager, events,
northbound API, and the full master--agent loop."""

import pytest

from repro.core.agent import FlexRanAgent
from repro.core.apps.base import App
from repro.core.controller import MasterController
from repro.core.controller.events import EventNotificationService
from repro.core.controller.registry import AppState, RegistryService
from repro.core.controller.task_manager import TaskManager
from repro.core.survive.supervisor import AppSupervisor, SupervisionPolicy
from repro.core.protocol.messages import (
    EventNotification,
    EventType,
    ReportType,
)
from repro.lte.enodeb import EnodeB
from repro.lte.phy.channel import FixedCqi
from repro.lte.ue import Ue
from repro.net.transport import ControlConnection


class Recorder(App):
    name = "recorder"
    priority = 5
    subscribed_events = frozenset({EventType.UE_ATTACH})

    def __init__(self, name="recorder", priority=5, period=1, cost_ms=0.0):
        self.name = name
        self.priority = priority
        self.period_ttis = period
        self.cost_ms = cost_ms
        self.runs = []
        self.events = []

    def run(self, tti, nb):
        self.runs.append(tti)

    def on_event(self, event, tti, nb):
        self.events.append((event.event_type, event.rnti))


class TestRegistry:
    def test_register_and_order_by_priority(self):
        reg = RegistryService()
        low = Recorder("low", priority=1)
        high = Recorder("high", priority=9)
        reg.register(low)
        reg.register(high)
        assert [r.app.name for r in reg.runnable()] == ["high", "low"]

    def test_duplicate_name_rejected(self):
        reg = RegistryService()
        reg.register(Recorder("x"))
        with pytest.raises(ValueError):
            reg.register(Recorder("x"))

    def test_pause_resume(self):
        reg = RegistryService()
        reg.register(Recorder("x"))
        reg.pause("x")
        assert reg.runnable() == []
        assert reg.registration("x").state is AppState.PAUSED
        reg.resume("x")
        assert len(reg.runnable()) == 1

    def test_descriptions_carry_the_declared_cost(self):
        reg = RegistryService()
        app = Recorder("x", cost_ms=0.25)
        reg.register(app)
        (row,) = reg.describe()        # the /v1/apps payload
        assert (row["name"], row["cost_ms"]) == ("x", 0.25)
        assert (row["state"], row["runs"]) == ("running", 0)
        assert row["subscribed_events"] == ["ue_attach"]
        assert app.describe()["cost_ms"] == 0.25
        assert App.cost_ms == 0.0 and App.deadline_ms is None

    def test_deregister(self):
        reg = RegistryService()
        reg.register(Recorder("x"))
        reg.deregister("x")
        assert reg.names() == []
        with pytest.raises(KeyError):
            reg.registration("x")


class TestTaskManager:
    def make(self, realtime=True, **kw):
        registry = RegistryService()
        events = EventNotificationService(registry)
        return registry, events, TaskManager(registry, events,
                                             realtime=realtime, **kw)

    def test_cycle_runs_due_apps(self):
        registry, events, tm = self.make()
        app = Recorder(period=2)
        registry.register(app)
        for t in range(4):
            tm.cycle(t, lambda: None, nb=None)
        assert app.runs == [0, 2]

    def test_priority_order_within_cycle(self):
        registry, events, tm = self.make()
        order = []

        class P(Recorder):
            def run(self, tti, nb):
                order.append(self.name)

        registry.register(P("b", priority=1))
        registry.register(P("a", priority=10))
        tm.cycle(0, lambda: None, nb=None)
        assert order == ["a", "b"]

    def test_core_slot_runs_drain(self):
        registry, events, tm = self.make()
        drained = []
        tm.cycle(0, lambda: drained.append(True), nb=None)
        assert drained == [True]

    def test_timing_recorded(self):
        registry, events, tm = self.make()
        registry.register(Recorder())
        record = tm.cycle(0, lambda: None, nb=None)
        assert record.core_ms >= 0
        assert record.app_ms >= 0
        assert record.idle_ms <= tm.tti_budget_ms
        assert tm.stats.cycles == 1

    def test_realtime_defers_over_budget(self):
        # App slot: 80% of 0.5 ms = 0.4 ms; the first app declares 1 ms.
        registry, events, tm = self.make(realtime=True, tti_budget_ms=0.5,
                                         updater_share=0.2)
        first = Recorder("first", priority=10, cost_ms=1.0)
        second = Recorder("second", priority=1, cost_ms=1.0)
        registry.register(first)
        registry.register(second)
        record = tm.cycle(0, lambda: None, nb=None)
        assert record.apps_run == 1
        assert record.apps_deferred == 1
        assert record.slot_ms == 1.0
        assert first.runs == [0]
        assert second.runs == []
        assert tm.stats.deferred_total == 1

    def test_slot_fills_in_priority_order_up_to_the_budget(self):
        # 0.8 ms slot: 0.3 + 0.5 fit exactly (deferral is "exceeds"),
        # the 0.1 ms app after them runs too, the fourth is deferred.
        registry, events, tm = self.make(realtime=True)
        apps = [Recorder("a", priority=9, cost_ms=0.3),
                Recorder("b", priority=8, cost_ms=0.5),
                Recorder("c", priority=7, cost_ms=0.1),
                Recorder("d", priority=6, cost_ms=0.1)]
        for app in apps:
            registry.register(app)
        for tti in range(3):
            record = tm.cycle(tti, lambda: None, nb=None)
            assert (record.apps_run, record.apps_deferred) == (3, 1)
            assert record.slot_ms == pytest.approx(0.9)
        assert [len(app.runs) for app in apps] == [3, 3, 3, 0]

    def test_non_realtime_never_defers(self):
        # A 1 us cycle budget: any real cycle overruns it, measurably.
        registry, events, tm = self.make(realtime=False, tti_budget_ms=0.001)
        a = Recorder("a", priority=2, cost_ms=0.5)
        b = Recorder("b", priority=1, cost_ms=0.5)
        registry.register(a)
        registry.register(b)
        record = tm.cycle(0, lambda: None, nb=None)
        assert record.apps_run == 2
        assert record.apps_deferred == 0
        assert record.slot_ms == 1.0
        assert a.runs == b.runs == [0]
        assert record.overran
        assert tm.stats.overruns == 1

    def test_event_delivery_cost_counts_toward_the_slot(self):
        registry, events, tm = self.make(realtime=True)
        handler = Recorder("handler", priority=9, period=0, cost_ms=0.5)
        low = Recorder("low", priority=1)
        low.subscribed_events = frozenset()
        registry.register(handler)
        registry.register(low)
        attach = EventNotification(event_type=int(EventType.UE_ATTACH),
                                   rnti=70)
        # One delivery (0.5 ms) leaves room; two (1.0 ms) exhaust the
        # 0.8 ms slot before any periodic app has run.
        events.enqueue([attach])
        record = tm.cycle(0, lambda: None, nb=None)
        assert (record.apps_run, record.apps_deferred) == (1, 0)
        assert record.slot_ms == 0.5
        events.enqueue([attach, attach])
        record = tm.cycle(1, lambda: None, nb=None)
        assert (record.apps_run, record.apps_deferred) == (0, 1)
        assert record.slot_ms == 1.0
        assert low.runs == [0]
        assert len(handler.events) == 3

    def test_unsupervised_manager_still_charges_and_defers(self):
        master = MasterController(supervision=False)
        assert master.task_manager.supervisor is None
        heavy = Recorder("heavy", priority=9, cost_ms=2.0)
        low = Recorder("low", priority=1)
        master.add_app(heavy)
        master.add_app(low)
        for tti in range(4):
            master.tick(tti)
        assert heavy.runs == [0, 1, 2, 3]
        assert low.runs == []
        assert master.task_manager.stats.deferred_total == 4

    def test_invalid_params_rejected(self):
        registry, events, _ = self.make()
        with pytest.raises(ValueError):
            TaskManager(registry, events, updater_share=0.0)
        with pytest.raises(ValueError):
            TaskManager(registry, events, tti_budget_ms=0)


class TestEventService:
    def test_dispatch_to_subscribers(self):
        registry = RegistryService()
        events = EventNotificationService(registry)
        app = Recorder()
        registry.register(app)
        events.enqueue([EventNotification(event_type=int(EventType.UE_ATTACH),
                                          rnti=70)])
        events.dispatch(0, nb=None)
        assert events.delivered == 1
        assert app.events == [(0, 70)]

    def test_unsubscribed_event_dropped(self):
        registry = RegistryService()
        events = EventNotificationService(registry)
        registry.register(Recorder())
        events.enqueue([EventNotification(
            event_type=int(EventType.SCHEDULING_REQUEST), rnti=70)])
        events.dispatch(0, nb=None)
        assert events.delivered == 0
        assert events.dropped_no_subscriber == 1
        assert events.dropped_quarantined == 0

    def test_crashed_delivery_is_not_a_missing_subscriber(self):
        registry = RegistryService()
        sup = AppSupervisor(SupervisionPolicy(max_consecutive_faults=1))
        events = EventNotificationService(registry, supervisor=sup)

        class Crashing(Recorder):
            def on_event(self, event, tti, nb):
                raise RuntimeError("handler bug")

        registry.register(Crashing())
        attach = EventNotification(event_type=int(EventType.UE_ATTACH),
                                   rnti=70)
        # TTI 0: the handler crashes (and is quarantined); a subscriber
        # existed, so neither drop counter moves.
        events.enqueue([attach])
        events.dispatch(0, nb=None)
        assert (events.dropped_no_subscriber,
                events.dropped_quarantined) == (0, 0)
        assert sup.health("recorder").crashes == 1
        # TTI 1: one drop, one counter.
        events.enqueue([attach])
        events.dispatch(1, nb=None)
        assert (events.dropped_no_subscriber,
                events.dropped_quarantined) == (0, 1)
        assert events.delivered == 0


def build_loop(rtt_ms=0.0):
    """A full master<->agent<->eNodeB loop for integration tests."""
    enb = EnodeB(1)
    conn = ControlConnection(rtt_ms=rtt_ms)
    agent = FlexRanAgent(1, enb, endpoint=conn.agent_side)
    master = MasterController()
    master.connect_agent(1, conn.master_side)
    return enb, agent, master, conn


def drive(enb, agent, master, ttis, per_tti=None):
    for t in range(ttis):
        if per_tti:
            per_tti(t)
        agent.tick_tx(t)
        master.tick(t)
        agent.tick_rx(t)
        enb.tick(t)


class TestMasterLoop:
    def test_hello_triggers_config_request(self):
        enb, agent, master, conn = build_loop()
        drive(enb, agent, master, 3)
        agent_node = master.rib.agent(1)
        assert agent_node.enb_id == 1
        assert 10 in agent_node.cells

    def test_ue_attach_event_refreshes_ue_configs(self):
        enb, agent, master, conn = build_loop()
        ue = Ue("001", FixedCqi(15))
        rnti = enb.attach_ue(ue, tti=0)
        drive(enb, agent, master, 100,
              lambda t: t >= 20 and enb.enqueue_dl(rnti, 200, t))
        cells = master.rib.agent(1).cells
        assert rnti in cells[10].ues
        assert cells[10].ues[rnti].config.imsi == "001"

    def test_stats_subscription_via_northbound(self):
        enb, agent, master, conn = build_loop()
        rnti = enb.attach_ue(Ue("001", FixedCqi(11)), tti=0)

        def per_tti(t):
            if t == 5:
                master.northbound.request_stats(
                    1, report_type=ReportType.PERIODIC, period_ttis=1)
        drive(enb, agent, master, 50, per_tti)
        node = master.rib.agent(1).cells[10].ues[rnti]
        assert node.stats is not None
        assert node.cqi == 11

    def test_app_lifecycle_and_events(self):
        enb, agent, master, conn = build_loop()
        app = Recorder()
        master.add_app(app)
        rnti = enb.attach_ue(Ue("001", FixedCqi(15)), tti=0)
        drive(enb, agent, master, 100,
              lambda t: t >= 15 and enb.enqueue_dl(rnti, 200, t))
        assert len(app.runs) == 100
        assert (int(EventType.UE_ATTACH), rnti) in app.events

    def test_duplicate_agent_rejected(self):
        master = MasterController()
        conn = ControlConnection()
        master.connect_agent(1, conn.master_side)
        with pytest.raises(ValueError):
            master.connect_agent(1, conn.master_side)

    def test_send_to_unknown_agent_rejected(self):
        master = MasterController()
        with pytest.raises(KeyError):
            master.northbound.ping(9)

    def test_latency_delays_rib_updates(self):
        enb, agent, master, conn = build_loop(rtt_ms=20)
        drive(enb, agent, master, 8)
        # Hello sent at t=0 with one-way delay 10 -> not yet in RIB.
        assert master.rib.agent_ids() == []
        drive_from = 8

        for t in range(drive_from, 30):
            agent.tick_tx(t)
            master.tick(t)
            agent.tick_rx(t)
            enb.tick(t)
        assert master.rib.agent_ids() == [1]

    def test_cycle_stats_accumulate(self):
        enb, agent, master, conn = build_loop()
        drive(enb, agent, master, 20)
        assert master.task_manager.stats.cycles == 20
        assert master.task_manager.stats.mean_core_ms >= 0

"""Tests of the app supervisor, fault boundaries and CMI rollback."""

import pytest

from repro.core.agent import FlexRanAgent
from repro.core.agent.mac_module import MacControlModule
from repro.core.apps.base import App
from repro.core.controller.master import MasterController
from repro.core.protocol.messages import EventNotification, EventType
from repro.core.survive import supervisor
from repro.core.survive.supervisor import (
    AppSupervisor,
    BreakerState,
    capped_doubling,
)
from repro.lte.enodeb import EnodeB
from repro.net.transport import ControlConnection
from repro.wifi.agent import WifiAgent
from repro.wifi.ap import Station, WifiAp


@pytest.fixture(autouse=True)
def short_breaker(monkeypatch):
    """These tests run the breaker at a 100-TTI first cooldown and three
    probation runs (three faults open it, as always)."""
    monkeypatch.setattr(supervisor, "COOLDOWN_TTIS", 100)
    monkeypatch.setattr(supervisor, "PROBATION_RUNS", 3)


class TestCappedDoubling:
    def test_doubles_from_the_base_and_stops_at_the_cap(self):
        assert [capped_doubling(50, 800, n) for n in range(7)] == [
            50, 100, 200, 400, 800, 800, 800]
        assert capped_doubling(0.1, 0.5, 3) == 0.5

    def test_any_count_of_doublings_is_safe(self):
        assert capped_doubling(0.05, 2.0, 5000) == 2.0
        assert capped_doubling(500, 8000, 10 ** 9) == 8000
        assert capped_doubling(0.0, 2.0, 5000) == 0.0

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            capped_doubling(1, 2, -1)


def crash():
    raise RuntimeError("boom")


def ok():
    pass


class TestBreakerStateMachine:
    def test_quarantines_after_consecutive_faults(self):
        sup = AppSupervisor()
        for tti in range(3):
            assert sup.call("a", crash, tti=tti) is False
        h = sup.health("a")
        assert h.state is BreakerState.QUARANTINED
        assert h.crashes == 3
        assert sup.faults_contained == 3

    def test_clean_run_resets_fault_streak(self):
        sup = AppSupervisor()
        sup.call("a", crash, tti=0)
        sup.call("a", crash, tti=1)
        sup.call("a", ok, tti=2)
        sup.call("a", crash, tti=3)
        sup.call("a", crash, tti=4)
        assert sup.health("a").state is BreakerState.CLOSED

    def test_readmission_after_cooldown_then_close(self):
        sup = AppSupervisor()
        for tti in range(3):
            sup.call("a", crash, tti=tti)
        # During cooldown: not admitted.
        assert not sup.admitted("a", 50)
        # Cooldown expired: admitted on probation.
        assert sup.admitted("a", 102 + 100)
        h = sup.health("a")
        assert h.state is BreakerState.PROBATION
        assert h.readmissions == 1
        for tti in range(210, 213):
            sup.call("a", ok, tti=tti)
        assert h.state is BreakerState.CLOSED

    def test_fault_during_probation_requarantines_escalated(self):
        sup = AppSupervisor()
        for tti in range(3):
            sup.call("a", crash, tti=tti)
        first_cooldown = sup.health("a").cooldown_ttis
        assert sup.admitted("a", 300)
        # One strike during probation: straight back to quarantine.
        sup.call("a", crash, tti=300)
        h = sup.health("a")
        assert h.state is BreakerState.QUARANTINED
        assert h.quarantines == 2
        assert h.cooldown_ttis == 2 * first_cooldown

    def test_cooldown_escalation_is_capped(self, monkeypatch):
        monkeypatch.setattr(supervisor, "MAX_COOLDOWN_TTIS", 300)
        sup = AppSupervisor()
        tti = 0
        for _ in range(6):
            while sup.health("a").state is not BreakerState.QUARANTINED:
                sup.call("a", crash, tti=tti)
                tti += 1
            tti = sup.health("a").quarantined_at_tti + \
                sup.health("a").cooldown_ttis + 1
            sup.admitted("a", tti)
        assert sup.health("a").cooldown_ttis <= 300

    def test_cooldowns_double_from_the_base_to_the_cap(self, monkeypatch):
        monkeypatch.setattr(supervisor, "MAX_CONSECUTIVE_FAULTS", 1)
        monkeypatch.setattr(supervisor, "PROBATION_RUNS", 1)
        sup = AppSupervisor()
        cooldowns = []
        tti = 0
        for _ in range(12):
            sup.call("a", crash, tti=tti)  # closed or on probation
            h = sup.health("a")
            assert h.state is BreakerState.QUARANTINED
            cooldowns.append(h.cooldown_ttis)
            tti = h.quarantined_at_tti + h.cooldown_ttis
            assert sup.admitted("a", tti)
        assert cooldowns == [min(100 * 2 ** q, 8000) for q in range(12)]

    def test_event_and_periodic_faults_counted_separately(self):
        sup = AppSupervisor()
        sup.call("a", crash, tti=0, kind="periodic")
        sup.call("a", crash, tti=1, kind="event")
        sup.call("a", crash, tti=2, kind="event")
        h = sup.health("a")
        assert h.faults_by_kind == {"periodic": 1, "event": 2}
        # Both patterns feed the same breaker.
        assert h.state is BreakerState.QUARANTINED

    def test_overrun_faults_the_breaker(self):
        sup = AppSupervisor()
        for tti in range(2):
            # Over its deadline, but it completed.
            assert sup.call("a", ok, tti=tti, cost_ms=2.0,
                            deadline_ms=0.1) is True
        h = sup.health("a")
        assert h.overruns == 2
        assert h.consecutive_faults == 2  # an overrun is a fault
        assert h.faults_by_kind == {"periodic": 2}
        assert h.crashes == 0 and sup.faults_contained == 0
        assert h.state is BreakerState.CLOSED

    def test_cost_at_or_under_the_deadline_is_clean(self):
        sup = AppSupervisor()
        sup.call("a", ok, tti=0, cost_ms=0.5, deadline_ms=0.5)
        sup.call("a", ok, tti=1, cost_ms=0.9, deadline_ms=1.0)
        sup.call("a", ok, tti=2, cost_ms=9.0)          # no deadline
        h = sup.health("a")
        assert (h.overruns, h.clean_runs) == (0, 3)

    def test_three_overruns_in_a_row_quarantine(self):
        sup = AppSupervisor()

        def run(tti, cost_ms):
            sup.call("a", ok, tti=tti, cost_ms=cost_ms, deadline_ms=0.8)

        # A clean run in between resets the count.
        run(0, 2.0), run(1, 2.0), run(2, 0.1), run(3, 2.0), run(4, 2.0)
        h = sup.health("a")
        assert h.state is BreakerState.CLOSED
        assert h.consecutive_faults == 2
        run(5, 2.0)
        assert h.transitions == [(5, BreakerState.QUARANTINED)]
        assert h.overruns == 5
        assert h.last_fault == "deadline: 2.0 ms > 0.8 ms"
        # Crashes and overruns feed one count.
        sup.call("b", crash, tti=0)
        sup.call("b", ok, tti=1, cost_ms=2.0, deadline_ms=0.8)
        sup.call("b", crash, tti=2)
        assert sup.health("b").transitions == [(2, BreakerState.QUARANTINED)]

    def test_overrun_on_probation_requarantines_escalated(self):
        sup = AppSupervisor()
        for tti in range(3):
            sup.call("a", ok, tti=tti, cost_ms=2.0, deadline_ms=0.8)
        h = sup.health("a")
        assert h.cooldown_ttis == 100
        assert not sup.admitted("a", 101)
        assert sup.admitted("a", 102)
        sup.call("a", ok, tti=102, cost_ms=0.1, deadline_ms=0.8)
        sup.call("a", ok, tti=103, cost_ms=2.0, deadline_ms=0.8)
        assert h.cooldown_ttis == 200
        assert not sup.admitted("a", 302)
        assert sup.admitted("a", 303)
        for tti in range(303, 306):
            sup.call("a", ok, tti=tti, cost_ms=0.1, deadline_ms=0.8)
        assert h.transitions == [
            (2, BreakerState.QUARANTINED), (102, BreakerState.PROBATION),
            (103, BreakerState.QUARANTINED), (303, BreakerState.PROBATION),
            (305, BreakerState.CLOSED)]

    def test_describe_reports_state(self):
        sup = AppSupervisor()
        sup.call("a", crash, tti=0)
        desc = sup.describe()
        assert desc["a"]["crashes"] == 1
        assert desc["a"]["state"] == "closed"


class CrashingApp(App):
    name = "crasher"
    priority = 50
    period_ttis = 1

    def __init__(self):
        self.attempts = 0

    def run(self, tti, nb):
        self.attempts += 1
        raise RuntimeError("app boom")


class HealthyApp(App):
    name = "healthy"
    priority = 10  # lower than the crasher: starvation probe
    period_ttis = 1

    def __init__(self):
        self.runs_done = 0

    def run(self, tti, nb):
        self.runs_done += 1


class TestTaskManagerBoundary:
    def test_crashing_app_never_stalls_cycle_or_starves_others(self):
        master = MasterController()
        crasher = CrashingApp()
        healthy = HealthyApp()
        master.add_app(crasher)
        master.add_app(healthy)
        for tti in range(20):
            master.tick(tti)
        # Every cycle completed and the lower-priority app always ran.
        assert master.task_manager.stats.cycles == 20
        assert healthy.runs_done == 20
        # The crasher was quarantined after 3 faults and then skipped.
        h = master.supervisor.health("crasher")
        assert h.state is BreakerState.QUARANTINED
        assert crasher.attempts == 3
        assert master.task_manager.stats.quarantined_total > 0

    def test_priority_preserved_across_quarantine(self, monkeypatch):
        # After re-admission the app runs at its original priority
        # (before lower-priority apps in the slot).
        monkeypatch.setattr(supervisor, "COOLDOWN_TTIS", 5)
        monkeypatch.setattr(supervisor, "PROBATION_RUNS", 2)
        master = MasterController()
        crasher = CrashingApp()
        healthy = HealthyApp()
        master.add_app(crasher)
        master.add_app(healthy)
        order = []
        crasher_run, healthy_run = crasher.run, healthy.run

        def spy(app, orig):
            def run(tti, nb):
                order.append((tti, app.name))
                return orig(tti, nb)
            return run

        crasher.run = spy(crasher, crasher_run)
        healthy.run = spy(healthy, healthy_run)
        for tti in range(3):  # quarantined at tti 2
            master.tick(tti)
        crasher.run = spy(crasher, HealthyApp.run.__get__(crasher))
        for tti in range(3, 15):
            master.tick(tti)
        assert master.supervisor.health("crasher").readmissions == 1
        # On its first post-readmission TTI the crasher still ran
        # before the healthy app.
        readmit_tti = next(t for t, name in order
                           if t > 2 and name == "crasher")
        both = [name for t, name in order if t == readmit_tti]
        assert both == ["crasher", "healthy"]


class EventCrashApp(App):
    name = "event_crasher"
    period_ttis = 0  # event-only

    from repro.core.protocol.messages import EventType
    subscribed_events = frozenset({EventType.UE_ATTACH})

    def on_event(self, event, tti, nb):
        raise RuntimeError("event boom")


class TestEventBoundary:
    def test_event_handler_fault_contained(self):
        from repro.core.protocol.messages import EventNotification, EventType
        master = MasterController()
        master.add_app(EventCrashApp())
        for tti in range(5):
            master.events.enqueue([EventNotification(
                event_type=int(EventType.UE_ATTACH))])
            master.tick(tti)
        h = master.supervisor.health("event_crasher")
        assert h.faults_by_kind.get("event") == 3
        assert h.state is BreakerState.QUARANTINED
        # Quarantined at TTI 2: the two later events are dropped as
        # that and as nothing else (a subscriber existed throughout).
        assert master.events.dropped_quarantined == 2
        assert master.events.dropped_no_subscriber == 0
        assert master.events.delivered == 0


def scheduling_ctx():
    from repro.lte.mac.dci import SchedulingContext
    return SchedulingContext(tti=0, n_prb=50, ues=[])


class TestCmiRollback:
    def _mac(self):
        from repro.core.agent.api import AgentDataPlaneApi
        enb = EnodeB(1)
        return MacControlModule(AgentDataPlaneApi(enb))

    def test_rollback_prefers_last_known_good(self):
        mac = self._mac()
        # local_pf runs cleanly -> becomes last-known-good.
        mac.activate("dl_scheduling", "local_pf")
        mac.invoke("dl_scheduling", scheduling_ctx())
        assert mac._slot("dl_scheduling").last_good_name == "local_pf"

        def poisoned(ctx):
            raise RuntimeError("poisoned")

        mac.register_vsf("dl_scheduling", "bad", poisoned, activate=True)
        mac.invoke("dl_scheduling", scheduling_ctx())  # fault -> rollback
        # Rolled back to the last-known-good, not the static fallback
        # (local_rr), and the offender was evicted.
        assert mac.active_name("dl_scheduling") == "local_pf"
        assert "bad" not in mac.cached_names("dl_scheduling")

    def test_rollback_falls_back_without_last_good(self):
        mac = self._mac()

        def poisoned(ctx):
            raise RuntimeError("poisoned")

        mac.register_vsf("dl_scheduling", "bad", poisoned, activate=True)
        mac.invoke("dl_scheduling", scheduling_ctx())
        assert mac.active_name("dl_scheduling") == "local_rr"

    def test_fault_records_name_and_count_in_obs(self):
        from repro import obs
        ob = obs.enable()
        try:
            mac = self._mac()

            def poisoned(ctx):
                raise RuntimeError("poisoned")

            mac.register_vsf("dl_scheduling", "bad", poisoned,
                             activate=True)
            mac.invoke("dl_scheduling", scheduling_ctx())
            assert ob.registry.counter("survive.vsf.faults").value == 1
            assert ob.registry.counter(
                "survive.vsf.quarantined.mac.dl_scheduling.bad").value == 1
            assert ob.registry.counter("survive.vsf.rollbacks").value == 1
        finally:
            obs.disable()


def vsf_faults(agent, conn, tti):
    """The VSF_FAULT events *agent* sends at *tti*, as detail dicts."""
    agent.tick_tx(tti)
    return [m.details for m in conn.master_side.receive(now=tti)
            if isinstance(m, EventNotification)
            and m.event_type == int(EventType.VSF_FAULT)]


def raising(*args):
    raise RuntimeError("broken VSF")


class TestEveryModuleIsSandboxed:
    def test_raising_handover_vsf_rolls_back(self):
        conn = ControlConnection()
        agent = FlexRanAgent(1, EnodeB(1), endpoint=conn.agent_side)
        moves = []
        agent.api.set_handover_executor(
            lambda *move: moves.append(move) or True)
        agent.rrc.register_vsf("handover", "broken", raising, activate=True)
        assert agent.rrc.execute_handover(70, 10, 20, 5)
        # Rolled back to the cached built-in, which executed the move.
        assert agent.rrc.active_name("handover") == "immediate"
        assert agent.rrc.cached_names("handover") == ["immediate"]
        assert moves == [(70, 10, 20, 5)]
        (fault,) = vsf_faults(agent, conn, 5)
        assert (fault["operation"], fault["vsf"]) == ("handover", "broken")

    def test_raising_station_scheduling_vsf_rolls_back(self):
        ap = WifiAp(1)
        station = Station(mac="02:00:00:00:00:01", snr_db=60.0)
        ap.associate(station)
        conn = ControlConnection()
        agent = WifiAgent(1, ap, endpoint=conn.agent_side)
        agent.mac.register_vsf("station_scheduling", "broken", raising,
                               activate=True)
        for slot in range(10):
            ap.enqueue(station.aid, 8000, slot)
            ap.tick(slot)
        assert agent.mac.active_name("station_scheduling") == "fair_airtime"
        assert agent.mac.cached_names("station_scheduling") == [
            "fair_airtime", "max_rate"]
        assert ap.slots_served == 10    # the fault slot was served too
        (fault,) = vsf_faults(agent, conn, 10)
        assert (fault["operation"], fault["vsf"]) == (
            "station_scheduling", "broken")

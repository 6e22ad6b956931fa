"""Tests of the app supervisor, fault boundaries and CMI rollback."""

import pytest

from repro.core.agent.cmi import SandboxPolicy
from repro.core.agent.mac_module import MacControlModule
from repro.core.apps.base import App
from repro.core.controller.master import MasterController
from repro.core.survive.supervisor import (
    AppSupervisor,
    BreakerState,
    SupervisionPolicy,
)


def policy(**kwargs):
    defaults = dict(max_consecutive_faults=3, cooldown_ttis=100,
                    probation_runs=3)
    defaults.update(kwargs)
    return SupervisionPolicy(**defaults)


def crash():
    raise RuntimeError("boom")


def ok():
    pass


class TestBreakerStateMachine:
    def test_quarantines_after_consecutive_faults(self):
        sup = AppSupervisor(policy())
        for tti in range(3):
            assert sup.call("a", crash, tti=tti) is False
        h = sup.health("a")
        assert h.state is BreakerState.QUARANTINED
        assert h.crashes == 3
        assert sup.faults_contained == 3

    def test_clean_run_resets_fault_streak(self):
        sup = AppSupervisor(policy())
        sup.call("a", crash, tti=0)
        sup.call("a", crash, tti=1)
        sup.call("a", ok, tti=2)
        sup.call("a", crash, tti=3)
        sup.call("a", crash, tti=4)
        assert sup.health("a").state is BreakerState.CLOSED

    def test_readmission_after_cooldown_then_close(self):
        sup = AppSupervisor(policy())
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
        sup = AppSupervisor(policy())
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

    def test_cooldown_escalation_is_capped(self):
        sup = AppSupervisor(policy(max_cooldown_ttis=300))
        tti = 0
        for _ in range(6):
            while sup.health("a").state is not BreakerState.QUARANTINED:
                sup.call("a", crash, tti=tti)
                tti += 1
            tti = sup.health("a").quarantined_at_tti + \
                sup.health("a").cooldown_ttis + 1
            sup.admitted("a", tti)
        assert sup.health("a").cooldown_ttis <= 300

    def test_event_and_periodic_faults_counted_separately(self):
        sup = AppSupervisor(policy())
        sup.call("a", crash, tti=0, kind="periodic")
        sup.call("a", crash, tti=1, kind="event")
        sup.call("a", crash, tti=2, kind="event")
        h = sup.health("a")
        assert h.faults_by_kind == {"periodic": 1, "event": 2}
        # Both patterns feed the same breaker.
        assert h.state is BreakerState.QUARANTINED

    def test_overrun_faults_the_breaker(self):
        sup = AppSupervisor(policy())
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
        sup = AppSupervisor(policy(deadline_ms=0.5))
        sup.call("a", ok, tti=0, cost_ms=0.5)          # policy default
        sup.call("a", ok, tti=1, cost_ms=0.9, deadline_ms=1.0)
        sup.call("a", ok, tti=2, cost_ms=9.0, deadline_ms=None)
        h = sup.health("a")
        assert (h.overruns, h.clean_runs) == (1, 2)    # tti 2: 9.0 > 0.5
        assert AppSupervisor(policy()).call("b", ok, tti=0, cost_ms=9.0)

    def test_three_overruns_in_a_row_quarantine(self):
        sup = AppSupervisor(policy())

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
        sup = AppSupervisor(policy())
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
        sup = AppSupervisor(policy())
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
        master = MasterController(supervision_policy=policy())
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

    def test_priority_preserved_across_quarantine(self):
        # After re-admission the app runs at its original priority
        # (before lower-priority apps in the slot).
        master = MasterController(
            supervision_policy=policy(cooldown_ttis=5, probation_runs=2))
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

    def test_supervision_disabled_is_legacy_behavior(self):
        master = MasterController(supervision=False)
        master.add_app(CrashingApp())
        assert master.supervisor is None
        with pytest.raises(RuntimeError, match="app boom"):
            master.tick(0)


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
        master = MasterController(supervision_policy=policy())
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
        from repro.lte.enodeb import EnodeB
        enb = EnodeB(1)
        return MacControlModule(AgentDataPlaneApi(enb),
                                sandbox=SandboxPolicy())

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

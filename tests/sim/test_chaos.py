"""Chaos-harness tests: the survivability acceptance scenario."""

from dataclasses import dataclass, field
from typing import Optional

from repro.core.survive import supervisor
from repro.core.survive.supervisor import BreakerState
from repro.sim.chaos import (
    ChaosAction,
    ControllerRestartAt,
    Violation,
    simulation_chaos,
)
from repro.sim.scenarios import chaos_survivability


@dataclass
class AppOverrunWindow(ChaosAction):
    """Make *app* declare *cost_ms* per invocation for the cycles
    ``[start, end)``, then what it declared before.

    The window names cycles exactly, which takes acting one step ahead
    (hence ``start >= 1``); :class:`AppCrashWindow` acts *at* its
    bounds, so its first crashing cycle is ``start + 1``.
    """

    app: str
    start: int
    end: int
    cost_ms: float
    _declared: float = field(default=0.0, init=False, repr=False)

    def __post_init__(self) -> None:
        if not 1 <= self.start < self.end:
            raise ValueError(
                f"need 1 <= start < end, got [{self.start}, {self.end})")

    def fire(self, sim, tti: int) -> Optional[str]:
        # A step follows its TTI's cycle: act one step ahead of it.
        if tti == self.start - 1:
            app = sim.master.registry.registration(self.app).app
            self._declared, app.cost_ms = app.cost_ms, self.cost_ms
            return f"app {self.app} declares {self.cost_ms} ms per run"
        if tti == self.end - 1:
            app = sim.master.registry.registration(self.app).app
            app.cost_ms = self._declared
            return f"app {self.app} declares {self._declared} ms again"
        return None

    def end_tti(self) -> int:
        return self.end


class TestAcceptanceScenario:
    def test_full_chaos_run_zero_violations(self):
        """Crash-looping high-priority app + poisoned VSF push +
        mid-run controller restart: zero invariant violations, the app
        is re-admitted after cooldown, the agent ends on the last-good
        scheduler, and the restored RIB converges to ground truth."""
        sc = chaos_survivability(crash_window=(500, 900), poison_at=1500,
                                 restart_at=2500,
                                 checkpoint_period_ttis=250)
        # Keep a handle on the pre-restart supervisor: quarantine and
        # re-admission happen before the restart discards it.
        original_supervisor = sc.sim.master.supervisor
        sc.sim.run(4000)
        report = sc.harness.report()
        assert report.ok, report.violations[:5]
        assert report.checks == 4000
        assert len(report.fired) == 4

        # The probe crashed, was quarantined, then re-admitted and
        # closed its breaker -- all on the pre-restart master.
        h = original_supervisor.health(sc.probe.name)
        assert h.quarantines == 1
        assert h.readmissions == 1
        assert h.crashes >= 3
        assert h.state is BreakerState.CLOSED
        # After the restart the probe kept running healthily.
        assert sc.probe.runs_completed > 0

        # The poisoned VSF was quarantined and the agent rolled back
        # to the last-known-good scheduler.
        agent = sc.agents[0]
        slot = agent.mac._slot("dl_scheduling")
        assert slot.quarantined.get("poisoned") == 1
        assert "poisoned" not in agent.mac.cached_names("dl_scheduling")
        assert agent.mac.active_name("dl_scheduling") == "remote_stub"

        # The restart restored from a checkpoint and resynced.
        assert sc.sim.master.restored_from_tti >= 0

    def test_rollback_reported_to_master_as_event(self):
        sc = chaos_survivability(crash_window=None, poison_at=500,
                                 restart_at=None, clearance_ttis=200)
        sc.sim.run(1200)
        assert sc.harness.report().ok
        # The VSF fault traveled to the master as a VSF_FAULT event
        # and is visible in the agent node's event history.
        from repro.core.protocol.messages import EventType
        node = sc.sim.master.rib.agent(sc.agents[0].agent_id)
        assert any(etype == int(EventType.VSF_FAULT)
                   for etype, _rnti, _tti in node.last_events)


class TestOverrunInjection:
    def test_slot_hog_is_quarantined_on_exact_ttis(self):
        """A high-priority app that declares 2 ms per run (slot: 0.8 ms)
        starves the scheduler below it for ``MAX_CONSECUTIVE_FAULTS``
        cycles, is quarantined, and comes back on probation once the
        cooldown has passed -- every TTI exact, on any host."""
        from repro.net.clock import Phase

        sc = chaos_survivability(crash_window=None, poison_at=None,
                                 restart_at=None, clearance_ttis=500)
        master = sc.sim.master
        assert (supervisor.MAX_CONSECUTIVE_FAULTS, supervisor.COOLDOWN_TTIS,
                supervisor.PROBATION_RUNS) == (3, 500, 5)
        sc.harness.actions.append(
            AppOverrunWindow(sc.probe.name, 400, 420, cost_ms=2.0))
        deferred_at = []

        def note_deferral(tti):
            if master.task_manager.last_record.apps_deferred:
                deferred_at.append(tti)

        sc.sim.clock.register(Phase.POST, note_deferral)
        sc.sim.run(1000)

        report = sc.harness.report()
        assert report.ok, report.violations[:5]
        assert report.fired == [
            (399, "app chaos_probe declares 2.0 ms per run"),
            (419, "app chaos_probe declares 0.0 ms again")]
        h = master.supervisor.health(sc.probe.name)
        assert h.transitions == [(402, BreakerState.QUARANTINED),
                                 (902, BreakerState.PROBATION),
                                 (906, BreakerState.CLOSED)]
        assert (h.overruns, h.crashes) == (3, 0)
        assert h.last_fault == "deadline: 2.0 ms > 0.8 ms"
        # The scheduler is starved while the hog still runs and on no
        # cycle after its breaker opens.
        assert deferred_at == [400, 401, 402]
        runs = {reg.app.name: reg.runs
                for reg in master.registry.registrations()}
        assert runs == {sc.app.name: 1000 - 3,
                        sc.probe.name: 1000 - (902 - 403)}
        stats = master.task_manager.stats
        assert (stats.deferred_total, stats.quarantined_total) == (
            3, 902 - 403)
        assert sc.probe.cost_ms == 0.0

    def test_window_must_leave_a_step_ahead_of_its_first_cycle(self):
        import pytest

        for start, end in ((0, 10), (-1, 10), (5, 5), (6, 5)):
            with pytest.raises(ValueError):
                AppOverrunWindow("chaos_probe", start, end, cost_ms=2.0)


class TestViolationDetection:
    def test_harness_detects_missing_cycle(self):
        """Direct check: a TTI where the master never cycled counts as
        a cycle_ran violation."""
        from repro.core.controller.master import MasterController
        from repro.sim.simulation import Simulation

        master = MasterController()
        sim = Simulation(master=master)
        sim.add_enb()
        harness = simulation_chaos(sim, [], clearance_ttis=10 ** 9)
        # Bypass the master phase: step the harness directly at a TTI
        # the master never ran.
        harness.step(77)
        assert any(v.invariant == "cycle_ran" and v.tti == 77
                   for v in harness.violations)

    def test_restart_without_checkpoints_still_converges(self):
        sc = chaos_survivability(crash_window=None, poison_at=None,
                                 restart_at=600, checkpoint_period_ttis=250,
                                 clearance_ttis=600)
        # Force a cold restart (no restore) by replacing the action.
        sc.harness.actions[0] = ControllerRestartAt(600, restore=False)
        sc.sim.run(2000)
        report = sc.harness.report()
        assert report.ok, report.violations[:5]
        assert sc.sim.master.restored_from_tti == -1

    def test_violation_dataclass(self):
        v = Violation(5, "cycle_ran", "x")
        assert (v.tti, v.invariant) == (5, "cycle_ran")

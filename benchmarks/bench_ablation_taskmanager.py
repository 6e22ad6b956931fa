"""Ablation: the Task Manager's real-time TTI cycle (DESIGN.md Sec. 4).

The paper's master runs a non-preemptive cycle with an enforced split
between the RIB-updater slot and the application slot, and assigns
priorities so that "a centralized MAC scheduler ... would get a very
high priority, whereas a non time-critical monitoring application
would get a lower priority" (Section 4.3.3).

The ablation deploys a deliberately heavy mid-priority application next
to the time-critical centralized scheduler and compares real-time mode
(budget enforced: whatever is below the heavy app gets deferred)
against non real-time mode (no enforcement: everything runs).  The
budget is simulated time -- applications declare their cost -- so every
count below is exact on any host; the measured cycle time is reported
beside it and asserted on nowhere.
"""

from __future__ import annotations

from conftest import print_table, run_once

from repro.core.apps.base import App
from repro.sim.metrics import goodput_mbps
from repro.sim.scenarios import centralized_scheduling

RUN_TTIS = 1500
SCHEDULER_MS = 0.2
HEAVY_MS = 0.7  # with the scheduler's 0.2: over the 0.8 ms app slot


class HeavyAnalyticsApp(App):
    """A mid-priority app that takes most of the app slot when it runs."""

    name = "heavy_analytics"
    priority = 50  # below the remote scheduler's 100
    period_ttis = 1
    cost_ms = HEAVY_MS

    def __init__(self) -> None:
        self.runs = 0

    def run(self, tti, nb) -> None:
        self.runs += 1


class BackgroundApp(App):
    """The lowest-priority task: first to be deferred under pressure."""

    name = "background_report"
    priority = 1
    period_ttis = 1

    def __init__(self) -> None:
        self.runs = 0

    def run(self, tti, nb) -> None:
        self.runs += 1


def run_mode(realtime: bool):
    sc = centralized_scheduling(ues_per_enb=4, cqi=12)
    sc.sim.master.task_manager.realtime = realtime
    sc.app.cost_ms = SCHEDULER_MS
    heavy = HeavyAnalyticsApp()
    background = BackgroundApp()
    sc.sim.master.add_app(heavy)
    sc.sim.master.add_app(background)
    sc.sim.run(RUN_TTIS)
    stats = sc.sim.master.task_manager.stats
    health = sc.sim.master.supervisor.describe()
    tput = sum(goodput_mbps(u.meter.total_bytes, RUN_TTIS)
               for u in sc.ues_per_enb[0])
    scheduler_runs = sc.sim.master.registry.registration(
        "remote_scheduler").runs
    return {
        "overrun_frac": stats.overruns / stats.cycles,
        "deferred": stats.deferred_total,
        "quarantined": stats.quarantined_total,
        "faults": sum(h["overruns"] + h["crashes"] for h in health.values()),
        "slot_ms": sc.sim.master.task_manager.last_record.slot_ms,
        "heavy_runs": heavy.runs,
        "background_runs": background.runs,
        "scheduler_runs": scheduler_runs,
        "mean_cycle_ms": (stats.core_ms_total / stats.cycles
                          + stats.app_ms_total / stats.cycles),
        "tput": tput,
    }


def test_realtime_cycle_enforcement(benchmark):
    def experiment():
        return {mode: run_mode(mode) for mode in (True, False)}

    out = run_once(benchmark, experiment)
    rows = []
    for realtime in (True, False):
        r = out[realtime]
        rows.append(["real-time" if realtime else "non real-time",
                     r["slot_ms"], r["mean_cycle_ms"],
                     f"{r['overrun_frac']:.2f}", r["deferred"],
                     r["heavy_runs"], r["background_runs"],
                     r["scheduler_runs"], r["tput"]])
    print_table(
        "Ablation -- Task Manager real-time budget enforcement with a "
        "heavy mid-priority app alongside the centralized scheduler",
        ["mode", "slot ms (declared)", "cycle ms (measured)",
         "overrun frac (measured)", "deferred runs",
         "heavy runs", "background runs", "scheduler runs",
         "cell tput Mb/s"], rows)

    rt, nrt = out[True], out[False]
    # The high-priority scheduler runs every cycle in both modes: the
    # non-preemptive design never skips the time-critical task.
    assert rt["scheduler_runs"] == nrt["scheduler_runs"] == RUN_TTIS
    # Real-time mode sacrifices the lowest-priority task once the heavy
    # app has exhausted the budget (0.2 + 0.7 > 0.8 ms), every cycle;
    # non real-time mode runs everything.
    assert rt["deferred"] == RUN_TTIS
    assert rt["background_runs"] == 0
    assert nrt["background_runs"] == RUN_TTIS
    assert nrt["deferred"] == 0
    assert rt["heavy_runs"] == nrt["heavy_runs"] == RUN_TTIS
    assert rt["slot_ms"] == nrt["slot_ms"] == SCHEDULER_MS + HEAVY_MS
    # Nobody is over a deadline (each app fits the slot on its own), so
    # the supervisor has nothing to say in either mode.
    assert rt["quarantined"] == nrt["quarantined"] == 0
    assert rt["faults"] == nrt["faults"] == 0
    # Data-plane performance is unaffected either way (the simulator's
    # causality is TTI-based): the ablation isolates control-plane cost.
    assert rt["tput"] > 0 and nrt["tput"] > 0

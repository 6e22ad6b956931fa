"""Survivability costs: the fault-boundary tax and restart recovery time.

The supervisor wraps every app invocation in a breaker check, a
deadline comparison and an exception boundary
(:mod:`repro.core.survive.supervisor`).  That wrapper rides the hot app slot of every TTI, so it must stay cheap: the
budget here is < 5% of the app slot for a healthy multi-app deployment.
This benchmark measures the per-call wrapper cost directly, scales it by
the apps a real cycle runs, and reports the end-to-end cost of a
supervised tick loop beside it.

The second experiment answers the recovery question: after a controller
crash, how many TTIs until the restarted master's RIB matches eNodeB
ground truth again -- restored from a checkpoint vs. a cold restart that
re-learns everything over the protocol.
"""

from __future__ import annotations

from time import perf_counter

from conftest import print_table, run_once

from repro.core.apps.base import App
from repro.core.controller.master import MasterController
from repro.core.survive.snapshot import rib_ground_truth_diff
from repro.core.survive.supervisor import AppSupervisor
from repro.lte.phy.channel import FixedCqi
from repro.lte.ue import Ue
from repro.sim.simulation import Simulation
from repro.traffic.generators import SaturatingSource

TICK_TTIS = 3000
FAULT_BOUNDARY_BUDGET = 0.05  # < 5% of the app slot
APP_SLOT_MS = 0.8  # the Task Manager's default app share of a 1 ms TTI


class BusyApp(App):
    """A healthy app with a small, deterministic workload."""

    period_ttis = 1

    def __init__(self, name: str, priority: int) -> None:
        self.name = name
        self.priority = priority
        self.acc = 0

    def run(self, tti, nb) -> None:
        self.acc += sum(range(50))


def make_apps(n: int = 4):
    return [BusyApp(f"app{i}", priority=100 - i) for i in range(n)]


def wrapper_cost_ns(iterations: int = 100_000) -> float:
    """Nanoseconds of pure supervision overhead per app call."""
    sup = AppSupervisor()

    def work() -> None:
        pass

    start = perf_counter()
    for _ in range(iterations):
        work()
    bare = perf_counter() - start
    start = perf_counter()
    for tti in range(iterations):
        sup.call("a", work, tti=tti, deadline_ms=APP_SLOT_MS)
    wrapped = perf_counter() - start
    return max(wrapped - bare, 0.0) / iterations * 1e9


def tick_loop_s() -> float:
    """Wall-clock seconds for TICK_TTIS supervised ticks."""
    master = MasterController(realtime=False)
    for app in make_apps():
        master.add_app(app)
    start = perf_counter()
    for tti in range(TICK_TTIS):
        master.tick(tti)
    return perf_counter() - start


def test_fault_boundary_tax(benchmark):
    """Supervising healthy apps costs < 5% of the app slot."""

    def experiment():
        ns_per_call = wrapper_cost_ns()
        n_apps = len(make_apps())
        tax_us_per_tti = ns_per_call * n_apps / 1e3
        tax = tax_us_per_tti / (APP_SLOT_MS * 1e3)
        cycle_s = min(tick_loop_s() for _ in range(3))
        return ns_per_call, tax_us_per_tti, tax, cycle_s * 1e6 / TICK_TTIS

    ns_per_call, tax_us, tax, cycle_us = run_once(benchmark, experiment)
    print_table(
        "Fault-boundary tax (budget: < 5% of the 0.8 ms app slot)",
        ["ns/supervised call", "tax us/TTI (4 apps)", "tax %",
         "us/cycle"],
        [[ns_per_call, tax_us, tax * 100.0, cycle_us]])
    assert tax < FAULT_BOUNDARY_BUDGET


def build_checkpointed_sim() -> Simulation:
    master = MasterController(realtime=False, checkpoint_period_ttis=100)
    sim = Simulation(master=master)
    enb = sim.add_enb()
    sim.add_agent(enb)
    for i in range(5):
        ue = Ue(f"00{i:03d}", FixedCqi(12))
        sim.add_ue(enb, ue)
        sim.add_downlink_traffic(enb, ue, SaturatingSource(start_tti=10))
    return sim


def restart_to_converged_ttis(*, restore: bool,
                              max_ttis: int = 2000) -> int:
    """TTIs from restart until the RIB matches eNodeB ground truth."""
    sim = build_checkpointed_sim()
    sim.run(1000)
    sim.restart_master(restore=restore)
    truth = {agent_id: sim.agents[agent_id].enb
             for agent_id in sim.agents}
    for elapsed in range(1, max_ttis + 1):
        sim.run(1)
        if not rib_ground_truth_diff(sim.master.rib, truth):
            return elapsed
    raise AssertionError(f"RIB did not converge in {max_ttis} TTIs")


def test_restart_to_converged(benchmark):
    """Checkpoint restore converges; cold restart re-learns slower."""

    def experiment():
        return (restart_to_converged_ttis(restore=True),
                restart_to_converged_ttis(restore=False))

    warm, cold = run_once(benchmark, experiment)
    print_table(
        "Restart-to-converged RIB (1 eNB, 5 UEs, checkpoints every 100)",
        ["restore mode", "TTIs to ground-truth RIB"],
        [["checkpoint", warm], ["cold (resync only)", cold]])
    assert warm <= cold
    assert cold <= 2000

"""Fig. 8: master controller resources vs number of connected agents.

The paper connects 0-3 agents (16 UEs each, per-TTI reporting) and
measures how much of the master's TTI cycle is spent in applications
vs core components (RIB updater etc.), plus the master's memory
footprint.  Findings: the master is lightweight (a small fraction of
the 1 ms cycle used), core-component time grows with agents (more RIB
updates), and memory grows with the RIB.

Every time here is a wall-clock measurement, so only orderings with a
wide margin are asserted (each series grows from one agent to three by
about x3); the rest is reported.  The paper's core > apps ordering does
not hold for this build -- the compiled codec halved the core slot's
decode while the per-TTI scheduler app is pure Python -- and is not
asserted.  No reading feeds back into the run (DESIGN.md section 11).
"""

from __future__ import annotations

from conftest import print_table, run_once

from repro.sim.scenarios import centralized_scheduling
from repro.sim.simulation import Simulation

AGENT_COUNTS = [0, 1, 2, 3]
UES_PER_ENB = 16
RUN_TTIS = 2000


def run_case(n_agents: int):
    if n_agents == 0:
        sim = Simulation(with_master=True)
        sim.run(RUN_TTIS)
        master = sim.master
    else:
        sc = centralized_scheduling(n_enbs=n_agents,
                                    ues_per_enb=UES_PER_ENB, cqi=12)
        sc.sim.run(RUN_TTIS)
        master = sc.sim.master
    stats = master.task_manager.stats
    mem_kb = master.rib.memory_footprint_bytes() / 1024
    return (stats.mean_core_ms, stats.mean_app_ms, stats.mean_idle_ms,
            stats.percentile_core_ms(95), stats.percentile_core_ms(99),
            mem_kb)


def test_fig8_master_resources(benchmark):
    def experiment():
        return {n: run_case(n) for n in AGENT_COUNTS}

    results = run_once(benchmark, experiment)
    rows = []
    for n in AGENT_COUNTS:
        core, app, idle, core_p95, core_p99, mem = results[n]
        rows.append([n, app, core, core_p95, core_p99, idle, mem])
    print_table(
        "Fig 8 -- master TTI-cycle utilization and RIB memory "
        "(paper: <=0.3 ms of the 1 ms cycle used; memory 5-9 MB, "
        "both growing with agents.  Note: the paper's master is C++; "
        "this Python build carries a large constant factor, so compare "
        "growth, not absolute milliseconds)",
        ["agents", "apps ms", "core ms", "core p95", "core p99",
         "idle ms", "RIB KiB"], rows)

    # Core-component (RIB updater) time grows with connected agents,
    # and so does the scheduler application's.
    assert results[3][0] > results[1][0] > results[0][0]
    assert results[3][1] > results[1][1] > results[0][1]
    # An idle master spends (essentially) the whole cycle idle.
    assert results[0][2] > 0.9
    # Tail cycle time behaves: p99 bounds p95 bounds nothing below the
    # mean, and even the tail stays inside the 1 ms TTI budget's order
    # of magnitude for the loaded cases.
    for n in AGENT_COUNTS:
        core, _, _, core_p95, core_p99, _ = results[n]
        assert core_p99 >= core_p95 >= 0.0
        if n > 0:
            assert core_p95 >= core * 0.5
    # Memory footprint grows with the RIB contents.
    assert results[3][5] > results[1][5] > results[0][5]

"""Ablation: control placement under control-channel latency.

DESIGN.md Section 4: the paper argues (Sections 5.3/5.4) that on slow
control channels one should "either use approximation methods like
scheduling ahead of time ... or delegate control to the agents for the
time critical functions".  This ablation sweeps the master--agent RTT
and compares three placements of the downlink scheduler:

* remote      -- centralized, schedule-ahead = RTT + 4 (the minimum
                 viable configuration);
* delegated   -- a proportional-fair VSF pushed to the agent once; the
                 master only monitors;
* local       -- agent-only baseline (no master involvement at all).

Expected shape: delegated == local at every RTT (delegation removes
the latency from the loop entirely), remote degrades with RTT and
carries orders of magnitude more command signaling.
"""

from __future__ import annotations

from conftest import print_table, run_once

from repro.core.protocol.messages import Category
from repro.lte.phy.channel import GaussMarkovSinr
from repro.net.clock import Phase
from repro.sim.metrics import goodput_mbps
from repro.sim.scenarios import centralized_scheduling
from repro.sim.simulation import Simulation
from repro.lte.ue import Ue
from repro.traffic.generators import CbrSource

RTTS = [0, 20, 40, 60]
RUN_TTIS = 4000


def channel(seed=5):
    return GaussMarkovSinr(22.0, sigma_db=2.0, reversion=0.02, seed=seed)


def command_mbps(sim, agent_id: int) -> float:
    """The master's command signaling to *agent_id* over the run."""
    counter = sim.connections[agent_id].channel.downlink.counters.get(
        Category.COMMANDS)
    return goodput_mbps(counter.bytes if counter else 0, RUN_TTIS)


def run_remote(rtt: int):
    sc = centralized_scheduling(
        ues_per_enb=1, rtt_ms=rtt, schedule_ahead=rtt + 4,
        load_factor=1.5, channel_factory=lambda e, i: channel())
    sc.sim.run(RUN_TTIS)
    ue = sc.ues_per_enb[0][0]
    return (goodput_mbps(ue.meter.total_bytes, RUN_TTIS),
            command_mbps(sc.sim, sc.agents[0].agent_id))


def run_delegated(rtt: int):
    sim = Simulation(with_master=True)
    enb = sim.add_enb()
    agent = sim.add_agent(enb, rtt_ms=rtt)
    ue = Ue("001", channel())
    sim.add_ue(enb, ue)
    sim.add_downlink_traffic(enb, ue, CbrSource(30.0, start_tti=50))

    def push_once(t):
        if t == 10:
            sim.master.northbound.push_vsf(
                agent.agent_id, "mac", "dl_scheduling", "delegated_pf",
                "scheduler:proportional_fair")
            sim.master.northbound.reconfigure_vsf(
                agent.agent_id, "mac", "dl_scheduling",
                behavior="delegated_pf")
    sim.clock.register(Phase.POST, push_once)
    sim.run(RUN_TTIS)
    return (goodput_mbps(ue.meter.total_bytes, RUN_TTIS),
            command_mbps(sim, agent.agent_id))


def run_local():
    sim = Simulation()
    enb = sim.add_enb()
    sim.add_agent(enb)
    ue = Ue("001", channel())
    sim.add_ue(enb, ue)
    sim.add_downlink_traffic(enb, ue, CbrSource(30.0, start_tti=50))
    sim.run(RUN_TTIS)
    return goodput_mbps(ue.meter.total_bytes, RUN_TTIS), 0.0


def test_delegation_vs_latency(benchmark):
    def experiment():
        local = run_local()
        table = {}
        for rtt in RTTS:
            table[rtt] = {
                "remote": run_remote(rtt),
                "delegated": run_delegated(rtt),
            }
        return local, table

    local, table = run_once(benchmark, experiment)
    rows = []
    for rtt in RTTS:
        remote = table[rtt]["remote"]
        delegated = table[rtt]["delegated"]
        rows.append([rtt, remote[0], remote[1], delegated[0],
                     delegated[1], local[0]])
    print_table(
        "Ablation -- scheduler placement vs control-channel RTT "
        "(throughput Mb/s | command signaling Mb/s)",
        ["RTT ms", "remote tput", "remote cmds", "delegated tput",
         "delegated cmds", "local tput"], rows)

    for rtt in RTTS:
        remote_tput, remote_cmds = table[rtt]["remote"]
        delegated_tput, delegated_cmds = table[rtt]["delegated"]
        # Delegation is latency-immune: within a few percent of local.
        assert delegated_tput > 0.95 * local[0], rtt
        # Delegation needs (almost) no command traffic; remote control
        # streams decisions continuously.
        assert delegated_cmds < 0.02
        assert remote_cmds > 10 * max(delegated_cmds, 0.001)
    # Remote control degrades as the loop slows down.
    assert table[60]["remote"][0] < table[0]["remote"][0]

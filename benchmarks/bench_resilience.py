"""Control-plane resilience: goodput through a master partition.

The paper's separation-of-concerns argument (Section 4): an eNodeB
keeps operating through delegated local control even when the agent's
channel to the master dies.  We run the Section 5 worst case --
centralized per-TTI scheduling -- and cut the master link of one agent
for TTIs 2000-4000.  The agent's connection supervisor must detect the
silence, swap the remote scheduling stubs for local fallbacks (no
master round trip: the VSFs are already in the cache), then reconnect
with capped exponential backoff once the partition heals; the master
must walk the agent through ACTIVE -> STALE (-> DEAD) -> ACTIVE and
resynchronize configuration on reattach.

The headline number: aggregate UE goodput during the partition stays
within 20% of the fault-free baseline's, and recovers after the heal.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from conftest import print_table, run_once

from repro.core.agent.connection import ConnectionState
from repro.core.controller.rib import AgentLiveness
from repro.net.clock import Phase
from repro.sim.scenarios import CentralizedScenario, FaultSpec, \
    partitioned_centralized

RUN_TTIS = 8000
PARTITION = (2000, 4000)
PROBE_PERIOD = 100

# Measurement windows (steady state before / during / after the fault).
PRE_WINDOW = (1000, 2000)
FAULT_WINDOW = PARTITION
POST_WINDOW = (5000, 7900)


def build(faulted: bool) -> CentralizedScenario:
    fault = FaultSpec(partitions=[PARTITION]) if faulted else None
    return partitioned_centralized(ues_per_enb=10, cqi=12, rtt_ms=4.0,
                                   schedule_ahead=8, load_factor=1.2,
                                   fault=fault)


def run(faulted: bool) -> Dict:
    sc = build(faulted)
    ues = sc.ues_per_enb[0]
    rx: List[Tuple[int, int]] = []

    def sample(tti: int) -> None:
        if tti % PROBE_PERIOD == 0:
            rx.append((tti, sum(u.rx_bytes_total for u in ues)))

    sc.sim.clock.register(Phase.POST, sample)
    sc.sim.run(RUN_TTIS)
    agent = sc.agents[0]
    master = sc.sim.master
    node = master.rib.agent(agent.agent_id)
    return {
        "rx": rx,
        "supervisor": agent.connection,
        "active_vsf": agent.mac.active_name("dl_scheduling"),
        "liveness": node.liveness,
        "liveness_history": list(node.liveness_history),
        "reattaches": master.agent_reattaches,
    }


def window_goodput(rx: List[Tuple[int, int]], start: int,
                   end: int) -> float:
    """Aggregate goodput (Mb/s) between two sampled TTIs."""
    at = dict(rx)
    return (at[end] - at[start]) * 8 / ((end - start) * 1000.0)


def test_resilience_partition(benchmark):
    def experiment():
        return {"baseline": run(faulted=False), "faulted": run(faulted=True)}

    out = run_once(benchmark, experiment)
    base, hurt = out["baseline"], out["faulted"]

    rows: List[List] = []
    for label, r in (("baseline", base), ("partitioned", hurt)):
        sup = r["supervisor"].stats
        rows.append([
            label,
            window_goodput(r["rx"], *PRE_WINDOW),
            window_goodput(r["rx"], *FAULT_WINDOW),
            window_goodput(r["rx"], *POST_WINDOW),
            sup.disconnects, sup.reconnects, sup.reconnect_attempts,
            r["active_vsf"], r["liveness"].value,
        ])
    print_table(
        f"Resilience -- aggregate goodput (Mb/s) around a master "
        f"partition at TTIs {PARTITION[0]}-{PARTITION[1]} "
        "(claim: local fallback keeps the cell within 20% of baseline)",
        ["config", "pre", "partition", "post-heal",
         "disc", "reconn", "probes", "dl vsf", "rib"],
        rows)

    base_fault = window_goodput(base["rx"], *FAULT_WINDOW)
    hurt_fault = window_goodput(hurt["rx"], *FAULT_WINDOW)
    hurt_post = window_goodput(hurt["rx"], *POST_WINDOW)
    base_post = window_goodput(base["rx"], *POST_WINDOW)

    # (1) The baseline itself is healthy and undisturbed.
    assert base["supervisor"].stats.disconnects == 0
    assert base_fault > 0

    # (2) Local fallback holds goodput within 20% of the no-fault run
    # during the partition, and it recovers after the heal.
    assert hurt_fault >= 0.8 * base_fault, (hurt_fault, base_fault)
    assert hurt_post >= 0.9 * base_post, (hurt_post, base_post)

    # (3) The supervisor went through the full disconnect/reconnect
    # cycle: fallback engaged, backoff probes sent, remote control
    # restored once the master answered again.
    sup = hurt["supervisor"]
    assert sup.stats.disconnects >= 1
    assert sup.stats.reconnects >= 1
    assert sup.stats.reconnect_attempts >= 1
    assert sup.state is ConnectionState.CONNECTED
    assert hurt["active_vsf"] == "remote_stub"

    # (4) The master saw the same story in the RIB: ACTIVE -> STALE
    # (-> DEAD) -> ACTIVE, with a configuration resync on reattach.
    states = [s for _, s in hurt["liveness_history"]]
    assert AgentLiveness.STALE in states
    assert hurt["liveness"] is AgentLiveness.ACTIVE
    i_stale = states.index(AgentLiveness.STALE)
    assert AgentLiveness.ACTIVE in states[i_stale:]
    if AgentLiveness.DEAD in states:
        assert hurt["reattaches"] >= 1

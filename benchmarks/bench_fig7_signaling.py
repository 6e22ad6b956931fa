"""Fig. 7: master--agent signaling overhead vs number of UEs.

The paper's worst-case configuration: per-TTI statistics reports,
full TTI-level master-agent synchronization, and a centralized
scheduler pushing decisions every TTI, with uniform downlink UDP
traffic.  Fig. 7a breaks agent-to-master traffic into agent
management / sync / stats reporting (stats dominate, sublinear in
UEs); Fig. 7b shows master-to-agent traffic (commands dominate,
growing with UE count and much smaller in absolute terms).
"""

from __future__ import annotations

from conftest import print_table, run_once

from repro.core.protocol.messages import Category
from repro.sim.metrics import goodput_mbps
from repro.sim.scenarios import centralized_scheduling

UE_COUNTS = [10, 20, 30, 40, 50]
RUN_TTIS = 2000
WARMUP_TTIS = 200


def breakdown_mbps(link, warm: dict) -> dict:
    """Per-category Mb/s over the measured run: bytes past *warm*, the
    counts at the end of the warm-up."""
    return {cat: goodput_mbps(c.bytes - warm.get(cat, 0), RUN_TTIS)
            for cat, c in sorted(link.counters.items())}


def run_case(n_ues: int):
    sc = centralized_scheduling(ues_per_enb=n_ues, cqi=12)
    sc.sim.run(WARMUP_TTIS)
    links = sc.sim.connections[sc.agents[0].agent_id].channel.links
    warm = [{cat: c.bytes for cat, c in link.counters.items()}
            for link in links]
    sc.sim.run(RUN_TTIS)
    up, down = (breakdown_mbps(link, w) for link, w in zip(links, warm))
    return up, down


def test_fig7_signaling_overhead(benchmark):
    def experiment():
        return {n: run_case(n) for n in UE_COUNTS}

    results = run_once(benchmark, experiment)

    up_rows = []
    down_rows = []
    for n in UE_COUNTS:
        up, down = results[n]
        up_rows.append([
            n,
            up.get(Category.AGENT_MANAGEMENT, 0.0),
            up.get(Category.SYNC, 0.0),
            up.get(Category.STATS, 0.0),
            sum(up.values()),
        ])
        down_rows.append([
            n,
            down.get(Category.AGENT_MANAGEMENT, 0.0),
            down.get(Category.COMMANDS, 0.0),
            sum(down.values()),
        ])
    print_table(
        "Fig 7a -- agent-to-master signaling, Mb/s "
        "(paper: ~100 Mb/s at 50 UEs, stats dominate, sublinear)",
        ["UEs", "agent mgmt", "sync", "stats", "total"], up_rows)
    print_table(
        "Fig 7b -- master-to-agent signaling, Mb/s "
        "(paper: <4 Mb/s at 50 UEs, commands dominate, superlinear)",
        ["UEs", "agent mgmt", "commands", "total"], down_rows)

    # Shape assertions against the paper's findings.
    up10, down10 = results[10]
    up50, down50 = results[50]
    # (1) stats reporting dominates the uplink at every scale.
    for n in UE_COUNTS:
        up, _ = results[n]
        assert up[Category.STATS] > up[Category.SYNC]
        assert up[Category.STATS] > up.get(Category.AGENT_MANAGEMENT, 0.0)
    # (2) uplink grows sublinearly: 5x UEs -> well under 5x bytes.
    growth = up50[Category.STATS] / up10[Category.STATS]
    assert 1.2 < growth < 4.0
    # (3) downlink is far smaller than uplink and grows with UEs.
    assert sum(down50.values()) < 0.25 * sum(up50.values())
    assert down50[Category.COMMANDS] > down10[Category.COMMANDS]
    # (4) downlink growth rate is itself increasing (superlinear trend):
    # compare first-half and second-half increments.
    mid = results[30][1][Category.COMMANDS]
    first_half = mid - down10[Category.COMMANDS]
    second_half = down50[Category.COMMANDS] - mid
    assert second_half > 0

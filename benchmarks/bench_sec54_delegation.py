"""Section 5.4: control delegation performance.

The paper pushes an equivalent local scheduler to the agent as a VSF
(over the FlexRAN protocol), then swaps between the local and the
remote (centralized) scheduler at runtime via policy reconfiguration,
down to a 1 ms swap period.  Findings: throughput stays at the 25 Mb/s
line regardless of swap frequency (service continuity), the code is
pushed only once, and the VSF load time is ~100 ns.
"""

from __future__ import annotations

import statistics

from conftest import print_table, run_once

from repro.core.policy import build_policy
from repro.net.clock import Phase
from repro.sim.metrics import goodput_mbps
from repro.sim.scenarios import centralized_scheduling

RUN_TTIS = 4000
SWAP_PERIODS = [1000, 100, 10, 1]  # down to per-TTI swapping


def run_with_swaps(period_ttis: int):
    sc = centralized_scheduling(ues_per_enb=1, cqi=15, load_factor=1.4)
    agent = sc.agents[0]
    master = sc.sim.master

    pushed = {"done": False}

    def driver(tti):
        # Push the local scheduler code exactly once, then swap the
        # active VSF between local and remote on the given period.
        if tti == 50 and not pushed["done"]:
            master.northbound.push_vsf(
                agent.agent_id, "mac", "dl_scheduling", "pushed_local_pf",
                "scheduler:proportional_fair")
            pushed["done"] = True
        if tti > 100 and tti % period_ttis == 0:
            phase = (tti // period_ttis) % 2
            behavior = "pushed_local_pf" if phase == 0 else "remote_stub"
            master.northbound.send_policy(agent.agent_id, build_policy(
                "mac", "dl_scheduling", behavior=behavior))

    sc.sim.clock.register(Phase.POST, driver)
    sc.sim.run(RUN_TTIS)
    ue = sc.ues_per_enb[0][0]
    swap_slot = agent.mac._slot("dl_scheduling")
    vsf_blob_pushes = master.northbound.counters.vsf_updates
    return (goodput_mbps(ue.meter.total_bytes, RUN_TTIS), swap_slot.swaps,
            vsf_blob_pushes)


def test_sec54_swap_continuity(benchmark):
    def experiment():
        baseline = run_with_swaps(10 ** 9)  # effectively no swapping
        cases = {p: run_with_swaps(p) for p in SWAP_PERIODS}
        return baseline, cases

    baseline, cases = run_once(benchmark, experiment)
    rows = [["no swapping", baseline[0], baseline[1], baseline[2]]]
    for period in SWAP_PERIODS:
        mbps, swaps, pushes = cases[period]
        rows.append([f"swap every {period} ms", mbps, swaps, pushes])
    print_table(
        "Sec 5.4 -- local/remote scheduler swapping "
        "(paper: 25 Mb/s regardless of swap frequency; code pushed once)",
        ["configuration", "throughput Mb/s", "VSF swaps", "code pushes"],
        rows)

    # Service continuity: even per-TTI swapping keeps full throughput.
    for period in SWAP_PERIODS:
        assert cases[period][0] > 0.93 * baseline[0], period
    # The code is pushed to the agent exactly once per run.
    for period in SWAP_PERIODS:
        assert cases[period][2] == 1
    # Per-TTI swapping really swapped thousands of times.
    assert cases[1][1] > 1000


def test_sec54_vsf_load_time(benchmark):
    """VSF load (cache-to-active rebind) latency, paper: ~100 ns."""
    sc = centralized_scheduling(ues_per_enb=1, cqi=15)
    sc.sim.run(200)
    agent = sc.agents[0]
    agent.mac.register_vsf("dl_scheduling", "alt",
                           agent.mac._slot("dl_scheduling").cache["local_pf"])

    names = ["alt", "local_pf"]
    state = {"i": 0}

    def swap():
        state["i"] ^= 1
        agent.mac.activate("dl_scheduling", names[state["i"]])

    benchmark(swap)
    samples = []
    for _ in range(1000):
        swap()
        samples.append(agent.mac._slot("dl_scheduling").last_swap_ns)
    median_ns = statistics.median(samples)
    print(f"\nSec 5.4 -- VSF load time: median {median_ns:.0f} ns "
          "(paper: ~103 ns)")
    assert median_ns < 100_000  # same order of magnitude: sub-0.1 ms

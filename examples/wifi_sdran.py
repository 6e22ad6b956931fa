#!/usr/bin/env python3
"""Beyond LTE: the same FlexRAN machinery controlling a Wi-Fi AP.

Section 7.2 of the paper claims the platform's mechanisms are
technology-agnostic: only the control modules and the technology-
specific API calls change ("no PDCP module for WiFi").  This example
proves it executable: a Wi-Fi access point with two stations is driven
by the *same* agent loop as an eNodeB -- ``WifiAgent`` only binds the
AP's API and its one control module to it -- under an unmodified
``MasterController``, whose ordinary policy-reconfiguration message
swaps the AP's airtime scheduler at runtime.  The AP is hosted by the
same ``Simulation`` clock as an eNodeB (``Simulation.add_ap``): it
serves its slot in the RAN phase, after the agent and the master have
ticked.

Run:  python examples/wifi_sdran.py
"""

from repro.sim.scenarios import wifi_sdran


def main() -> None:
    scenario = wifi_sdran()
    sim, agent = scenario.sim, scenario.agent
    fast, slow = scenario.stations   # 65 Mb/s and 6.5 Mb/s MCS

    def run_phase(slots):
        sim.run(slots)
        return {s.mac: s.meter.total_bytes for s in (fast, slow)}

    print("Phase 1: fair-airtime VSF (the default)")
    before = run_phase(3000)
    rates1 = {m: b * 8 / 3000 / 1000 for m, b in before.items()}
    for mac, mbps in rates1.items():
        print(f"  {mac}: {mbps:5.1f} Mb/s")

    print("\nSwapping the scheduling VSF via policy reconfiguration "
          "(the LTE message, untouched)...")
    sim.master.northbound.reconfigure_vsf(
        agent.agent_id, "wifi_mac", "station_scheduling",
        behavior="max_rate")

    after = run_phase(3000)
    print("Phase 2: max-rate VSF")
    for s in (fast, slow):
        mbps = (after[s.mac] - before[s.mac]) * 8 / 3000 / 1000
        print(f"  {s.mac}: {mbps:5.1f} Mb/s")

    node = sim.master.rib.agent(agent.agent_id)
    print(f"\nStats reports sent by the agent: {agent.reports.reports_sent} "
          f"(same StatsReply message as the LTE agents send)")
    print(f"Master's RIB: AP {node.agent_id} is {node.liveness.value}, "
          f"cells {sorted(node.cells)}, "
          f"{sim.master.rib.ue_count()} stations")
    print(f"Active VSF: {agent.mac.active_name('station_scheduling')}")


if __name__ == "__main__":
    main()

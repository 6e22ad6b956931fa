#!/usr/bin/env python3
"""Beyond LTE: the same FlexRAN machinery controlling a Wi-Fi AP.

Section 7.2 of the paper claims the platform's mechanisms are
technology-agnostic: only the control modules and the technology-
specific API calls change ("no PDCP module for WiFi").  This example
proves it executable: a Wi-Fi access point with two stations is driven
by the *same* agent loop as an eNodeB -- ``WifiAgent`` only binds the
AP's API and its one control module to it -- under an unmodified
``MasterController``, whose ordinary policy-reconfiguration message
swaps the AP's airtime scheduler at runtime.

Run:  python examples/wifi_sdran.py
"""

from repro.core.controller import MasterController
from repro.core.protocol.messages import ReportType
from repro.net.transport import ControlConnection
from repro.wifi.agent import WifiAgent
from repro.wifi.ap import Station, WifiAp


def run_phase(ap, stations, agent, master, slots, offset):
    for t in range(offset, offset + slots):
        for s in stations:
            ap.enqueue(s.aid, 6000, t)
        agent.tick_tx(t)
        master.tick(t)
        agent.tick_rx(t)
        ap.tick(t)
    return {s.mac: s.meter.total_bytes for s in stations}


def main() -> None:
    ap = WifiAp(1)
    fast = Station(mac="02:00:00:00:00:01", snr_db=60.0)   # 65 Mb/s MCS
    slow = Station(mac="02:00:00:00:00:02", snr_db=15.0)   # 6.5 Mb/s MCS
    for s in (fast, slow):
        ap.associate(s)

    conn = ControlConnection()
    master = MasterController()
    master.connect_agent(1, conn.master_side)
    agent = WifiAgent(1, ap, endpoint=conn.agent_side)
    # A master-side stats subscription, over the ordinary protocol.
    master.northbound.request_stats(
        1, report_type=ReportType.PERIODIC, period_ttis=100)

    print("Phase 1: fair-airtime VSF (the default)")
    before = run_phase(ap, (fast, slow), agent, master, 3000, 0)
    rates1 = {m: b * 8 / 3000 / 1000 for m, b in before.items()}
    for mac, mbps in rates1.items():
        print(f"  {mac}: {mbps:5.1f} Mb/s")

    print("\nSwapping the scheduling VSF via policy reconfiguration "
          "(the LTE message, untouched)...")
    master.northbound.reconfigure_vsf(
        1, "wifi_mac", "station_scheduling", behavior="max_rate")

    after = run_phase(ap, (fast, slow), agent, master, 3000, 3000)
    print("Phase 2: max-rate VSF")
    for s in (fast, slow):
        mbps = (after[s.mac] - before[s.mac]) * 8 / 3000 / 1000
        print(f"  {s.mac}: {mbps:5.1f} Mb/s")

    node = master.rib.agent(1)
    print(f"\nStats reports sent by the agent: {agent.reports.reports_sent} "
          f"(same StatsReply message as the LTE agents send)")
    print(f"Master's RIB: AP {node.agent_id} is {node.liveness.value}, "
          f"cells {sorted(node.cells)}, "
          f"{master.rib.ue_count()} stations")
    print(f"Active VSF: {agent.mac.active_name('station_scheduling')}")


if __name__ == "__main__":
    main()

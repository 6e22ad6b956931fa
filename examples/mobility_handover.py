#!/usr/bin/env python3
"""Centralized mobility management across two cells.

One of the paper's Section 7.1 use cases: handover decisions taken at
the controller from the network-wide RIB view, rather than from
per-cell signal strength alone.  A UE camped on a weak cell reports a
stronger neighbor; the MobilityManagerApp applies an A3-style rule
(neighbor better by a hysteresis margin for a time-to-trigger window)
and issues a HandoverCommand over the FlexRAN protocol.  The agent's
RRC control module executes the *action*: the UE, its bearers and its
EPC flows move to the target eNodeB without losing its traffic.

Run:  python examples/mobility_handover.py
"""

from repro.sim.scenarios import mobility_handover


def main() -> None:
    # The UE is served by cell 10 at CQI 4 but measures cell 20 at 13.
    scenario = mobility_handover()
    sim, ue, app = scenario.sim, scenario.ue, scenario.app

    sim.run(1500)
    mid_rx = ue.rx_bytes_total
    print(f"t=1.5 s  serving cell: {ue.serving_cell_id}, "
          f"CQI {ue.measured_cqi(sim.now)}, "
          f"received {mid_rx / 1000:.0f} kB")
    assert app.decisions, "the mobility manager should have acted by now"
    decision = app.decisions[0]
    print(f"handover issued at t={decision.tti} ms: "
          f"cell {decision.source_cell} -> cell {decision.target_cell}")

    sim.run(1500)
    print(f"t=3.0 s  serving cell: {ue.serving_cell_id}, "
          f"CQI {ue.measured_cqi(sim.now)}, "
          f"received {ue.rx_bytes_total / 1000:.0f} kB")
    rate_before = mid_rx * 8 / 1500 / 1000
    rate_after = (ue.rx_bytes_total - mid_rx) * 8 / 1500 / 1000
    print(f"\ngoodput in first 1.5 s:  {rate_before:.2f} Mb/s "
          f"(capped by the weak serving cell until the handover)")
    print(f"goodput in last 1.5 s:   {rate_after:.2f} Mb/s "
          f"(traffic followed the UE to the strong cell)")


if __name__ == "__main__":
    main()

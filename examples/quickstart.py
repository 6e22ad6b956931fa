#!/usr/bin/env python3
"""Quickstart: a complete FlexRAN deployment in ~50 lines.

Runs the ``quickstart`` deployment from ``repro.sim.scenarios`` -- one
eNodeB whose FlexRAN agent reaches a master controller over an
emulated control channel, a UE with saturating downlink traffic and a
monitoring application -- for two simulated seconds, then drives the
northbound API directly: every command returns its transaction id
(xid), and streams are first-class subscription handles.

Run:  python examples/quickstart.py
"""

import json

from repro.nb import NorthboundService
from repro.sim.metrics import goodput_mbps
from repro.sim.scenarios import quickstart


def main() -> None:
    # 1-3. The deployment: master controller + one agent-enabled
    #    eNodeB, a UE with a fixed high-quality channel and saturating
    #    traffic, and a controller application monitoring the RIB.
    scenario = quickstart()
    sim, enb, agent = scenario.sim, scenario.enb, scenario.agent
    ue, monitor = scenario.ue, scenario.monitor

    # 4. Run 2 s of simulated time (2000 TTIs).
    sim.run(2000)
    print(f"UE goodput (full carrier):  "
          f"{ue.throughput_mbps(sim.now):.2f} Mb/s")

    # 5. Issue a command through the northbound API: cap the cell to
    #    25 downlink PRBs (the PrbCapConfig knob).  Every command
    #    returns the xid of the protocol message it sent, so the
    #    outcome is traceable end to end.
    nb = sim.master.northbound
    cell_id = next(iter(enb.cells))
    xid = nb.set_prb_cap(agent.agent_id, cell_id, 25)
    print(f"PrbCapConfig sent:     xid={xid}")

    # 6. Subscriptions are first-class handles: the service plane that
    #    backs `repro serve` works in-process too.
    service = NorthboundService(sim.master)
    service.attach()
    sub = service.subscribe_cell(agent.agent_id, cell_id, period_ttis=100)
    sim.run(1000)
    payload, _stamp = sub.queue[-1]
    sample = json.loads(payload)
    print(f"cell stream:           {sub.published} samples, last: "
          f"{sample['n_ues']} UE(s) on {sample['n_prb']} PRBs")
    service.unsubscribe(sub.sub_id)
    service.detach()

    # 7. Read results: from the UE, from the RIB, from the monitor app.
    # (whole-run average -- lower than phase 1 because of the cap)
    print(f"UE goodput (after cap):     "
          f"{ue.throughput_mbps(sim.now):.2f} Mb/s")
    rib_agent = sim.master.rib.agent(agent.agent_id)
    node = next(rib_agent.all_ues())
    print(f"RIB view of the UE:    rnti={node.rnti} cqi={node.cqi} "
          f"queue={node.queue_bytes} B")
    print(f"monitor samples:       "
          f"{len(monitor.series[(agent.agent_id, ue.rnti)])}")
    print(f"active scheduler VSF:  "
          f"{agent.mac.active_name('dl_scheduling')}")
    conn = sim.connections[agent.agent_id]
    print(f"signaling (uplink):    "
          f"{goodput_mbps(conn.channel.uplink.total_bytes, sim.now):.3f} "
          "Mb/s")


if __name__ == "__main__":
    main()

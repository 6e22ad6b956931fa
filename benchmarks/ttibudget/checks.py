"""Output checks, counters and the simulated fingerprint.

A fast run that stopped working must not pass as a fast run: every
measured window ends with the checks below, each counted as one
attempt, and their failures feed ``failed`` in the result.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Tuple

from repro.core.protocol.messages import Category
from repro.core.survive.snapshot import rib_ground_truth_diff

from workloads import Deployment


def links(dep: Deployment) -> list:
    """Every control link, uplink then downlink per agent, by agent id."""
    return [link for agent_id in sorted(dep.sim.connections)
            for link in dep.sim.connections[agent_id].channel.links]


def counters(dep: Deployment) -> Dict[str, int]:
    """Monotone simulated totals; window metrics are their deltas."""
    sim = dep.sim
    uplinks = [c.channel.uplink for c in sim.connections.values()]
    downlinks = [c.channel.downlink for c in sim.connections.values()]
    stats = sim.master.task_manager.stats if sim.master is not None else None
    return {
        "tti": sim.now,
        "ul_bytes": sum(l.total_bytes for l in uplinks),
        "dl_bytes": sum(l.total_bytes for l in downlinks),
        "msgs": sum(l.total_messages for l in uplinks + downlinks),
        "dropped_msgs": sum(l.dropped_messages for l in uplinks + downlinks),
        "commands": sum(l.counters[Category.COMMANDS].messages
                        for l in downlinks if Category.COMMANDS in l.counters),
        "delivered_bytes": sum(e.counters.dl_delivered_bytes
                               for e in dep.enbs),
        "dl_assignments": sum(e.counters.dl_assignments for e in dep.enbs),
        "tb_ok": sum(e.counters.tb_ok for e in dep.enbs),
        "tb_err": sum(e.counters.tb_err for e in dep.enbs),
        "change_seq": sum(e.change_seq for e in dep.enbs),
        "packets": sum(rlc.stats.sdus_in for e in dep.enbs
                       for rlc in e.rlc.values()),
        "reports": sum(a.reports.reports_sent for a in dep.agents),
        "apps_deferred": stats.deferred_total if stats else 0,
        "apps_quarantined": stats.quarantined_total if stats else 0,
    }


def rib_census(dep: Deployment) -> Tuple[int, int]:
    """(agents, UEs) the master's RIB holds; (0, 0) without a master."""
    if dep.sim.master is None:
        return 0, 0
    rib = dep.sim.master.rib
    return len(rib.agent_ids()), sum(1 for _ in rib.all_ues())


def fingerprint(dep: Deployment) -> str:
    """Digest of what the deployment did up to now, in simulated terms:
    link counters, delivered bytes, HARQ outcomes and the RIB census.
    Equal seeds must give equal digests at equal TTIs."""
    state = {
        "tti": dep.sim.now,
        "links": [(l.name, l.offered_messages, l.offered_bytes,
                   l.delivered_messages, l.delivered_bytes,
                   l.dropped_messages) for l in links(dep)],
        "enbs": [(e.enb_id, e.counters.dl_delivered_bytes, e.counters.tb_ok,
                  e.counters.tb_err, e.counters.dl_assignments)
                 for e in dep.enbs],
        "rib": rib_census(dep),
    }
    blob = json.dumps(state, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def run_checks(dep: Deployment, before: Dict[str, int],
               after: Dict[str, int]) -> Tuple[int, List[str]]:
    """Check the window ``before..after``; returns (attempted, failures)."""
    sim = dep.sim
    attempted = 0
    failures: List[str] = []

    def check(ok: bool, what: str) -> None:
        nonlocal attempted
        attempted += 1
        if not ok:
            failures.append(what)

    attached = sum(len(cell.ues) for e in dep.enbs
                   for cell in e.cells.values())
    if sim.master is not None:
        diffs = rib_ground_truth_diff(
            sim.master.rib, {a.agent_id: a.enb for a in dep.agents})
        check(not diffs, f"RIB differs from ground truth: {diffs[:3]}")
        check(rib_census(dep) == (len(dep.agents), attached),
              f"RIB census {rib_census(dep)} != "
              f"({len(dep.agents)}, {attached})")
    for link in links(dep):
        accounted = (link.delivered_bytes + link.dropped_bytes
                     + link.in_flight_bytes())
        check(link.offered_bytes == accounted and link.offered_messages
              == link.delivered_messages + link.dropped_messages
              + link.in_flight(),
              f"{link.name}: offered != delivered + dropped + in flight")
        check(link.dropped_messages == 0,
              f"{link.name}: dropped {link.dropped_messages} messages")
    last_tti = sim.now - 1
    for enb in dep.enbs:
        check(enb.planned_cell_ids(last_tti) == sorted(enb.cells),
              f"enb {enb.enb_id}: not every cell planned at TTI {last_tti}")
    check(after["dl_assignments"] > before["dl_assignments"],
          "no downlink assignment in the window")
    check(after["delivered_bytes"] > before["delivered_bytes"],
          "no downlink byte delivered in the window")
    if sim.master is not None:
        check(after["apps_deferred"] == 0 and after["apps_quarantined"] == 0,
              f"task manager deferred {after['apps_deferred']} and "
              f"quarantined {after['apps_quarantined']} app runs")
        for reg in sim.master.registry.registrations():
            # The fig8_master failure: a supervisor that quarantines
            # the scheduler leaves a fast, switched-off controller.
            due = sum(1 for tti in range(sim.now) if reg.app.is_due(tti))
            check(reg.runs == due,
                  f"app {reg.app.name} ran {reg.runs} of {due} due TTIs")
    return attempted, failures

"""Mobile Edge Computing use case: RAN-assisted DASH (Section 6.2).

A MEC application deployed over FlexRAN "uses the RIB to obtain
real-time information about the CQI values of the attached UEs",
computes an exponential moving average of each UE's CQI, maps it to
the optimal video bitrate via a measured CQI -> sustainable-bitrate
table (Table 2), and forwards the target through an out-of-band
channel to the modified DASH client (:class:`AssistedAbr`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.apps.base import App
from repro.core.controller.northbound import NorthboundApi, StatsSubscription
from repro.core.protocol.messages import ReportType, StatsFlags
from repro.traffic.dash import AssistedAbr

def bitrate_for_cqi(table: Dict[int, float], cqi: float) -> float:
    """Largest table entry at or below *cqi* (conservative mapping)."""
    eligible = [c for c in table if c <= cqi]
    if not eligible:
        return min(table.values())
    return table[max(eligible)]


STATS_PERIOD_TTIS = 10  # the app's periodic report subscription
CQI_EWMA_ALPHA = 0.3  # weight of each new RIB CQI in the per-UE average


@dataclass
class AssistedClientBinding:
    """Wires one RIB UE to one assisted DASH client."""

    agent_id: int
    rnti: int
    abr: AssistedAbr


class MecDashApp(App):
    """Maps RIB CQI to DASH bitrate targets for assisted clients."""

    name = "mec_dash"
    priority = 10
    period_ttis = 100

    def __init__(self, bindings: List[AssistedClientBinding],
                 bitrate_table: Dict[int, float]) -> None:
        self.bindings = list(bindings)
        #: CQI -> maximum sustainable bitrate, Mb/s (the paper's Table 2).
        self.bitrate_table = dict(bitrate_table)
        self._cqi_ewma: Dict[Tuple[int, int], float] = {}
        self.subscriptions: Dict[int, StatsSubscription] = {}
        self.targets_sent: List[Tuple[int, int, float]] = []

    def run(self, tti: int, nb: NorthboundApi) -> None:
        for binding in self.bindings:
            if binding.agent_id not in self.subscriptions:
                if binding.agent_id not in nb.agent_ids():
                    continue
                self.subscriptions[binding.agent_id] = nb.subscribe_stats(
                    binding.agent_id,
                    report_type=ReportType.PERIODIC,
                    period_ttis=STATS_PERIOD_TTIS,
                    flags=int(StatsFlags.CQI | StatsFlags.QUEUES))
            agent = nb.rib.agent(binding.agent_id)
            node = None
            for candidate in agent.all_ues():
                if candidate.rnti == binding.rnti:
                    node = candidate
                    break
            if node is None or node.stats is None:
                continue
            key = (binding.agent_id, binding.rnti)
            prev = self._cqi_ewma.get(key)
            ewma = (node.cqi if prev is None
                    else (1 - CQI_EWMA_ALPHA) * prev
                    + CQI_EWMA_ALPHA * node.cqi)
            self._cqi_ewma[key] = ewma
            target = bitrate_for_cqi(self.bitrate_table, ewma)
            binding.abr.set_target(target)
            self.targets_sent.append((tti, binding.rnti, target))

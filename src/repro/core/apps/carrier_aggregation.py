"""Carrier aggregation manager: demand-driven SCell activation.

"(De)activating component carriers in carrier aggregation" is one of
the data-plane actions the paper's control/data split assigns to the
eNodeB (Section 4.2); the *decision* of when to aggregate belongs to
the controller.  This application implements that decision: a UE whose
downlink backlog stays above a threshold gets a secondary carrier
activated (doubling its schedulable spectrum); once the backlog drains
and stays low, the SCell is released (SCells cost UE energy, so idle
aggregation is waste).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.apps.base import App
from repro.core.controller.northbound import NorthboundApi, StatsSubscription
from repro.core.protocol.messages import ReportType, StatsFlags


ACTIVATE_BACKLOG_BYTES = 100_000  # downlink backlog that earns an SCell
RELEASE_BACKLOG_BYTES = 1_000  # at or below it an aggregated UE is idle
HOLD_TTIS = 100  # idle this long, the SCell is released
STATS_PERIOD_TTIS = 10  # the app's periodic report subscription


@dataclass
class CaDecision:
    tti: int
    agent_id: int
    rnti: int
    scell_id: int
    activated: bool


class CarrierAggregationApp(App):
    """Activates SCells for backlogged UEs, releases them when idle."""

    name = "ca_manager"
    priority = 40
    period_ttis = 10

    def __init__(self, *, scell_map: Dict[int, int]) -> None:
        """``scell_map``: primary cell id -> secondary cell id on the
        same eNodeB (the aggregation pairs the deployment licenses)."""
        self.scell_map = dict(scell_map)
        self.subscriptions: Dict[int, StatsSubscription] = {}
        self._active: Dict[Tuple[int, int], int] = {}  # key -> scell
        self._low_since: Dict[Tuple[int, int], int] = {}
        self.decisions: List[CaDecision] = []

    def run(self, tti: int, nb: NorthboundApi) -> None:
        for agent in nb.rib.agents():
            if agent.agent_id not in self.subscriptions:
                self.subscriptions[agent.agent_id] = nb.subscribe_stats(
                    agent.agent_id,
                    report_type=ReportType.PERIODIC,
                    period_ttis=STATS_PERIOD_TTIS,
                    flags=int(StatsFlags.QUEUES | StatsFlags.CQI))
            for node in agent.all_ues():
                if node.stats is None:
                    continue
                scell = self.scell_map.get(node.cell_id)
                if scell is None:
                    continue
                key = (agent.agent_id, node.rnti)
                backlog = node.queue_bytes
                if key not in self._active:
                    if backlog >= ACTIVATE_BACKLOG_BYTES:
                        nb.send_scell(agent.agent_id, node.rnti, scell,
                                      True)
                        self._active[key] = scell
                        self._low_since.pop(key, None)
                        self.decisions.append(CaDecision(
                            tti, agent.agent_id, node.rnti, scell, True))
                else:
                    if backlog <= RELEASE_BACKLOG_BYTES:
                        since = self._low_since.setdefault(key, tti)
                        if tti - since >= HOLD_TTIS:
                            nb.send_scell(agent.agent_id, node.rnti,
                                          scell, False)
                            self.decisions.append(CaDecision(
                                tti, agent.agent_id, node.rnti, scell,
                                False))
                            del self._active[key]
                            del self._low_since[key]
                    else:
                        self._low_since.pop(key, None)

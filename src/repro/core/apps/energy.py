"""Energy-saving application: DRX management from the controller.

The paper's introduction motivates SD-RAN partly by "the reduction of
energy/cost through the optimized network management", and its Table 1
lists DRX commands among the control decisions the platform applies.
This application closes that loop: it watches each UE's activity in
the RIB and pushes DRX commands so that idle UEs sleep through most of
the radio frame while active UEs stay always-on.

Policy: a UE whose downlink queue has stayed empty and whose delivered
byte counter has not moved for :data:`IDLE_WINDOW_TTIS` gets DRX
enabled with the :data:`DRX_CYCLE_TTIS` cycle; any sign of traffic
disables DRX again (the paper's transparency argument holds -- the UE
itself needs no change, the eNodeB simply stops scheduling it outside
its on-durations).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.core.apps.base import App
from repro.core.controller.northbound import NorthboundApi, StatsSubscription
from repro.core.protocol.messages import ReportType, StatsFlags


@dataclass
class DrxDecision:
    """Record of one DRX command issued by the app."""

    tti: int
    agent_id: int
    rnti: int
    enabled: bool


IDLE_WINDOW_TTIS = 200  # no traffic this long, a UE gets DRX
DRX_CYCLE_TTIS = 80  # ... with this cycle,
DRX_ON_DURATION_TTIS = 8  # ... on-duration
DRX_INACTIVITY_TTIS = 10  # ... and inactivity timer
STATS_PERIOD_TTIS = 10  # the app's periodic report subscription


class DrxEnergyApp(App):
    """Enables DRX for idle UEs, disables it on activity."""

    name = "drx_energy_saver"
    priority = 20
    period_ttis = 10

    def __init__(self) -> None:
        self.subscriptions: Dict[int, StatsSubscription] = {}
        #: (agent, rnti) -> (last rx_bytes_total, tti it last changed)
        self._last_progress: Dict[Tuple[int, int], Tuple[int, int]] = {}
        self._drx_enabled: Set[Tuple[int, int]] = set()
        self.decisions: List[DrxDecision] = []

    def run(self, tti: int, nb: NorthboundApi) -> None:
        for agent in nb.rib.agents():
            if agent.agent_id not in self.subscriptions:
                self.subscriptions[agent.agent_id] = nb.subscribe_stats(
                    agent.agent_id,
                    report_type=ReportType.PERIODIC,
                    period_ttis=STATS_PERIOD_TTIS,
                    flags=int(StatsFlags.QUEUES | StatsFlags.PDCP))
            for node in agent.all_ues():
                if node.stats is None:
                    continue
                key = (agent.agent_id, node.rnti)
                total = node.stats.rx_bytes_total
                last_total, last_change = self._last_progress.get(
                    key, (total, tti))
                if total != last_total or node.queue_bytes > 0:
                    self._last_progress[key] = (total, tti)
                    if key in self._drx_enabled:
                        self._set_drx(nb, key, tti, enabled=False)
                    continue
                self._last_progress[key] = (last_total, last_change)
                idle_for = tti - last_change
                if (idle_for >= IDLE_WINDOW_TTIS
                        and key not in self._drx_enabled):
                    self._set_drx(nb, key, tti, enabled=True)

    def _set_drx(self, nb: NorthboundApi, key: Tuple[int, int],
                 tti: int, *, enabled: bool) -> None:
        agent_id, rnti = key
        if enabled:
            nb.send_drx(agent_id, rnti, cycle_ttis=DRX_CYCLE_TTIS,
                        on_duration_ttis=DRX_ON_DURATION_TTIS,
                        inactivity_ttis=DRX_INACTIVITY_TTIS)
            self._drx_enabled.add(key)
        else:
            nb.send_drx(agent_id, rnti, cycle_ttis=0)
            self._drx_enabled.discard(key)
        self.decisions.append(DrxDecision(
            tti=tti, agent_id=agent_id, rnti=rnti, enabled=enabled))

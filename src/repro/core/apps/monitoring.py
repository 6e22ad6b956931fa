"""Monitoring application: periodic RIB snapshots into time series.

The paper's canonical example of a *non* time-critical application:
it "obtains statistics reporting which can be used by other apps" and
would receive a low Task-Manager priority.  The collected series are
also what several benchmark harnesses read out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.apps.base import App
from repro.core.controller.northbound import NorthboundApi, StatsSubscription
from repro.core.protocol.messages import ReportType, StatsFlags


STATS_PERIOD_TTIS = 10  # the app's periodic report subscription


@dataclass
class UeSample:
    """One monitoring observation of a UE."""

    tti: int
    cqi: int
    queue_bytes: int
    rx_bytes_total: int


class MonitoringApp(App):
    """Collects per-UE time series from the RIB."""

    name = "monitoring"
    priority = 1  # background task
    subscribed_events = frozenset()

    def __init__(self, *, period_ttis: int = 100) -> None:
        if period_ttis <= 0:
            raise ValueError(f"period must be positive, got {period_ttis}")
        self.period_ttis = period_ttis
        #: agent_id -> live stats subscription handle.
        self.subscriptions: Dict[int, StatsSubscription] = {}
        #: (agent_id, rnti) -> samples
        self.series: Dict[Tuple[int, int], List[UeSample]] = {}

    def run(self, tti: int, nb: NorthboundApi) -> None:
        for agent in nb.rib.agents():
            if agent.agent_id not in self.subscriptions:
                self.subscriptions[agent.agent_id] = nb.subscribe_stats(
                    agent.agent_id,
                    report_type=ReportType.PERIODIC,
                    period_ttis=STATS_PERIOD_TTIS,
                    flags=int(StatsFlags.FULL))
            for node in agent.all_ues():
                if node.stats is None:
                    continue
                key = (agent.agent_id, node.rnti)
                self.series.setdefault(key, []).append(UeSample(
                    tti=tti, cqi=node.cqi, queue_bytes=node.queue_bytes,
                    rx_bytes_total=node.stats.rx_bytes_total))

    # -- read-out helpers ---------------------------------------------------

    def throughput_mbps(self, agent_id: int, rnti: int,
                        *, start_tti: int = 0,
                        end_tti: Optional[int] = None) -> float:
        """Mean goodput of one UE between two monitoring samples."""
        samples = [s for s in self.series.get((agent_id, rnti), [])
                   if s.tti >= start_tti
                   and (end_tti is None or s.tti <= end_tti)]
        if len(samples) < 2:
            return 0.0
        span = samples[-1].tti - samples[0].tti
        if span <= 0:
            return 0.0
        delta = samples[-1].rx_bytes_total - samples[0].rx_bytes_total
        return delta * 8 / (span * 1000.0)

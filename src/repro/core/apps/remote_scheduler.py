"""Centralized MAC scheduling application.

The flagship real-time application of the paper's evaluation: a
scheduler running at the master that undertakes *all* scheduling
decisions at TTI granularity and pushes them to agents over the
FlexRAN protocol (Sections 5.2-5.4).

Two latency mechanisms from Section 5.3 are implemented:

* **Subframe estimation** -- the master tracks the agent subframe from
  sync messages; the estimate is outdated by the one-way delay.
* **Schedule-ahead** -- decisions are issued for subframe
  ``estimate + n``; the agent applies a decision only if it arrives
  before its target subframe, so ``n`` must be at least the RTT or
  every decision misses its deadline (the zero-throughput triangle of
  Fig. 9).

The app also keeps in-flight bookkeeping: bytes already scheduled but
not yet reflected in RIB queue reports are subtracted from the queue
estimate, preventing systematic over-scheduling on slow control
channels.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.apps.base import App
from repro.core.controller.northbound import NorthboundApi, StatsSubscription
from repro.core.controller.rib import AgentLiveness, AgentNode, CellNode
from repro.core.protocol.messages import ReportType, StatsFlags
from repro.lte.enodeb import default_ul_scheduler
from repro.lte.mac.dci import SchedulingContext, UeView
from repro.lte.mac.schedulers import FairShareScheduler, Scheduler
from repro.lte.mac import amc
from repro.lte.phy.tbs import transport_block_bits
from repro.lte.rrc import RrcState

_ACTIVE_STATES = {
    list(RrcState).index(RrcState.CONNECTING),
    list(RrcState).index(RrcState.CONNECTED),
}

RESUBSCRIBE_AFTER_TTIS = 500
"""If no stats report lands for this long after subscribing, the
subscription is assumed lost (lossy control channel) and re-sent."""


class RemoteSchedulerApp(App):
    """Per-TTI centralized downlink scheduler at the master."""

    name = "remote_scheduler"
    priority = 100  # time-critical: runs first in the app slot
    period_ttis = 1

    def __init__(self, algorithm: Optional[Scheduler] = None, *,
                 schedule_ahead: int = 0,
                 cqi_backoff: int = 0,
                 agents: Optional[List[int]] = None,
                 stats_period_ttis: int = 1,
                 schedule_uplink: bool = False,
                 inflight_ttl_margin: int = 8) -> None:
        self.algorithm = algorithm if algorithm is not None else FairShareScheduler()
        if schedule_ahead < 0:
            raise ValueError(
                f"schedule_ahead must be >= 0, got {schedule_ahead}")
        self.schedule_ahead = schedule_ahead
        self.cqi_backoff = cqi_backoff
        if stats_period_ttis < 1:
            raise ValueError(
                f"stats period must be >= 1 TTI, got {stats_period_ttis}")
        self.stats_period_ttis = stats_period_ttis
        self.schedule_uplink = schedule_uplink
        self._only_agents = set(agents) if agents is not None else None
        self._inflight_ttl_margin = inflight_ttl_margin
        #: agent_id -> (subscription handle, TTI of last (re)assert).
        self._subscribed: Dict[int, Tuple[StatsSubscription, int]] = {}
        # rnti -> deque of (expire_tti, bytes) decisions in flight.
        self._inflight: Dict[int, Deque[Tuple[int, int]]] = {}
        self.decisions_sent = 0

    # -- setup ------------------------------------------------------------

    def _ensure_subscribed(self, agent: AgentNode, nb: NorthboundApi,
                           tti: int) -> None:
        agent_id = agent.agent_id
        entry = self._subscribed.get(agent_id)
        if entry is not None:
            subscription, asserted_tti = entry
            freshest = max((c.stats_tti for c in agent.cells.values()),
                           default=-1)
            if max(asserted_tti, freshest) > tti - RESUBSCRIBE_AFTER_TTIS:
                return
            # No report within the grace window: the request probably
            # never reached the agent (lossy channel).  Renewing under
            # the same xid is idempotent -- the agent overwrites the
            # registration in place if the original did land.
            subscription.renew()
        else:
            subscription = nb.subscribe_stats(
                agent_id, report_type=ReportType.PERIODIC,
                period_ttis=self.stats_period_ttis,
                flags=int(StatsFlags.FULL))
        nb.enable_sync(agent_id, True)
        # Take over scheduling: activate the agent's remote stub so the
        # data plane applies this app's decisions instead of a local VSF.
        nb.reconfigure_vsf(agent_id, "mac", "dl_scheduling",
                           behavior="remote_stub")
        if self.schedule_uplink:
            nb.reconfigure_vsf(agent_id, "mac", "ul_scheduling",
                               behavior="remote_stub_ul")
        self._subscribed[agent_id] = (subscription, tti)

    # -- per-TTI decision ---------------------------------------------------

    def run(self, tti: int, nb: NorthboundApi) -> None:
        for agent in nb.rib.agents():
            if (self._only_agents is not None
                    and agent.agent_id not in self._only_agents):
                continue
            if agent.liveness is AgentLiveness.DEAD:
                # The agent fell back to local control; pushing
                # decisions at a dead endpoint only wastes the wire.
                # STALE agents still get commands (they may arrive).
                continue
            self._ensure_subscribed(agent, nb, tti)
            estimate = agent.estimated_subframe(tti)
            sync_lag = max(0, tti - estimate)
            target = estimate + self.schedule_ahead
            for cell_id in sorted(agent.cells):
                cell = agent.cells[cell_id]
                if cell.config is None:
                    continue
                ctx = self._build_context(cell, target, tti, sync_lag)
                if self.schedule_uplink:
                    # The agent's own fair split, run on the RIB's view.
                    grants = default_ul_scheduler(ctx)
                    if grants:
                        nb.send_ul_command(agent.agent_id, cell_id,
                                           target, grants)
                assignments = self.algorithm.schedule(ctx)
                if not assignments:
                    continue
                nb.send_dl_command(agent.agent_id, cell_id, target, assignments)
                self.decisions_sent += 1
                ttl = (self.schedule_ahead + 2 * sync_lag
                       + self._inflight_ttl_margin)
                for a in assignments:
                    bits = transport_block_bits(a.cqi_used, a.n_prb)
                    self._inflight.setdefault(a.rnti, deque()).append(
                        (tti + ttl, bits // 8))

    def _build_context(self, cell: CellNode, target: int, now: int,
                       sync_lag: int) -> SchedulingContext:
        views: List[UeView] = []
        for rnti in sorted(cell.ues):
            node = cell.ues[rnti]
            if node.stats is None or node.stats.rrc_state not in _ACTIVE_STATES:
                continue
            queue = max(0, node.queue_bytes - self._inflight_bytes(rnti, now))
            cqi = amc.select_mcs(node.cqi, backoff=self.cqi_backoff)
            labels = dict(node.config.labels) if node.config else {}
            views.append(UeView(
                rnti=rnti, queue_bytes=queue, cqi=cqi,
                ul_buffer_bytes=node.stats.ul_buffer_bytes, labels=labels))
        return SchedulingContext(
            tti=target, n_prb=cell.n_prb, ues=views, pending_retx=[],
            cell_id=cell.cell_id, subframe=target % 10)

    def _inflight_bytes(self, rnti: int, now: int) -> int:
        pending = self._inflight.get(rnti)
        if not pending:
            return 0
        while pending and pending[0][0] <= now:
            pending.popleft()
        return sum(b for _, b in pending)

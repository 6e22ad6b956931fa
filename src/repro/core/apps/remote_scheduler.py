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
channels.  Their sum is a running total per UE, updated as decisions
are sent and expire, so a TTI's work follows the decisions made, not
the decisions still in flight.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.apps.base import App
from repro.core.controller.northbound import NorthboundApi, StatsSubscription
from repro.core.controller.rib import AgentLiveness, AgentNode, CellNode
from repro.core.protocol.messages import ReportType, StatsFlags
from repro.lte.mac.dci import SchedulingContext, UeView
from repro.lte.mac.schedulers import FairShareScheduler, Scheduler
from repro.lte.constants import CQI_MAX, CQI_MIN
from repro.lte.phy.cqi import validate_cqi
from repro.lte.phy.tbs import TABLE_PRBS, transport_block_bits
from repro.lte.rrc import RrcState

_ACTIVE_STATES = {
    list(RrcState).index(RrcState.CONNECTING),
    list(RrcState).index(RrcState.CONNECTED),
}

RESUBSCRIBE_AFTER_TTIS = 500
"""If no stats report lands for this long after subscribing, the
subscription is assumed lost (lossy control channel) and re-sent."""

INFLIGHT_TTL_MARGIN_TTIS = 8
"""TTIs a decision stays in flight beyond its target and twice the sync
lag, for the report that reflects it to arrive."""


class RemoteSchedulerApp(App):
    """Per-TTI centralized downlink scheduler at the master."""

    name = "remote_scheduler"
    priority = 100  # time-critical: runs first in the app slot
    period_ttis = 1

    #: Period of the stats subscription the app asks every agent for.
    stats_period_ttis = 1

    def __init__(self, algorithm: Optional[Scheduler] = None, *,
                 schedule_ahead: int = 0) -> None:
        self.algorithm = algorithm if algorithm is not None else FairShareScheduler()
        if schedule_ahead < 0:
            raise ValueError(
                f"schedule_ahead must be >= 0, got {schedule_ahead}")
        self.schedule_ahead = schedule_ahead
        #: agent_id -> (subscription handle, TTI of last (re)assert).
        self._subscribed: Dict[int, Tuple[StatsSubscription, int]] = {}
        # rnti -> deque of (expire_tti, bytes) decisions in flight, and
        # rnti -> the sum of their bytes, kept as entries come and go.
        self._inflight: Dict[int, Deque[Tuple[int, int]]] = {}
        self._inflight_total: Dict[int, int] = {}
        #: agent_id -> the last target TTI a command went out for.  A
        #: late sync can step the subframe estimate back; a target at or
        #: below this one was commanded already (or is past).
        self._commanded: Dict[int, int] = {}
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
        self._subscribed[agent_id] = (subscription, tti)

    # -- per-TTI decision ---------------------------------------------------

    def run(self, tti: int, nb: NorthboundApi) -> None:
        for agent in nb.rib.agents():
            if agent.liveness is AgentLiveness.DEAD:
                # The agent fell back to local control; pushing
                # decisions at a dead endpoint only wastes the wire.
                # STALE agents still get commands (they may arrive).
                continue
            self._ensure_subscribed(agent, nb, tti)
            estimate = agent.estimated_subframe(tti)
            sync_lag = max(0, tti - estimate)
            target = estimate + self.schedule_ahead
            commanded = self._commanded
            if (agent.agent_id in commanded
                    and target <= commanded[agent.agent_id]):
                continue
            for cell_id in sorted(agent.cells):
                cell = agent.cells[cell_id]
                if cell.config is None:
                    continue
                ctx = self._build_context(cell, target, tti, sync_lag)
                assignments = self.algorithm.schedule(ctx)
                if not assignments:
                    continue
                nb.send_dl_command(agent.agent_id, cell_id, target, assignments)
                commanded[agent.agent_id] = target
                self.decisions_sent += 1
                expire = (tti + self.schedule_ahead + 2 * sync_lag
                          + INFLIGHT_TTL_MARGIN_TTIS)
                inflight, totals = self._inflight, self._inflight_total
                for a in assignments:
                    nbytes = transport_block_bits(a.cqi_used, a.n_prb) // 8
                    if a.rnti in inflight:
                        inflight[a.rnti].append((expire, nbytes))
                        totals[a.rnti] += nbytes
                    else:
                        inflight[a.rnti] = deque(((expire, nbytes),))
                        totals[a.rnti] = nbytes

    def _build_context(self, cell: CellNode, target: int, now: int,
                       sync_lag: int) -> SchedulingContext:
        views: List[UeView] = []
        for rnti in sorted(cell.ues):
            node = cell.ues[rnti]
            if node.stats is None or node.stats.rrc_state not in _ACTIVE_STATES:
                continue
            queue = max(0, node.queue_bytes - self._inflight_bytes(rnti, now))
            cqi = node.cqi  # off the wire: checked as DlAssignment does
            if type(cqi) is not int or not CQI_MIN <= cqi <= CQI_MAX:
                validate_cqi(cqi)
            labels = dict(node.config.labels) if node.config else {}
            views.append(UeView(
                rnti=rnti, queue_bytes=queue, cqi=cqi,
                ul_buffer_bytes=node.stats.ul_buffer_bytes, labels=labels))
        n_prb = cell.n_prb  # off the wire: no carrier is wider than the table
        if n_prb > TABLE_PRBS:
            n_prb = TABLE_PRBS
        return SchedulingContext(
            tti=target, n_prb=n_prb, ues=views, pending_retx=[],
            cell_id=cell.cell_id, subframe=target % 10)

    def _inflight_bytes(self, rnti: int, now: int) -> int:
        pending = self._inflight.get(rnti)
        if not pending:
            return 0
        total = self._inflight_total[rnti]
        while pending and pending[0][0] <= now:
            total -= pending.popleft()[1]
        self._inflight_total[rnti] = total
        return total

"""RIB Updater: the single writer of the RAN Information Base.

"Only the RIB Updater component of the master can update the RIB with
the information received from the agents" (Section 4.3.3, Fig. 5).
Applications never write here; they issue commands through the
northbound interface and observe the effect when agent reports flow
back through this component.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro import obs as _obs
from repro.core.controller.rib import AgentNode, CellNode, Rib, UeNode
from repro.core.protocol.messages import (
    ConfigReply,
    EchoReply,
    EchoRequest,
    EventNotification,
    FlexRanMessage,
    Hello,
    StatsReply,
    SubframeTrigger,
    UeStatsReport,
)

EVENT_HISTORY = 32
"""Events retained per agent for late-subscribing applications."""

_merge = UeStatsReport.merge


@dataclass
class UpdaterCounters:
    """Volume counters for the updater slot of the TTI cycle."""

    messages: int = 0
    stats_replies: int = 0
    events: int = 0
    sync_updates: int = 0
    config_updates: int = 0
    unknown: int = 0


class RibUpdater:
    """Applies agent messages to the RIB; returns event notifications."""

    def __init__(self, rib: Rib) -> None:
        self._rib = rib
        self.counters = UpdaterCounters()

    def apply(self, agent_id: int, message: FlexRanMessage,
              now: int) -> List[EventNotification]:
        """Apply one message; returns any events for the notification
        service to fan out to applications."""
        return self.apply_batch(agent_id, (message,), now)

    def apply_batch(self, agent_id: int, messages: Sequence[FlexRanMessage],
                    now: int) -> List[EventNotification]:
        """Apply every message an agent delivered this TTI in one pass.

        Batching lets per-agent work -- the RIB node lookup, the
        observability counters, and the rnti->cell index that routes
        UE stats reports -- happen once per (agent, TTI) instead of
        once per message.  Returns the events for the notification
        service to fan out, in arrival order.
        """
        if not messages:
            return []
        self.counters.messages += len(messages)
        ob = _obs.get()
        if ob.enabled:
            ob.registry.counter("master.rib.messages").inc(len(messages))
            for message in messages:
                ob.registry.counter(
                    "master.rib.by_type."
                    + type(message).__name__.lower()).inc()
        agent = self._rib.get_or_create_agent(agent_id)
        events: List[EventNotification] = []
        # rnti -> owning CellNode, built lazily on the first stats
        # reply and kept current across the batch; a config reply can
        # move or drop UEs, so it invalidates the index.
        ue_index: Optional[Dict[int, CellNode]] = None
        for message in messages:
            if isinstance(message, StatsReply):
                if ue_index is None:
                    ue_index = {rnti: cell
                                for cell in agent.cells.values()
                                for rnti in cell.ues}
                self._apply_stats(agent, message, now, ue_index)
            elif isinstance(message, Hello):
                self._apply_hello(agent, message, now)
            elif isinstance(message, ConfigReply):
                self._apply_config(agent, message, now)
                ue_index = None
            elif isinstance(message, SubframeTrigger):
                agent.last_sync_agent_tti = message.header.tti
                agent.last_sync_rx_tti = now
                self.counters.sync_updates += 1
            elif isinstance(message, EventNotification):
                self.counters.events += 1
                agent.last_events.append(
                    (message.event_type, message.rnti, message.header.tti))
                del agent.last_events[:-EVENT_HISTORY]
                events.append(message)
            elif isinstance(message, (EchoReply, EchoRequest)):
                pass  # liveness only (EchoRequest = agent keepalive probe)
            else:
                self.counters.unknown += 1
        return events

    def _apply_hello(self, agent: AgentNode, message: Hello,
                     now: int) -> None:
        agent.capabilities = list(message.capabilities)
        agent.connected_tti = now

    def _apply_config(self, agent: AgentNode, message: ConfigReply,
                      now: int) -> None:
        self.counters.config_updates += 1
        if message.enb_id:
            agent.enb_id = message.enb_id
        for cell_cfg in message.cells:
            cell = agent.cells.setdefault(
                cell_cfg.cell_id, CellNode(cell_id=cell_cfg.cell_id))
            cell.config = cell_cfg
        for ue_cfg in message.ues:
            cell = agent.cells.setdefault(
                ue_cfg.cell_id, CellNode(cell_id=ue_cfg.cell_id))
            node = cell.ues.setdefault(
                ue_cfg.rnti, UeNode(rnti=ue_cfg.rnti, cell_id=ue_cfg.cell_id))
            node.config = ue_cfg
        # A "ues" scoped reply is authoritative: drop departed UEs.
        if message.ues or not message.cells:
            reported = {u.rnti for u in message.ues}
            for cell in agent.cells.values():
                for rnti in [r for r in cell.ues if r not in reported]:
                    del cell.ues[rnti]

    def _apply_stats(self, agent: AgentNode, message: StatsReply,
                     now: int, ue_index: Dict[int, CellNode]) -> None:
        self.counters.stats_replies += 1
        for cell_rep in message.cell_reports:
            cell = agent.cells.get(cell_rep.cell_id)
            if cell is None:
                cell = agent.cells.setdefault(
                    cell_rep.cell_id, CellNode(cell_id=cell_rep.cell_id))
            cell.stats = cell_rep
            cell.stats_tti = now
        # UE reports do not carry the cell id; with a single cell they
        # land there, otherwise on the cell already holding the UE
        # (resolved via *ue_index*, maintained across the batch).
        default_cell = (next(iter(agent.cells.values()))
                        if len(agent.cells) == 1 else None)
        for ue_rep in message.ue_reports:
            rnti = ue_rep.rnti
            target = ue_index.get(rnti)
            if target is None:
                target = default_cell
            if target is None:
                continue
            node = target.ues.get(rnti)
            if node is None:
                node = target.ues.setdefault(
                    rnti, UeNode(rnti=rnti, cell_id=target.cell_id))
                ue_index[rnti] = target
            # A report carries the statistic groups that changed: they
            # are merged into the stored record, so readers always see
            # a complete one.  With nothing stored the report stands as
            # it is (its absent groups hold their defaults).
            stored = node.stats
            node.stats = ue_rep if stored is None else _merge(stored, ue_rep)
            node.stats_tti = now

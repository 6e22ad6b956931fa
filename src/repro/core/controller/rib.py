"""RAN Information Base: the master's in-memory network view.

Structured exactly as the paper describes (Section 4.3.3): a forest
graph whose roots are agents, second-level nodes are cells, and leaves
are the UEs attached to each (primary) cell.  The RIB stores the raw
statistics and configuration received from the agents without
high-level abstraction, and is read-only for every component except
the RIB Updater.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.protocol.messages import (
    CellConfigRep,
    CellStatsReport,
    UeConfigRep,
    UeStatsReport,
)
from repro.obs.memory import deep_size


class AgentLiveness(enum.Enum):
    """Master-side view of an agent's reachability.

    ACTIVE: heard from recently; its RIB subtree is current.
    STALE: quiet beyond the echo period; data may be outdated, but
    apps may still act on it (commands could get through).
    DEAD: silent beyond the liveness timeout; apps should skip it.
    """

    ACTIVE = "active"
    STALE = "stale"
    DEAD = "dead"


@dataclass
class UeNode:
    """Leaf: one UE under its primary cell."""

    rnti: int
    cell_id: int
    config: Optional[UeConfigRep] = None
    stats: Optional[UeStatsReport] = None
    stats_tti: int = -1

    @property
    def queue_bytes(self) -> int:
        if self.stats is None:
            return 0
        return sum(self.stats.queues.values())

    @property
    def cqi(self) -> int:
        return self.stats.wb_cqi if self.stats else 0

    @property
    def cqi_clear(self) -> int:
        return self.stats.wb_cqi_clear if self.stats else 0


@dataclass
class CellNode:
    """Second level: one cell of an agent's eNodeB."""

    cell_id: int
    config: Optional[CellConfigRep] = None
    stats: Optional[CellStatsReport] = None
    stats_tti: int = -1
    ues: Dict[int, UeNode] = field(default_factory=dict)

    @property
    def n_prb(self) -> int:
        return self.config.n_prb_dl if self.config else 0


@dataclass
class AgentNode:
    """Root: one connected FlexRAN agent."""

    agent_id: int
    enb_id: int = -1
    capabilities: List[str] = field(default_factory=list)
    connected_tti: int = -1
    #: Liveness, maintained by the master's keepalive machinery.
    last_heard_tti: int = -1
    liveness: AgentLiveness = AgentLiveness.ACTIVE
    #: (tti, state) log of every liveness transition, oldest first.
    liveness_history: List[Tuple[int, AgentLiveness]] = field(
        default_factory=list)
    cells: Dict[int, CellNode] = field(default_factory=dict)
    # Subframe-sync state: the last SubframeTrigger seen and when.
    last_sync_agent_tti: int = -1
    last_sync_rx_tti: int = -1
    last_events: List[Tuple[int, int, int]] = field(default_factory=list)

    @property
    def alive(self) -> bool:
        """Whether the master still considers the agent reachable."""
        return self.liveness is not AgentLiveness.DEAD

    def set_liveness(self, state: AgentLiveness, now: int) -> None:
        """RIB-Updater/master-only: record a liveness transition."""
        if state is self.liveness:
            return
        self.liveness = state
        self.liveness_history.append((now, state))

    def estimated_subframe(self, now: int) -> int:
        """Best estimate of the agent's current TTI.

        The last sync message carried the agent's TTI at send time; it
        aged by (now - receive time) while the master kept running.  As
        the paper notes, this estimate is outdated by the one-way
        delay.
        """
        if self.last_sync_agent_tti < 0:
            return now
        return self.last_sync_agent_tti + (now - self.last_sync_rx_tti)

    def all_ues(self) -> Iterator[UeNode]:
        for cell_id in sorted(self.cells):
            cell = self.cells[cell_id]
            for rnti in sorted(cell.ues):
                yield cell.ues[rnti]


class Rib:
    """The forest of agent -> cell -> UE nodes."""

    def __init__(self) -> None:
        self._agents: Dict[int, AgentNode] = {}

    def agent(self, agent_id: int) -> AgentNode:
        if agent_id not in self._agents:
            raise KeyError(f"agent {agent_id} is not in the RIB")
        return self._agents[agent_id]

    def get_or_create_agent(self, agent_id: int) -> AgentNode:
        """RIB-Updater-only: materialize an agent root node."""
        if agent_id not in self._agents:
            self._agents[agent_id] = AgentNode(agent_id=agent_id)
        return self._agents[agent_id]

    def remove_agent(self, agent_id: int) -> None:
        """Master-only: garbage-collect a dead agent's subtree."""
        self._agents.pop(agent_id, None)

    def agent_ids(self) -> List[int]:
        return sorted(self._agents)

    def agents(self) -> List[AgentNode]:
        return [self._agents[a] for a in self.agent_ids()]

    def all_ues(self) -> Iterator[Tuple[AgentNode, CellNode, UeNode]]:
        """Iterate over the whole forest in deterministic order."""
        for agent in self.agents():
            for cell_id in sorted(agent.cells):
                cell = agent.cells[cell_id]
                for rnti in sorted(cell.ues):
                    yield agent, cell, cell.ues[rnti]

    def ue_count(self) -> int:
        return sum(1 for _ in self.all_ues())

    def memory_footprint_bytes(self) -> int:
        """Approximate deep size of the RIB (the Fig. 8 memory series)."""
        return deep_size(self._agents)

"""RIB partitioning: assign agent+eNodeB groups to worker shards.

The RIB is a forest keyed by agent id and the single-writer
:class:`~repro.core.controller.rib_updater.RibUpdater` applies every
batch under one ``(agent, TTI)`` key, so agent subtrees never share
state.  That makes the agent the natural unit of partitioning: a shard
is a set of agents (with their eNodeBs, UEs and traffic) that one
worker process owns end to end, while the master keeps the only
cross-shard view.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple


@dataclass(frozen=True)
class ShardSpec:
    """One worker's slice of the deployment.

    ``agent_ids`` double as eNodeB ids (the repo-wide convention); the
    workload knobs mirror :func:`repro.sim.scenarios.large_scale` so a
    sharded run is the same deployment as the single-process scale
    bench, split across processes.
    """

    shard_id: int
    agent_ids: Tuple[int, ...]
    ues_per_enb: int = 25
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.agent_ids:
            raise ValueError(f"shard {self.shard_id} has no agents")
        if len(set(self.agent_ids)) != len(self.agent_ids):
            raise ValueError(
                f"shard {self.shard_id} has duplicate agents: "
                f"{self.agent_ids}")


def plan_shards(n_enbs: int, workers: int, *, ues_per_enb: int = 25,
                seed: int = 0) -> List[ShardSpec]:
    """Split agents ``1..n_enbs`` into *workers* contiguous shards.

    Contiguous blocks (not round-robin) keep a shard's agent ids
    adjacent, which makes logs and the master's sorted drain order
    line up with shard boundaries.  Sizes differ by at most one.
    """
    if n_enbs <= 0:
        raise ValueError(f"need at least one eNodeB, got {n_enbs}")
    if workers <= 0:
        raise ValueError(f"need at least one worker, got {workers}")
    if workers > n_enbs:
        raise ValueError(
            f"{workers} workers for {n_enbs} eNodeBs leaves empty shards")
    agent_ids = list(range(1, n_enbs + 1))
    base, extra = divmod(n_enbs, workers)
    shards: List[ShardSpec] = []
    cursor = 0
    for shard_id in range(workers):
        size = base + (1 if shard_id < extra else 0)
        shards.append(ShardSpec(
            shard_id=shard_id,
            agent_ids=tuple(agent_ids[cursor:cursor + size]),
            ues_per_enb=ues_per_enb, seed=seed))
        cursor += size
    return shards


@dataclass
class ShardMap:
    """Lookup helper: which shard owns which agent."""

    shards: List[ShardSpec] = field(default_factory=list)

    def owner(self, agent_id: int) -> ShardSpec:
        for shard in self.shards:
            if agent_id in shard.agent_ids:
                return shard
        raise KeyError(f"agent {agent_id} is not in any shard")

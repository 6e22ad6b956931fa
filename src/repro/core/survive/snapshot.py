"""Controller checkpoint-restore: RIB snapshots and cold restart.

The RIB is soft state: everything in it arrived from the agents and
can be re-learned, but a cold-started master that waits for organic
re-learning serves stale-free decisions only after every report cycle
has come around.  Following the controller-failover pattern of
ONOS/Onix (the agents -- like switches -- are the authoritative state
source), the master therefore periodically serializes the
agent -> cell -> UE forest plus its pending transaction state, and a
restarted master is seeded from the latest snapshot and then
*resynchronized* against the agents (full configuration re-request),
so the rebuilt RIB converges to eNodeB ground truth within a bounded
number of TTIs.

Snapshots are JSON-safe dicts.  The per-node configuration and
statistics records reuse the protocol wire codec (hex-encoded), so a
snapshot round-trips through ``json.dumps``/``json.loads`` without
loss and the restore path exercises the same decoders as the wire.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro import obs as _obs
from repro.core.controller.rib import (
    AgentLiveness,
    CellNode,
    Rib,
    UeNode,
)
from repro.core.protocol.messages import (
    CellConfigRep,
    CellStatsReport,
    UeConfigRep,
    UeStatsReport,
)
from repro.core.protocol.wire import Reader, Writer

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.controller.master import MasterController

SNAPSHOT_VERSION = 2
"""2: statistics records in stats-wire-v2 layout (group mask, ``rle``
vectors); a version-1 snapshot embeds records this codec cannot read
and is refused."""


def _enc(record) -> Optional[str]:
    """Wire-encode one report record as a hex string (None passes)."""
    if record is None:
        return None
    w = Writer()
    record.encode(w)
    return w.getvalue().hex()


def _dec(cls, data: Optional[str]):
    if data is None:
        return None
    return cls.decode(Reader(bytes.fromhex(data)))


# -- the forest -------------------------------------------------------------


def snapshot_rib(rib: Rib) -> List[dict]:
    """Serialize the agent -> cell -> UE forest, deterministically."""
    agents = []
    for agent in rib.agents():
        cells = []
        for cell_id in sorted(agent.cells):
            cell = agent.cells[cell_id]
            ues = []
            for rnti in sorted(cell.ues):
                ue = cell.ues[rnti]
                ues.append({
                    "rnti": ue.rnti,
                    "cell_id": ue.cell_id,
                    "config": _enc(ue.config),
                    "stats": _enc(ue.stats),
                    "stats_tti": ue.stats_tti,
                })
            cells.append({
                "cell_id": cell.cell_id,
                "config": _enc(cell.config),
                "stats": _enc(cell.stats),
                "stats_tti": cell.stats_tti,
                "ues": ues,
            })
        agents.append({
            "agent_id": agent.agent_id,
            "enb_id": agent.enb_id,
            "capabilities": list(agent.capabilities),
            "connected_tti": agent.connected_tti,
            "last_heard_tti": agent.last_heard_tti,
            "liveness": agent.liveness.value,
            "last_sync_agent_tti": agent.last_sync_agent_tti,
            "last_sync_rx_tti": agent.last_sync_rx_tti,
            "cells": cells,
        })
    return agents


def restore_rib(agents: List[dict]) -> Rib:
    """Rebuild a RIB forest from :func:`snapshot_rib` output."""
    rib = Rib()
    for rec in agents:
        node = rib.get_or_create_agent(int(rec["agent_id"]))
        node.enb_id = int(rec["enb_id"])
        node.capabilities = list(rec["capabilities"])
        node.connected_tti = int(rec["connected_tti"])
        node.last_heard_tti = int(rec["last_heard_tti"])
        node.liveness = AgentLiveness(rec["liveness"])
        node.last_sync_agent_tti = int(rec["last_sync_agent_tti"])
        node.last_sync_rx_tti = int(rec["last_sync_rx_tti"])
        for cell_rec in rec["cells"]:
            cell = CellNode(cell_id=int(cell_rec["cell_id"]))
            cell.config = _dec(CellConfigRep, cell_rec["config"])
            cell.stats = _dec(CellStatsReport, cell_rec["stats"])
            cell.stats_tti = int(cell_rec["stats_tti"])
            for ue_rec in cell_rec["ues"]:
                ue = UeNode(rnti=int(ue_rec["rnti"]),
                            cell_id=int(ue_rec["cell_id"]))
                ue.config = _dec(UeConfigRep, ue_rec["config"])
                ue.stats = _dec(UeStatsReport, ue_rec["stats"])
                ue.stats_tti = int(ue_rec["stats_tti"])
                cell.ues[ue.rnti] = ue
            node.cells[cell.cell_id] = cell
    return rib


def snapshot_rib_subset(rib: Rib, agent_ids) -> List[dict]:
    """Serialize only the subtrees of *agent_ids* (a shard's slice).

    Because the RIB is a forest keyed by agent and the single-writer
    updater applies batches per agent, an agent subtree is a complete,
    self-contained unit of state -- this is the shard-handoff payload
    the cluster runtime ships when rebalancing or respawning workers.
    """
    wanted = {int(a) for a in agent_ids}
    return [rec for rec in snapshot_rib(rib)
            if int(rec["agent_id"]) in wanted]


def merge_rib_subset(rib: Rib, agents: List[dict]) -> List[int]:
    """Graft snapshot subtrees into an existing RIB, replacing any
    current subtree of the same agent.  Returns the merged agent ids.

    The inverse of :func:`snapshot_rib_subset`: after a shard respawn
    the master merges the pre-failure subtrees back so it serves a
    warm view while :meth:`MasterController.resync` re-requests the
    authoritative state from the returning agents.
    """
    restored = restore_rib(agents)
    merged: List[int] = []
    for node in restored.agents():
        rib._agents[node.agent_id] = node
        merged.append(node.agent_id)
    return merged


# -- whole-master snapshots -------------------------------------------------


def snapshot_master(master: "MasterController", now: int) -> dict:
    """Checkpoint: the RIB forest plus pending transaction state."""
    return {
        "version": SNAPSHOT_VERSION,
        "tti": now,
        "xid": master._xid,
        "agents": snapshot_rib(master.rib),
        # Pending per-agent transactions (stored as pair lists so the
        # snapshot survives JSON, which stringifies dict keys).
        "last_echo_sent": sorted(master._last_echo_sent.items()),
        "last_config_request": sorted(master._last_config_request.items()),
    }


def restore_master(master: "MasterController", snapshot: dict) -> None:
    """Seed a (fresh) master from a checkpoint.

    Restores the RIB forest and the transaction counters -- the xid
    counter continues past the snapshot so correlation never sees a
    reused transaction id.  Call :meth:`MasterController.resync`
    afterwards to re-request authoritative state from the agents.
    """
    if snapshot.get("version") != SNAPSHOT_VERSION:
        raise ValueError(
            f"unsupported snapshot version {snapshot.get('version')!r}")
    master.rib = restore_rib(snapshot["agents"])
    master.updater._rib = master.rib
    master._xid = max(master._xid, int(snapshot["xid"]))
    master._last_echo_sent = {int(k): int(v)
                              for k, v in snapshot["last_echo_sent"]}
    master._last_config_request = {
        int(k): int(v) for k, v in snapshot["last_config_request"]}
    master.restored_from_tti = int(snapshot["tti"])
    ob = _obs.live
    if ob is not None:
        ob.registry.counter("survive.restore.performed").inc()


CHECKPOINTS_KEPT = 4
"""Length of the checkpoint ring: older snapshots are dropped."""


class CheckpointStore:
    """Bounded ring of periodic master checkpoints."""

    def __init__(self, period_ttis: int) -> None:
        if period_ttis <= 0:
            raise ValueError(
                f"checkpoint period must be positive, got {period_ttis}")
        self.period_ttis = period_ttis
        self._snapshots: List[dict] = []
        self.taken = 0

    def maybe_take(self, master: "MasterController", now: int) -> None:
        if now % self.period_ttis == 0:
            self.take(master, now)

    def take(self, master: "MasterController", now: int) -> dict:
        snapshot = snapshot_master(master, now)
        self._snapshots.append(snapshot)
        del self._snapshots[:-CHECKPOINTS_KEPT]
        self.taken += 1
        ob = _obs.live
        if ob is not None:
            ob.registry.counter("survive.checkpoint.taken").inc()
            ob.registry.gauge("survive.checkpoint.last_tti").set(now)
        return snapshot

    def latest(self) -> Optional[dict]:
        return self._snapshots[-1] if self._snapshots else None

# -- ground truth -----------------------------------------------------------


def rib_ground_truth_diff(rib: Rib, enbs_by_agent: Dict[int, object]
                          ) -> List[str]:
    """Compare the RIB forest against live eNodeB ground truth.

    *enbs_by_agent* maps agent id -> :class:`~repro.lte.enodeb.EnodeB`.
    Returns a list of human-readable discrepancies (empty = the RIB
    has converged to the authoritative agent-side state): missing
    agents, wrong eNodeB ids, missing/extra cells, UE set mismatches.
    """
    diffs: List[str] = []
    for agent_id in sorted(enbs_by_agent):
        enb = enbs_by_agent[agent_id]
        try:
            node = rib.agent(agent_id)
        except KeyError:
            diffs.append(f"agent {agent_id}: missing from RIB")
            continue
        if node.enb_id != enb.enb_id:
            diffs.append(f"agent {agent_id}: enb_id {node.enb_id} != "
                         f"{enb.enb_id}")
        truth_cells = set(enb.cells)
        rib_cells = set(node.cells)
        if rib_cells != truth_cells:
            diffs.append(f"agent {agent_id}: cells {sorted(rib_cells)} != "
                         f"{sorted(truth_cells)}")
        for cell_id in sorted(truth_cells & rib_cells):
            truth_rntis = set(enb.cells[cell_id].ues)
            rib_rntis = set(node.cells[cell_id].ues)
            if rib_rntis != truth_rntis:
                diffs.append(
                    f"agent {agent_id} cell {cell_id}: UEs "
                    f"{sorted(rib_rntis)} != {sorted(truth_rntis)}")
    return diffs

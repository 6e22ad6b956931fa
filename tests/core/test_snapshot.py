"""Tests of RIB checkpointing, restore and restart determinism."""

import json

import pytest

from repro.core.controller.master import MasterController
from repro.core.protocol.messages import UeStatsReport
from repro.core.survive.snapshot import (
    CHECKPOINTS_KEPT,
    SNAPSHOT_VERSION,
    CheckpointStore,
    restore_master,
    restore_rib,
    rib_ground_truth_diff,
    snapshot_master,
    snapshot_rib,
)
from repro.lte.phy.channel import FixedCqi
from repro.lte.ue import Ue
from repro.sim.simulation import Simulation
from repro.traffic.generators import SaturatingSource


def populated_sim(*, checkpoint_period_ttis=None):
    master = MasterController(
        checkpoint_period_ttis=checkpoint_period_ttis)
    sim = Simulation(master=master)
    enb = sim.add_enb()
    agent = sim.add_agent(enb)
    for i in range(3):
        ue = Ue(f"00{i:03d}", FixedCqi(12))
        sim.add_ue(enb, ue)
        sim.add_downlink_traffic(enb, ue, SaturatingSource(start_tti=10))
    sim.master.northbound  # touch, keeps flake checkers quiet
    return sim, enb, agent


class TestSnapshotRoundTrip:
    def test_json_round_trip_preserves_forest(self):
        sim, _, _ = populated_sim()
        sim.run(300)
        rib = sim.master.rib
        assert rib.ue_count() == 3
        snap = snapshot_rib(rib)
        # The snapshot survives JSON serialization without loss.
        rebuilt = restore_rib(json.loads(json.dumps(snap)))
        assert snapshot_rib(rib) == snapshot_rib(rebuilt)
        # Deep content survived too, not just the topology.
        node = rebuilt.agent(1)
        assert node.cells[next(iter(node.cells))].config is not None

    def test_snapshots_hold_complete_records(self):
        """The RIB merges group deltas as they arrive; what a snapshot
        embeds is the merged record, every group present."""
        sim, _, agent = populated_sim()
        sim.run(20)
        sim.master.northbound.request_stats(agent.agent_id, period_ttis=5)
        sim.run(280)
        rebuilt = restore_rib(json.loads(json.dumps(
            snapshot_rib(sim.master.rib))))
        assert snapshot_rib(sim.master.rib) == snapshot_rib(rebuilt)
        stats = [ue.stats for ue in rebuilt.agent(1).all_ues()]
        assert len(stats) == 3
        for record in stats:
            assert record.groups == UeStatsReport.ALL_GROUPS
            assert record.wb_cqi == 12 and record.harq_states
            assert record.rlc_bytes_in and record.rx_bytes_total

    def test_a_version_1_snapshot_is_refused(self):
        """Version 1 hex-embedded stats records in the retired wire
        layout, which this codec would misread; the version check turns
        that into a refusal before any record is decoded."""
        sim, _, _ = populated_sim()
        sim.run(100)
        snapshot = snapshot_master(sim.master, sim.now)
        assert snapshot["version"] == SNAPSHOT_VERSION == 2
        stale = json.loads(json.dumps(snapshot))
        stale["version"] = 1
        fresh = MasterController()
        with pytest.raises(ValueError, match="unsupported snapshot version 1"):
            restore_master(fresh, stale)
        assert fresh.rib.ue_count() == 0        # nothing was restored
        restore_master(fresh, json.loads(json.dumps(snapshot)))
        assert snapshot_rib(fresh.rib) == snapshot_rib(sim.master.rib)

    def test_forest_inequality_detected(self):
        sim, _, _ = populated_sim()
        sim.run(300)
        rebuilt = restore_rib(snapshot_rib(sim.master.rib))
        rebuilt.agent(1).cells.popitem()
        assert snapshot_rib(sim.master.rib) != snapshot_rib(rebuilt)

    def test_checkpoint_store_ring(self):
        sim, _, _ = populated_sim(checkpoint_period_ttis=50)
        sim.run(400)
        store = sim.master.checkpoints
        assert store.taken >= 7
        assert len(store._snapshots) == CHECKPOINTS_KEPT
        latest = store.latest()
        assert latest["tti"] % 50 == 0
        assert latest["xid"] == sim.master._xid


class TestRestartDeterminism:
    def test_restored_rib_matches_ground_truth(self):
        sim, enb, agent = populated_sim(checkpoint_period_ttis=100)
        sim.run(1000)
        latest = sim.master.checkpoints.latest()
        # A bare respawn restores the checkpointed forest exactly
        # (resync then refreshes the liveness grace, below).
        bare = sim.master.respawn(now=sim.now, restore=True)
        # Ticks ran for TTIs 0..999, so the last checkpoint is at 900.
        assert bare.restored_from_tti == latest["tti"] == 900
        assert snapshot_rib(bare.rib) == latest["agents"]
        new_master = sim.restart_master(restore=True)
        assert new_master is sim.master
        assert new_master.restored_from_tti == 900
        # After the resync round-trips, the RIB matches ground truth.
        sim.run(500)
        diffs = rib_ground_truth_diff(new_master.rib,
                                      {agent.agent_id: enb})
        assert diffs == []

    def test_cold_restart_without_restore_relearns(self):
        sim, enb, agent = populated_sim(checkpoint_period_ttis=100)
        sim.run(1000)
        new_master = sim.restart_master(restore=False)
        assert new_master.restored_from_tti == -1
        # Resync re-learns everything from the (authoritative) agent.
        sim.run(500)
        diffs = rib_ground_truth_diff(new_master.rib,
                                      {agent.agent_id: enb})
        assert diffs == []

    def test_xid_continues_past_snapshot(self):
        sim, _, _ = populated_sim(checkpoint_period_ttis=100)
        sim.run(1000)
        xid_before = sim.master._xid
        new_master = sim.restart_master(restore=True)
        # Transaction ids never regress across a restore: correlation
        # must not see a reused xid.
        assert new_master._xid >= xid_before

    def test_store_validation(self):
        import pytest
        with pytest.raises(ValueError):
            CheckpointStore(0)

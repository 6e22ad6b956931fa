"""Snapshot portability: subset handoff and cross-process restore.

The cluster runtime ships RIB subtrees between processes -- a shard
respawn snapshots the dead worker's agents and merges them back after
the replacement spawns.  These tests pin the two properties that makes
safe: agent subtrees are self-contained (subset snapshot/merge), and a
snapshot serialized in one interpreter restores losslessly in a fresh
one (``multiprocessing`` spawn workers share no memory with the
master).
"""

import json
import os
import subprocess
import sys

from repro.core.controller.master import MasterController
from repro.core.survive.snapshot import (
    merge_rib_subset,
    restore_rib,
    rib_forest_equal,
    snapshot_master,
    snapshot_rib,
    snapshot_rib_subset,
)
from repro.lte.phy.channel import FixedCqi
from repro.lte.ue import Ue
from repro.sim.simulation import Simulation
from repro.traffic.generators import CbrSource


def _populated_sim(n_enbs=3):
    sim = Simulation(with_master=True)
    for e in range(n_enbs):
        enb = sim.add_enb(seed=e)
        sim.add_agent(enb)
        for i in range(2):
            ue = Ue(f"{e:02d}{i:04d}", FixedCqi(10))
            sim.add_ue(enb, ue)
            sim.add_downlink_traffic(enb, ue, CbrSource(1.0, start_tti=20))
    sim.run(300)
    return sim


class TestSubsetHandoff:
    def test_subset_selects_only_wanted_agents(self):
        sim = _populated_sim()
        subset = snapshot_rib_subset(sim.master.rib, [1, 3])
        assert sorted(rec["agent_id"] for rec in subset) == [1, 3]
        full = {rec["agent_id"]: rec for rec in snapshot_rib(sim.master.rib)}
        for rec in subset:
            assert rec == full[rec["agent_id"]]

    def test_merge_grafts_into_existing_forest(self):
        sim = _populated_sim()
        rib = sim.master.rib
        subset = snapshot_rib_subset(rib, [2])
        # Simulate the respawn path: drop the subtree, merge it back.
        before = snapshot_rib(rib)
        rib.remove_agent(2)
        assert 2 not in rib.agent_ids()
        merged = merge_rib_subset(rib, subset)
        assert merged == [2]
        assert snapshot_rib(rib) == before

    def test_merge_replaces_stale_subtree(self):
        sim = _populated_sim()
        rib = sim.master.rib
        subset = snapshot_rib_subset(rib, [1])
        # Corrupt the live subtree, then merge the snapshot over it.
        rib.agent(1).cells.clear()
        merge_rib_subset(rib, subset)
        assert rib.agent(1).cells


class TestCrossProcessRestore:
    """Serialize here, restore in a freshly spawned interpreter."""

    _CHILD = (
        "import json, sys\n"
        "from repro.core.controller.master import MasterController\n"
        "from repro.core.survive.snapshot import (\n"
        "    restore_master, snapshot_master)\n"
        "snapshot = json.load(sys.stdin)\n"
        "master = MasterController()\n"
        "restore_master(master, snapshot)\n"
        "json.dump(snapshot_master(master, snapshot['tti']), sys.stdout)\n"
    )

    def test_snapshot_survives_process_boundary(self):
        sim = _populated_sim()
        snapshot = snapshot_master(sim.master, sim.now)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", self._CHILD],
            input=json.dumps(snapshot), capture_output=True,
            text=True, env=env, cwd=os.path.dirname(
                os.path.dirname(os.path.dirname(__file__))),
            timeout=60)
        assert proc.returncode == 0, proc.stderr
        echoed = json.loads(proc.stdout)
        # The forest the child rebuilt is bit-identical to ours.
        assert echoed["agents"] == snapshot["agents"]
        assert rib_forest_equal(
            restore_rib(echoed["agents"]), sim.master.rib)
        # Transaction state crossed over too: the child's xid counter
        # continued from (not behind) the snapshot.
        assert echoed["xid"] >= snapshot["xid"]
        assert echoed["last_echo_sent"] == snapshot["last_echo_sent"]

    def test_restore_into_fresh_master_in_process(self):
        """Control for the subprocess test: same restore, same
        interpreter -- isolates any failure to the process boundary."""
        from repro.core.survive.snapshot import restore_master
        sim = _populated_sim()
        snapshot = json.loads(
            json.dumps(snapshot_master(sim.master, sim.now)))
        fresh = MasterController()
        restore_master(fresh, snapshot)
        assert rib_forest_equal(fresh.rib, sim.master.rib)

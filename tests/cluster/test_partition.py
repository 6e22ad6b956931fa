"""Tests for shard planning (repro.cluster.partition)."""

import pytest

from repro.cluster.partition import ShardMap, ShardSpec, plan_shards
from repro.cluster.worker import WorkerSpec, build_shard_sim
from repro.net.link import EmulatedLink
from repro.net.tcp import TcpEndpoint, TcpTransportServer
from repro.sim.scenarios import large_scale


class TestPlanShards:
    def test_even_split(self):
        shards = plan_shards(8, 4, ues_per_enb=10)
        assert [s.agent_ids for s in shards] == [
            (1, 2), (3, 4), (5, 6), (7, 8)]

    def test_uneven_split_balanced(self):
        shards = plan_shards(7, 3, ues_per_enb=10)
        sizes = [len(s.agent_ids) for s in shards]
        assert sizes == [3, 2, 2]
        assert sorted(a for s in shards for a in s.agent_ids) == list(
            range(1, 8))

    def test_single_worker_owns_everything(self):
        (shard,) = plan_shards(5, 1, ues_per_enb=10)
        assert shard.agent_ids == (1, 2, 3, 4, 5)

    def test_more_workers_than_enbs_rejected(self):
        with pytest.raises(ValueError, match="empty shards"):
            plan_shards(2, 3)

    def test_workload_knobs_propagate(self):
        shards = plan_shards(4, 2, ues_per_enb=33, load_factor=0.5,
                             seed=7)
        for shard in shards:
            assert shard.ues_per_enb == 33
            assert shard.load_factor == 0.5
            assert shard.seed == 7

    def test_empty_shard_spec_rejected(self):
        with pytest.raises(ValueError, match="no agents"):
            ShardSpec(shard_id=0, agent_ids=())

    def test_duplicate_agents_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ShardSpec(shard_id=0, agent_ids=(1, 1))


class TestShardMap:
    def test_owner_lookup(self):
        shard_map = ShardMap(plan_shards(6, 3))
        assert shard_map.owner(1).shard_id == 0
        assert shard_map.owner(4).shard_id == 1
        assert shard_map.owner(6).shard_id == 2

    def test_unknown_agent(self):
        shard_map = ShardMap(plan_shards(4, 2))
        with pytest.raises(KeyError):
            shard_map.owner(99)

    def test_all_agent_ids(self):
        shard_map = ShardMap(plan_shards(5, 2))
        assert shard_map.all_agent_ids() == [1, 2, 3, 4, 5]


def cell_population(sim, enb_ids):
    """Per flow: everything the scale populator decides."""
    return [(f.enb.enb_id, f.enb.ue(f.rnti).channel.cqi(0),
             f.source.rate_mbps, f.source._credit_bytes)
            for f in sim.epc._downlink if f.enb.enb_id in enb_ids]


def test_shard_cells_match_the_single_process_deployment():
    """The second shard of a 4-eNodeB fleet carries eNodeBs 3 and 4 as
    ``large_scale`` populates them, CBR phase spread included (a
    shard's flows used to start in lockstep)."""
    whole = large_scale(n_enbs=4, ues_per_enb=6)
    shard = plan_shards(4, 2, ues_per_enb=6)[1]
    server = TcpTransportServer(
        endpoint_factory=lambda agent_id: TcpEndpoint(
            EmulatedLink(), EmulatedLink(), streaming=True))
    host, port = server.start()
    try:
        # The listener's backlog completes the dials; nobody has to
        # pump the server for a shard to be built.
        sim, endpoints = build_shard_sim(WorkerSpec(
            shard=shard, host=host, port=port, total_ttis=0))
    finally:
        server.stop()
    for endpoint in endpoints:
        endpoint.close()
    sliced = cell_population(sim, shard.agent_ids)
    assert sliced == cell_population(whole.sim, shard.agent_ids)
    assert len({credit for *_, credit in sliced}) == 12

"""Transport conformance: emulated vs real-TCP, same observables.

The acceptance bar for the TCP transport is that a scenario run over
it produces the *same Tier-1-observable results* as over the emulated
links -- message counts, byte accounting, fault outcomes, RIB contents
and obs instrumentation, TTI for TTI.  These tests run the same
deployment on both transports and compare fingerprints, on the default
(real-time) master: no decision in it reads the wall clock.
"""

import pytest

from repro import obs
from repro.core.apps.remote_scheduler import RemoteSchedulerApp
from repro.core.survive.snapshot import snapshot_rib
from repro.lte.phy.channel import FixedCqi
from repro.lte.ue import Ue
from repro.sim.scenarios import FaultSpec
from repro.sim.simulation import Simulation
from repro.traffic.generators import CbrSource


def _build(transport, *, n_enbs=2, ues_per_enb=3, rtt_ms=2.0,
           schedule_ahead=4):
    sim = Simulation(with_master=True, transport=transport)
    sim.master.add_app(RemoteSchedulerApp(schedule_ahead=schedule_ahead))
    for e in range(n_enbs):
        enb = sim.add_enb(seed=e)
        agent = sim.add_agent(enb, rtt_ms=rtt_ms)
        agent.mac.activate("dl_scheduling", "remote_stub")
        for i in range(ues_per_enb):
            ue = Ue(f"{e:02d}{i:04d}", FixedCqi(12))
            sim.add_ue(enb, ue)
            sim.add_downlink_traffic(enb, ue, CbrSource(2.0, start_tti=30))
    return sim


def _fingerprint(sim):
    """Every Tier-1 observable of a run, as one comparable structure."""
    links = {}
    for agent_id in sorted(sim.connections):
        conn = sim.connections[agent_id]
        for name, link in (("ul", conn.channel.uplink),
                           ("dl", conn.channel.downlink)):
            links[f"{agent_id}.{name}"] = {
                "total_messages": link.total_messages,
                "total_bytes": link.total_bytes,
                "delivered": link.delivered_messages,
                "dropped": link.dropped_messages,
                "categories": {c: k.bytes
                               for c, k in sorted(link.counters.items())},
            }
    return {
        "links": links,
        "endpoint_counts": {
            agent_id: (conn.agent_side.sent_messages,
                       conn.agent_side.received_messages,
                       conn.master_side.sent_messages,
                       conn.master_side.received_messages)
            for agent_id, conn in sorted(sim.connections.items())},
        "rib": snapshot_rib(sim.master.rib),
        "xid": sim.master._xid,
        "flows": [(f.rnti, f.stats.offered_bytes, f.stats.accepted_bytes,
                   f.stats.dropped_bytes)
                  for f in sim.epc._downlink],
    }


def _run(transport, *, fault=None, ttis=300, **kwargs):
    sim = _build(transport, **kwargs)
    try:
        if fault is not None:
            fault.apply(sim.connections[1])
        sim.run(ttis)
        return _fingerprint(sim)
    finally:
        sim.close()


class TestConformance:
    def test_clean_run_identical(self):
        assert _run("emulated") == _run("tcp")

    def test_zero_rtt_identical(self):
        assert _run("emulated", rtt_ms=0.0) == _run("tcp", rtt_ms=0.0)

    def test_loss_and_jitter_identical(self):
        fault = FaultSpec(loss=0.1, jitter_ms=3.0)
        assert (_run("emulated", fault=fault)
                == _run("tcp", fault=fault))

    def test_partition_identical(self):
        fault = FaultSpec(partitions=[(60, 160)])
        assert (_run("emulated", fault=fault)
                == _run("tcp", fault=fault))

    def test_runtime_rtt_change_identical(self):
        def run(transport):
            sim = _build(transport)
            try:
                sim.run(100)
                sim.connections[1].set_rtt_ms(8.0)
                sim.run(100)
                return _fingerprint(sim)
            finally:
                sim.close()
        assert run("emulated") == run("tcp")

    def test_restart_master_identical(self):
        """Checkpoint-restore respawn works over either transport."""
        def run(transport):
            sim = _build(transport)
            try:
                sim.master.checkpoints = None  # cold restart, no seed
                sim.run(120)
                sim.restart_master(restore=False)
                sim.run(180)
                return _fingerprint(sim)
            finally:
                sim.close()
        emulated, tcp = run("emulated"), run("tcp")
        assert emulated["links"] == tcp["links"]
        assert emulated["rib"] == tcp["rib"]


class TestObsConformance:
    """The obs instruments must fire identically on both transports."""

    @pytest.fixture(autouse=True)
    def _reset_obs(self):
        yield
        obs.disable()

    def _run_with_obs(self, transport):
        with obs.enabled_scope(trace=False) as ob:
            _run(transport, ttis=120)
            correlator = ob.correlator
            return {
                "tx": ob.registry.counter("net.tx.messages").value,
                "rx": ob.registry.counter("net.rx.messages").value,
                "tx_bytes": ob.registry.counter("net.tx.bytes").value,
                "rx_bytes": ob.registry.counter("net.rx.bytes").value,
                "records": len(correlator.records()),
                "latencies": sorted(correlator.latencies()),
            }

    def test_xid_lifecycle_identical(self):
        assert (self._run_with_obs("emulated")
                == self._run_with_obs("tcp"))

"""Link conservation: every offered byte is delivered, dropped, or in flight."""

from repro import obs
from repro.lte.phy.channel import FixedCqi
from repro.lte.ue import Ue
from repro.net.link import DuplexChannel, EmulatedLink
from repro.sim.simulation import Simulation
from repro.traffic.generators import CbrSource


def assert_conserved(link: EmulatedLink) -> None:
    assert link.offered_bytes == (link.delivered_bytes + link.dropped_bytes
                                  + link.in_flight_bytes())
    assert link.offered_messages == (link.delivered_messages
                                     + link.dropped_messages
                                     + link.in_flight())


class TestLinkAccounting:
    def test_clean_link_conserves(self):
        link = EmulatedLink(one_way_latency_ms=3.0)
        for tti in range(50):
            link.send(f"m{tti}", 100, now=tti)
            link.deliver_due(tti)
        assert_conserved(link)
        assert link.dropped_bytes == 0
        assert link.in_flight() == 3  # latency keeps 3 TTIs of data airborne

    def test_random_loss_conserves(self):
        link = EmulatedLink(one_way_latency_ms=2.0, seed=7)
        link.set_loss(0.3)
        for tti in range(400):
            link.send(f"m{tti}", 50 + tti % 17, now=tti)
            link.deliver_due(tti)
        assert link.dropped_messages > 0
        assert link.delivered_messages > 0
        assert_conserved(link)

    def test_partition_drops_in_flight_and_conserves(self):
        link = EmulatedLink(one_way_latency_ms=5.0)
        link.fail_at(20)
        link.heal_at(40)
        for tti in range(80):
            link.send(f"m{tti}", 200, now=tti)
            link.deliver_due(tti)
        # Offers during [20, 40) plus in-flight data at the failure
        # instant are lost.
        assert link.dropped_messages >= 20
        assert_conserved(link)

    def test_conservation_after_drain(self):
        link = EmulatedLink(one_way_latency_ms=10.0, seed=3)
        link.set_loss(0.1)
        for tti in range(100):
            link.send(f"m{tti}", 64, now=tti)
        link.deliver_due(500)  # drain everything still airborne
        assert link.in_flight() == 0
        assert link.offered_bytes == link.delivered_bytes + link.dropped_bytes


class TestChannelUnderFaults:
    def test_duplex_partition_window(self):
        channel = DuplexChannel(rtt_ms=10.0)
        channel.partition(30, 60)
        for tti in range(120):
            channel.uplink.send(f"u{tti}", 80, now=tti)
            channel.downlink.send(f"d{tti}", 120, now=tti)
            channel.uplink.deliver_due(tti)
            channel.downlink.deliver_due(tti)
        for link in channel.links:
            assert link.dropped_messages > 0
            assert_conserved(link)


class TestSimConservation:
    def test_agented_sim_with_loss_conserves_and_correlates(self):
        """tx accounting holds end-to-end under injected loss."""
        sim = Simulation(with_master=True)
        enb = sim.add_enb()
        agent = sim.add_agent(enb, rtt_ms=6)
        ue = Ue("001", FixedCqi(10))
        sim.add_ue(enb, ue)
        sim.add_downlink_traffic(enb, ue, CbrSource(1.0))
        connection = sim.connections[agent.agent_id]
        connection.channel.set_loss(0.2)
        with obs.enabled_scope(trace=False) as ob:
            sim.run(800)
            for link in connection.channel.links:
                assert_conserved(link)
                assert link.dropped_messages > 0
            # The correlator saw the same wire drops the link counted.
            assert ob.correlator.dropped_messages > 0
            assert ob.correlator.dropped_messages <= (
                sum(link.dropped_messages
                    for link in connection.channel.links))

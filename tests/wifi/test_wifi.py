"""Tests for the Wi-Fi substrate and the technology-agnostic agent."""

import pytest

from repro.core.policy import build_policy
from repro.core.protocol.messages import (
    ConfigRequest,
    Header,
    PolicyReconfiguration,
    ReportType,
    StatsReply,
    StatsRequest,
    ConfigReply,
    Hello,
)
from repro.core.controller import MasterController
from repro.net.transport import ControlConnection
from repro.sim.scenarios import wifi_sdran
from repro.wifi.agent import WifiAgent
from repro.wifi.ap import Station, WifiAp, phy_rate_mbps


def make_ap(snrs=(60.0, 20.0)):
    ap = WifiAp(1)
    stations = [Station(mac=f"02:00:00:00:00:0{i}", snr_db=snr)
                for i, snr in enumerate(snrs)]
    for s in stations:
        ap.associate(s)
    return ap, stations


def saturate(ap, stations, slots=2000, per_slot_bytes=8000):
    for t in range(slots):
        for s in stations:
            ap.enqueue(s.aid, per_slot_bytes, t)
        ap.tick(t)


class TestPhyRates:
    def test_rate_monotone_in_snr(self):
        rates = [phy_rate_mbps(snr) for snr in (0, 10, 20, 40, 70)]
        assert rates == sorted(rates)

    def test_out_of_range_snr_gets_zero(self):
        assert phy_rate_mbps(3.0) == 0.0

    def test_top_mcs(self):
        assert phy_rate_mbps(70.0) == 65.0


class TestWifiAp:
    def test_association_assigns_aids(self):
        ap, stations = make_ap()
        assert [s.aid for s in stations] == [1, 2]
        assert ap.stations_by_aid() == stations

    def test_fair_airtime_shares_slots(self):
        ap, stations = make_ap(snrs=(60.0, 60.0))
        saturate(ap, stations)
        rates = [s.meter.rate_mbps(1999) for s in stations]
        assert rates[0] == pytest.approx(rates[1], rel=0.05)

    def test_airtime_fairness_favours_fast_station_in_throughput(self):
        # Equal airtime, unequal rates: the fast station gets more bits.
        ap, stations = make_ap(snrs=(60.0, 15.0))
        saturate(ap, stations)
        assert (stations[0].meter.total_bytes
                > 2 * stations[1].meter.total_bytes)

    def test_idle_slots_counted(self):
        ap, stations = make_ap()
        for t in range(100):
            ap.tick(t)
        assert ap.slots_idle == 100
        assert ap.slots_served == 0

    def test_contention_reduces_efficiency(self):
        def run(n_stations):
            ap = WifiAp(1)
            stations = [Station(mac=f"02::{i}", snr_db=60.0)
                        for i in range(n_stations)]
            for s in stations:
                ap.associate(s)
            saturate(ap, stations, slots=2000)
            return ap.delivered_bytes

        single = run(1)
        crowded = run(8)
        assert crowded < single  # aggregate suffers under contention


class TestWifiAgent:
    def wired(self):
        ap, stations = make_ap(snrs=(60.0, 20.0))
        conn = ControlConnection()
        agent = WifiAgent(1, ap, endpoint=conn.agent_side)
        return ap, stations, agent, conn

    def test_hello_announces_wifi_capability(self):
        ap, stations, agent, conn = self.wired()
        agent.tick_tx(0)
        hello = [m for m in conn.master_side.receive(now=0)
                 if isinstance(m, Hello)][0]
        assert hello.capabilities == ["wifi_mac"]

    def test_stats_reporting_reuses_protocol(self):
        ap, stations, agent, conn = self.wired()
        conn.master_side.send(StatsRequest(
            header=Header(xid=1), report_type=int(ReportType.PERIODIC),
            period_ttis=1), now=0)
        agent.tick_rx(0)
        agent.tick_tx(0)
        reply = [m for m in conn.master_side.receive(now=0)
                 if isinstance(m, StatsReply)][0]
        assert len(reply.ue_reports) == 2
        # MCS index rides the CQI field; SNR rides the SINR field.
        assert reply.ue_reports[0].wb_cqi == 7
        assert reply.ue_reports[0].subband_sinr_db_x10 == [600]

    def test_config_reply_lists_stations(self):
        ap, stations, agent, conn = self.wired()
        conn.master_side.send(ConfigRequest(header=Header(xid=4)), now=0)
        agent.tick_rx(0)
        reply = [m for m in conn.master_side.receive(now=0)
                 if isinstance(m, ConfigReply)][0]
        assert [u.rnti for u in reply.ues] == [1, 2]
        assert reply.ues[0].imsi.startswith("02:")

    def test_policy_reconfiguration_swaps_wifi_vsf(self):
        """The paper's §7.2 point: the *same* policy mechanism drives a
        different technology's control module."""
        ap, stations, agent, conn = self.wired()
        assert agent.mac.active_name("station_scheduling") == "fair_airtime"
        conn.master_side.send(PolicyReconfiguration(text=build_policy(
            "wifi_mac", "station_scheduling", behavior="max_rate")), now=0)
        agent.tick_rx(0)
        assert agent.mac.active_name("station_scheduling") == "max_rate"

    def test_max_rate_vsf_starves_slow_station(self):
        ap, stations, agent, conn = self.wired()
        conn.master_side.send(PolicyReconfiguration(text=build_policy(
            "wifi_mac", "station_scheduling", behavior="max_rate")), now=0)
        agent.tick_rx(0)
        saturate(ap, stations, slots=1000)
        assert stations[0].meter.total_bytes > 0
        assert stations[1].meter.total_bytes == 0

    def test_unknown_module_in_policy_rejected(self):
        ap, stations, agent, conn = self.wired()
        conn.master_side.send(PolicyReconfiguration(text=build_policy(
            "pdcp", "x", behavior="y")), now=0)
        agent.tick_rx(0)  # "no PDCP module for WiFi", literally
        # Counted at the dispatch boundary, not unwound through the RX
        # tick: the control channel stays up.
        assert agent.dispatch_errors == 1
        assert agent.messages_handled == 0


class TestOnTheSimulationClock:
    """``Simulation.add_ap`` runs the AP in the phase order of the hand
    slot loop below (traffic, agent TX, master, agent RX, AP slot), on
    either transport."""

    SLOTS = 3000

    @staticmethod
    def reference(slots):
        """The ``wifi_sdran`` deployment driven by a hand-written slot
        loop: per-station bytes after each phase, reports sent, RIB
        station count and active VSF."""
        ap = WifiAp(1)
        stations = [Station(mac="02:00:00:00:00:01", snr_db=60.0),
                    Station(mac="02:00:00:00:00:02", snr_db=15.0)]
        for s in stations:
            ap.associate(s)
        conn = ControlConnection()
        master = MasterController()
        master.connect_agent(1, conn.master_side)
        agent = WifiAgent(1, ap, endpoint=conn.agent_side)
        master.northbound.request_stats(
            1, report_type=ReportType.PERIODIC, period_ttis=100)
        phases = []
        for phase in range(2):
            if phase:
                master.northbound.reconfigure_vsf(
                    1, "wifi_mac", "station_scheduling",
                    behavior="max_rate")
            for t in range(phase * slots, (phase + 1) * slots):
                for s in stations:
                    ap.enqueue(s.aid, 6000, t)
                agent.tick_tx(t)
                master.tick(t)
                agent.tick_rx(t)
                ap.tick(t)
            phases.append([s.meter.total_bytes for s in stations])
        return (phases, agent.reports.reports_sent, master.rib.ue_count(),
                agent.mac.active_name("station_scheduling"))

    @pytest.mark.parametrize("transport", ["emulated", "tcp"])
    def test_add_ap_matches_the_hand_slot_loop(self, transport):
        sc = wifi_sdran(transport=transport)
        sim = sc.sim
        phases = []
        try:
            sim.run(self.SLOTS)
            phases.append([s.meter.total_bytes for s in sc.stations])
            sim.master.northbound.reconfigure_vsf(
                sc.agent.agent_id, "wifi_mac", "station_scheduling",
                behavior="max_rate")
            sim.run(self.SLOTS)
            phases.append([s.meter.total_bytes for s in sc.stations])
        finally:
            sim.close()
        got = (phases, sc.agent.reports.reports_sent,
               sim.master.rib.ue_count(),
               sc.agent.mac.active_name("station_scheduling"))
        assert got == self.reference(self.SLOTS)
        assert got[3] == "max_rate" and got[2] == 2

"""Tests for the fluid TCP model over the simulated radio."""

import pytest

from repro.lte import rlc
from repro.lte.enodeb import EnodeB
from repro.lte.phy.channel import FixedCqi, SquareWaveCqi
from repro.lte.phy.tbs import capacity_mbps
from repro.lte.ue import Ue
from repro.traffic.tcp import TcpFlow


def build(cqi=10, **flow_kw):
    enb = EnodeB(1)
    ue = Ue("001", FixedCqi(cqi))
    rnti = enb.attach_ue(ue, tti=0)
    flow = TcpFlow(**flow_kw)
    flow.wire(enb, rnti, ue)
    return enb, ue, rnti, flow


def drive(enb, flow, ttis):
    for t in range(ttis):
        flow.tick(t)
        enb.tick(t)


class TestSaturation:
    @pytest.mark.parametrize("cqi", [2, 4, 10, 15])
    def test_unlimited_flow_approaches_capacity(self, cqi):
        enb, ue, rnti, flow = build(cqi=cqi, unlimited=True)
        drive(enb, flow, 8000)
        mbps = flow.meter.rate_mbps(7999)
        cap = capacity_mbps(cqi, 50)
        assert 0.8 * cap < mbps <= cap * 1.01

    def test_throughput_monotone_in_cqi(self):
        rates = []
        for cqi in (2, 6, 10, 14):
            enb, ue, rnti, flow = build(cqi=cqi, unlimited=True)
            drive(enb, flow, 5000)
            rates.append(flow.meter.rate_mbps(4999))
        assert rates == sorted(rates)


class TestCongestionControl:
    def test_slow_start_grows_window(self):
        enb, ue, rnti, flow = build(unlimited=True)
        cwnd0 = flow.cwnd
        drive(enb, flow, 200)
        assert flow.cwnd > cwnd0

    def test_buffer_overflow_triggers_loss_and_backoff(self, monkeypatch):
        monkeypatch.setattr(rlc, "DEFAULT_RLC_BUFFER_BYTES", 30_000)
        enb, ue, rnti, flow = build(cqi=2, unlimited=True)
        drive(enb, flow, 5000)
        assert flow.loss_events > 0
        # The flow still delivers close to the link rate (buffer >> BDP).
        assert flow.meter.rate_mbps(4999) > 0.7 * capacity_mbps(2, 50)

    def test_app_limited_flow_sends_exactly_offer(self):
        enb, ue, rnti, flow = build(cqi=15)
        flow.offer(50_000)
        drive(enb, flow, 2000)
        assert flow.delivered_bytes == 50_000
        assert flow._app_backlog == 0

    def test_app_delivery_callback(self):
        enb, ue, rnti, flow = build(cqi=15)
        got = []
        flow.on_app_delivered(lambda n, t: got.append(n))
        flow.offer(10_000)
        drive(enb, flow, 1000)
        assert sum(got) == 10_000


class TestRtt:
    def test_srtt_tracks_queueing_delay(self):
        enb, ue, rnti, flow = build(cqi=10, unlimited=True)
        drive(enb, flow, 3000)
        assert flow._srtt_ms is not None
        assert flow._srtt_ms >= 1.0

    def test_unused_flow_requires_wiring(self):
        flow = TcpFlow()
        with pytest.raises(RuntimeError):
            flow.tick(0)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            TcpFlow(base_rtt_ms=-1)
        with pytest.raises(ValueError):
            TcpFlow().offer(-5)


class TestVariableChannel:
    def test_adapts_to_capacity_drop(self):
        enb = EnodeB(1)
        ue = Ue("001", SquareWaveCqi(12, 4, period_ttis=4000))
        rnti = enb.attach_ue(ue, tti=0)
        flow = TcpFlow(unlimited=True)
        flow.wire(enb, rnti, ue)
        drive(enb, flow, 8000)
        # During the low-CQI half the flow must have slowed down: the
        # average sits between the two capacities.
        avg = flow.delivered_bytes * 8 / (8000 * 1000)
        assert capacity_mbps(4, 50) < avg < capacity_mbps(12, 50)

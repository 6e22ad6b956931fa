"""Tests for DASH video, ABR algorithms and the client model."""

import pytest

from repro.lte.enodeb import EnodeB
from repro.lte.phy.channel import FixedCqi
from repro.lte.ue import Ue
from repro.traffic.dash import (
    AssistedAbr,
    DashClient,
    DashVideo,
    ThroughputAbr,
    WindowedThroughputAbr,
)
from repro.traffic.tcp import TcpFlow


def build_client(cqi=10, bitrates=(1.0, 2.0, 4.0), abr=None, **client_kw):
    enb = EnodeB(1)
    ue = Ue("001", FixedCqi(cqi))
    rnti = enb.attach_ue(ue, tti=0)
    flow = TcpFlow()
    flow.wire(enb, rnti, ue)
    video = DashVideo(list(bitrates), segment_duration_s=2.0,
                      vbr_peak_factor=1.2, seed=0)
    client = DashClient(video, flow, abr or AssistedAbr(),
                        start_tti=100, **client_kw)
    return enb, flow, video, client


def drive(enb, flow, client, ttis, start=0):
    for t in range(start, start + ttis):
        flow.tick(t)
        client.tick(t)
        enb.tick(t)


class TestDashVideo:
    def test_best_at_most(self):
        video = DashVideo([1.0, 2.0, 4.0])
        assert video.best_at_most(3.0) == 2.0
        assert video.best_at_most(10.0) == 4.0
        assert video.best_at_most(0.5) == 1.0  # lowest as fallback

    def test_segment_bytes_around_nominal(self):
        video = DashVideo([2.0], segment_duration_s=2.0,
                          vbr_peak_factor=1.5, seed=1)
        nominal = 2.0 * 1e6 * 2.0 / 8.0
        sizes = [video.segment_bytes(2.0) for _ in range(200)]
        assert min(sizes) >= nominal * 0.45
        assert max(sizes) <= nominal * 1.55
        mean = sum(sizes) / len(sizes)
        assert mean == pytest.approx(nominal, rel=0.1)

    def test_unknown_bitrate_rejected(self):
        with pytest.raises(ValueError):
            DashVideo([1.0]).segment_bytes(2.0)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            DashVideo([])
        with pytest.raises(ValueError):
            DashVideo([-1.0])
        with pytest.raises(ValueError):
            DashVideo([1.0], segment_duration_s=0)
        with pytest.raises(ValueError):
            DashVideo([1.0], vbr_peak_factor=0.5)


class TestClientPlayback:
    def test_streams_and_builds_buffer(self):
        abr = AssistedAbr()
        abr.set_target(1.0)
        enb, flow, video, client = build_client(cqi=15, abr=abr)
        drive(enb, flow, client, 10_000)
        assert client.segments_completed > 3
        assert client.started
        assert client.total_freeze_ms() == 0

    def test_buffer_cap_pauses_downloads(self):
        abr = AssistedAbr()
        abr.set_target(1.0)
        enb, flow, video, client = build_client(cqi=15, abr=abr,
                                                buffer_cap_s=6.0)
        drive(enb, flow, client, 20_000)
        assert client.buffer_s <= 6.0 + video.segment_duration_s

    def test_unsustainable_bitrate_freezes(self):
        # 4 Mb/s video over a ~1 Mb/s link (CQI 2).
        abr = AssistedAbr()
        abr.set_target(4.0)
        enb, flow, video, client = build_client(cqi=2, abr=abr)
        drive(enb, flow, client, 30_000)
        assert client.freeze_count() > 0
        assert client.total_freeze_ms() > 0

    def test_bitrate_series_recorded(self):
        abr = AssistedAbr()
        abr.set_target(2.0)
        enb, flow, video, client = build_client(cqi=15, abr=abr)
        drive(enb, flow, client, 5_000)
        assert client.bitrate_series
        assert all(b == 2.0 for _, b in client.bitrate_series)


class TestThroughputAbr:
    def test_starts_at_lowest(self):
        abr = ThroughputAbr()
        enb, flow, video, client = build_client(abr=abr)
        assert abr.choose(client, 0) == 1.0

    def test_climbs_with_fast_downloads(self):
        abr = ThroughputAbr()
        enb, flow, video, client = build_client(cqi=15, abr=abr,
                                                buffer_cap_s=60.0)
        drive(enb, flow, client, 20_000)
        # Link capacity ~25 Mb/s: per-segment estimates push the player
        # to the top rung.
        assert client.bitrate_series[-1][1] == 4.0

    def test_panic_on_empty_buffer(self):
        abr = ThroughputAbr()
        abr.estimate_mbps = 50.0
        enb, flow, video, client = build_client(abr=abr)
        client.buffer_ms = 0.0
        assert abr.choose(client, 0) == 1.0


class TestWindowedAbr:
    def test_self_trapping_at_low_bitrate(self):
        """App-limited measurement keeps the estimate at the current
        bitrate: the player never leaves the bottom rung even though
        the link could carry the next one (Fig. 11a's default player)."""
        enb, flow, video, client = build_client(cqi=6, buffer_cap_s=12.0)
        client.abr = WindowedThroughputAbr(flow)  # ~5.3 Mb/s link
        drive(enb, flow, client, 40_000)
        assert all(b == 1.0 for _, b in client.bitrate_series[2:])


class TestAssistedAbr:
    def test_follows_target(self):
        abr = AssistedAbr()
        enb, flow, video, client = build_client(abr=abr)
        abr.set_target(2.5)
        assert abr.choose(client, 0) == 2.0
        abr.set_target(9.0)
        assert abr.choose(client, 0) == 4.0

    def test_no_target_means_lowest(self):
        abr = AssistedAbr()
        enb, flow, video, client = build_client(abr=abr)
        assert abr.choose(client, 0) == 1.0

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            AssistedAbr().set_target(0.0)

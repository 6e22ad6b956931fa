"""Integration tests: miniature versions of the paper's experiments.

Each test runs a scaled-down variant of one evaluation scenario and
asserts the *shape* of the paper's result (who wins, what region is
zero, which direction things move).  The full-scale runs live in the
benchmark harness.
"""

import pytest

from repro.core.apps.monitoring import MonitoringApp
from repro.core.protocol.messages import Category
from repro.lte.phy.channel import GaussMarkovSinr
from repro.sim.metrics import goodput_mbps
from repro.sim.scenarios import (
    centralized_scheduling,
    dash_streaming,
    hetnet_eicic,
    ran_sharing,
    saturated_cell,
)
from repro.core.apps.ran_sharing import ShareChange


class TestFig6Shape:
    """FlexRAN is transparent: same throughput with and without agent."""

    def test_agent_does_not_change_throughput(self):
        results = {}
        for with_agent in (False, True):
            sc = saturated_cell(with_agent=with_agent,
                                with_master=with_agent)
            sc.sim.run(3000)
            results[with_agent] = sc.ues[0].throughput_mbps(sc.sim.now)
        assert results[True] == pytest.approx(results[False], rel=0.02)

    def test_uplink_also_unaffected(self):
        results = {}
        for with_agent in (False, True):
            sc = saturated_cell(with_agent=with_agent,
                                with_master=with_agent, uplink=True)
            sc.sim.run(3000)
            results[with_agent] = sc.enb.counters.ul_delivered_bytes
        assert results[True] == pytest.approx(results[False], rel=0.05)


class TestFig7Shape:
    """Signaling overhead: stats dominate; growth sublinear in UEs."""

    def run_case(self, n_ues, ttis=1500):
        sc = centralized_scheduling(ues_per_enb=n_ues, cqi=12)
        sc.sim.run(ttis)
        conn = sc.sim.connections[sc.agents[0].agent_id]
        up, down = ({cat: goodput_mbps(c.bytes, ttis)
                     for cat, c in link.counters.items()}
                    for link in conn.channel.links)
        return up, down

    def test_stats_reports_dominate_uplink(self):
        up, _ = self.run_case(10)
        assert up[Category.STATS] > up[Category.SYNC]
        assert up[Category.STATS] > up.get(Category.AGENT_MANAGEMENT, 0)

    def test_uplink_growth_sublinear(self):
        up5, _ = self.run_case(5)
        up20, _ = self.run_case(20)
        ratio = up20[Category.STATS] / up5[Category.STATS]
        assert 1.0 < ratio < 4.0  # 4x UEs -> clearly less than 4x bytes

    def test_downlink_commands_grow_with_ues(self):
        _, down5 = self.run_case(5)
        _, down20 = self.run_case(20)
        assert (down20[Category.COMMANDS]
                > down5[Category.COMMANDS])

    def test_downlink_much_smaller_than_uplink(self):
        up, down = self.run_case(20)
        assert sum(down.values()) < 0.5 * sum(up.values())


class TestFig9Shape:
    """Latency study: zero below the diagonal, graceful decay above."""

    def run_cell(self, rtt, ahead, ttis=5000):
        sc = centralized_scheduling(
            ues_per_enb=1, rtt_ms=rtt, schedule_ahead=ahead,
            load_factor=1.5,
            channel_factory=lambda e, i: GaussMarkovSinr(
                22.0, sigma_db=2.0, reversion=0.02, seed=7))
        sc.sim.run(ttis)
        return goodput_mbps(sc.ues_per_enb[0][0].meter.total_bytes, ttis)

    def test_zero_region_below_diagonal(self):
        assert self.run_cell(rtt=20, ahead=8) == 0.0

    def test_works_on_or_above_diagonal(self):
        assert self.run_cell(rtt=20, ahead=24) > 10.0

    def test_throughput_decays_with_rtt(self):
        fast = self.run_cell(rtt=0, ahead=2)
        slow = self.run_cell(rtt=60, ahead=70)
        assert slow < fast


class TestFig10Shape:
    """eICIC: optimized > static eICIC > uncoordinated."""

    def total(self, mode, ttis=6000):
        sc = hetnet_eicic(mode)
        sc.sim.run(ttis)
        return sum(goodput_mbps(u.meter.total_bytes, ttis)
                   for u in [*sc.macro_ues, sc.small_ue])

    def test_ordering(self):
        uncoordinated = self.total("uncoordinated")
        static = self.total("eicic")
        optimized = self.total("optimized")
        assert optimized > static > uncoordinated
        # The paper's headline: optimized roughly doubles uncoordinated.
        assert optimized / uncoordinated > 1.5

    def test_small_cell_unaffected_by_optimization(self):
        """Fig 10b: small-cell throughput equal under both eICIC modes."""
        small = {}
        for mode in ("eicic", "optimized"):
            sc = hetnet_eicic(mode)
            sc.sim.run(6000)
            small[mode] = goodput_mbps(sc.small_ue.meter.total_bytes, 6000)
        assert small["optimized"] == pytest.approx(small["eicic"], rel=0.15)


class TestFig12Shape:
    """RAN sharing: throughput follows the configured RB fractions."""

    def test_dynamic_reallocation_tracks_fractions(self):
        sc = ran_sharing(
            initial_fractions={"mno": 0.7, "mvno": 0.3},
            changes=[ShareChange(at_tti=3000,
                                 fractions={"mno": 0.4, "mvno": 0.6})])
        app = MonitoringApp(period_ttis=100)
        sc.sim.master.add_app(app)
        sc.sim.run(6000)
        agent_id = sc.agent.agent_id

        def op_mbps(operator, start, end):
            return sum(
                app.throughput_mbps(agent_id, u.rnti,
                                    start_tti=start, end_tti=end)
                for u in sc.ues_by_operator[operator])

        before_ratio = op_mbps("mno", 500, 2900) / op_mbps("mvno", 500, 2900)
        after_ratio = op_mbps("mno", 3500, 6000) / op_mbps("mvno", 3500, 6000)
        assert before_ratio > 1.5      # ~70/30
        assert after_ratio < 1.0       # ~40/60


class TestFig11Shape:
    """MEC DASH: assisted adapts, default traps or overshoots."""

    def test_low_variability_contrast(self):
        default = dash_streaming("low", assisted=False)
        default.sim.run(60_000)
        assisted = dash_streaming("low", assisted=True)
        assisted.sim.run(60_000)
        default_rates = {b for _, b in default.client.bitrate_series}
        assisted_rates = {b for _, b in assisted.client.bitrate_series}
        assert default_rates == {1.2}          # trapped at the bottom
        assert 2.0 in assisted_rates           # exploits the good phase
        assert default.client.freeze_count() == 0
        assert assisted.client.freeze_count() == 0

    def test_high_variability_contrast(self):
        default = dash_streaming("high", assisted=False)
        default.sim.run(60_000)
        assisted = dash_streaming("high", assisted=True)
        assisted.sim.run(60_000)
        # Default overshoots past the ~16 Mb/s capacity and freezes.
        assert max(b for _, b in default.client.bitrate_series) >= 9.6
        assert default.client.freeze_count() > 0
        # Assisted stays at a sustainable level without freezing.
        assert assisted.client.freeze_count() == 0


class TestMasterScaling:
    """Fig 8 shape: core-component time grows with connected agents."""

    def test_cycle_time_grows_with_agents(self):
        times = {}
        for n in (1, 3):
            sc = centralized_scheduling(n_enbs=n, ues_per_enb=8, cqi=12)
            sc.sim.run(1500)
            stats = sc.sim.master.task_manager.stats
            times[n] = stats.core_ms_total / stats.cycles
        assert times[3] > times[1]

    def test_rib_memory_grows_with_agents(self):
        sizes = {}
        for n in (1, 3):
            sc = centralized_scheduling(n_enbs=n, ues_per_enb=8, cqi=12)
            sc.sim.run(500)
            sizes[n] = sc.sim.master.rib.memory_footprint_bytes()
        assert sizes[3] > sizes[1]

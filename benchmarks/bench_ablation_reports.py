"""Ablation: statistics-report design choices (DESIGN.md Section 4).

Two claims from the paper's Section 5.2.1 are quantified:

* "by setting the periodicity of the MAC reports to 2 TTIs, this
  overhead could be reduced to almost half without any significant
  impact in the system's performance" -- we sweep the reporting period
  for a centralized scheduler and measure both signaling and delivered
  throughput.
* The sublinear signaling growth is attributed to "the aggregation of
  relevant information in the FlexRAN protocol messages" -- we compare
  the wire bytes of one aggregated report against per-UE messages.
"""

from __future__ import annotations

from conftest import print_table, run_once

from repro.core.protocol import codec
from repro.core.protocol.messages import Category, StatsReply, UeStatsReport
from repro.sim.metrics import goodput_mbps
from repro.sim.scenarios import centralized_scheduling

PERIODS = [1, 2, 5, 10]
RUN_TTIS = 3000
N_UES = 16


def run_period(period: int):
    sc = centralized_scheduling(
        ues_per_enb=N_UES, cqi=12, load_factor=1.2,
        algorithm=None)
    sc.app.stats_period_ttis = period
    sc.sim.run(RUN_TTIS)
    conn = sc.sim.connections[sc.agents[0].agent_id]
    stats_mbps = goodput_mbps(
        conn.channel.uplink.counters[Category.STATS].bytes, RUN_TTIS)
    tput = sum(goodput_mbps(u.meter.total_bytes, RUN_TTIS)
               for u in sc.ues_per_enb[0])
    return stats_mbps, tput


def test_report_periodicity_tradeoff(benchmark):
    def experiment():
        return {p: run_period(p) for p in PERIODS}

    results = run_once(benchmark, experiment)
    rows = [[p, results[p][0], results[p][1]] for p in PERIODS]
    print_table(
        "Ablation -- MAC report periodicity vs signaling and throughput "
        "(paper: 2-TTI reports halve overhead with no significant "
        "performance impact)",
        ["report period (TTIs)", "stats Mb/s", "cell throughput Mb/s"],
        rows)

    # Halving claim: 2-TTI reporting roughly halves the stats traffic.
    ratio = results[2][0] / results[1][0]
    assert 0.4 < ratio < 0.65
    # No significant performance impact at period 2.
    assert results[2][1] > 0.93 * results[1][1]
    # Very slow reporting eventually does hurt (stale queues/CQI).
    assert results[10][0] < results[1][0] / 5


def _ue_report(rnti: int) -> UeStatsReport:
    return UeStatsReport(
        rnti=rnti, queues={1: 0, 3: 200_000}, wb_cqi=12, wb_cqi_clear=13,
        subband_cqi=[12] * 9, subband_sinr_db_x10=[180] * 9,
        harq_states=[0] * 8, ul_buffer_bytes=1000, power_headroom_db=20,
        rlc_bytes_in=10 ** 7, rlc_bytes_out=10 ** 7,
        pdcp_tx_bytes=10 ** 7, pdcp_rx_bytes=10 ** 7,
        rx_bytes_total=10 ** 8, rrc_state=3)


def test_aggregation_vs_per_ue_messages(benchmark):
    def experiment():
        rows = []
        for n in (1, 10, 25, 50):
            aggregated = len(codec.encode(StatsReply(
                ue_reports=[_ue_report(70 + i) for i in range(n)])))
            separate = sum(
                len(codec.encode(StatsReply(ue_reports=[_ue_report(70 + i)])))
                for i in range(n))
            rows.append([n, aggregated, separate,
                         separate / aggregated])
        return rows

    rows = run_once(benchmark, experiment)
    print_table(
        "Ablation -- aggregated list-of-UE reports vs one message per UE "
        "(wire bytes per reporting round)",
        ["UEs", "aggregated B", "per-UE msgs B", "overhead x"], rows)
    # Aggregation always wins, and the advantage grows with UE count.
    factors = [row[3] for row in rows]
    assert all(f >= 1.0 for f in factors)
    assert factors[-1] > factors[0]

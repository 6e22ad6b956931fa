"""Fig. 9: control-channel latency vs schedule-ahead time.

A COTS UE is scheduled in the downlink by a centralized application
parameterized to issue decisions *n* subframes ahead, while netem-style
latency degrades the master--agent channel.  The paper's findings:

* Lower triangle (ahead < RTT): zero throughput -- every decision
  misses its deadline and the UE cannot even complete attachment.
* On/above the diagonal: scheduling works even at high RTT, with
  throughput gradually decaying as RTT and schedule-ahead grow (stale
  CQI leads to wrong MCS choices; predictions reach further into the
  future).
"""

from __future__ import annotations

import math

from conftest import print_table, run_once

from repro import obs
from repro.lte.phy.channel import GaussMarkovSinr
from repro.sim.metrics import goodput_mbps
from repro.sim.scenarios import centralized_scheduling

RTTS_MS = [0, 10, 20, 30, 40, 60]
AHEADS = [0, 8, 16, 24, 32, 48, 64, 80]
RUN_TTIS = 4000


def run_cell(rtt_ms: int, ahead: int) -> float:
    sc = centralized_scheduling(
        ues_per_enb=1, rtt_ms=rtt_ms, schedule_ahead=ahead,
        load_factor=1.5,
        channel_factory=lambda e, i: GaussMarkovSinr(
            22.0, sigma_db=2.0, reversion=0.02, seed=11))
    sc.sim.run(RUN_TTIS)
    return goodput_mbps(sc.ues_per_enb[0][0].meter.total_bytes, RUN_TTIS)


def test_fig9_latency_vs_schedule_ahead(benchmark):
    def experiment():
        grid = {}
        for rtt in RTTS_MS:
            for ahead in AHEADS:
                grid[(rtt, ahead)] = run_cell(rtt, ahead)
        return grid

    grid = run_once(benchmark, experiment)

    rows = []
    for rtt in RTTS_MS:
        rows.append([f"RTT {rtt:>2} ms"]
                    + [grid[(rtt, ahead)] for ahead in AHEADS])
    print_table(
        "Fig 9 -- downlink throughput (Mb/s) over (RTT, schedule-ahead) "
        "(paper: zero below the diagonal ahead<RTT; ~25 Mb/s ceiling "
        "decaying gradually with RTT)",
        ["config"] + [f"ahead {a}" for a in AHEADS], rows)

    # (1) The lower-triangular region is zero: decisions expire and the
    # UE cannot attach.
    for rtt in RTTS_MS:
        for ahead in AHEADS:
            if ahead < rtt:
                assert grid[(rtt, ahead)] == 0.0, (rtt, ahead)
    # (2) On/above the diagonal the link works at every tested RTT.
    for rtt in RTTS_MS:
        feasible = [grid[(rtt, a)] for a in AHEADS if a >= rtt]
        assert feasible and max(feasible) > 10.0, rtt
    # (3) Throughput decays as the control loop gets slower.
    assert grid[(60, 64)] < grid[(0, 0)]
    assert grid[(60, 80)] < grid[(10, 16)]


def test_fig9_control_latency_measured_in_platform(benchmark):
    """The platform's own xid correlator reproduces the netem latency.

    Fig. 9's independent variable is control latency; here the obs
    subsystem measures it from inside the platform: the per-xid
    enqueue->handle delay of the master's ``DlMacCommand`` stream must
    equal the emulated one-way latency (RTT/2) for every feasible
    configuration.
    """

    cases = [(8, 16), (20, 24), (40, 48)]

    def experiment():
        out = {}
        for rtt, ahead in cases:
            with obs.enabled_scope(trace=False) as ob:
                sc = centralized_scheduling(
                    ues_per_enb=1, rtt_ms=rtt, schedule_ahead=ahead,
                    load_factor=1.5)
                sc.sim.run(RUN_TTIS)
                lat = ob.correlator.latencies("dl", "DlMacCommand")
                out[(rtt, ahead)] = {
                    "n": len(lat),
                    "p50": ob.correlator.percentile(50, "dl",
                                                    "DlMacCommand"),
                    "p99": ob.correlator.percentile(99, "dl",
                                                    "DlMacCommand"),
                }
        return out

    out = run_once(benchmark, experiment)
    rows = [[f"RTT {rtt} ms / ahead {ahead}", s["n"], s["p50"], s["p99"]]
            for (rtt, ahead), s in out.items()]
    print_table(
        "Fig 9 companion -- DlMacCommand control latency measured by the "
        "xid correlator (expected: one-way = RTT/2 TTIs, no queueing)",
        ["config", "commands", "p50 TTIs", "p99 TTIs"], rows)

    for (rtt, ahead), s in out.items():
        one_way = math.ceil(rtt / 2)
        assert s["n"] > 100, (rtt, ahead)
        # The emulated channel adds exactly its one-way latency: the
        # distribution is degenerate at RTT/2 (deterministic link, no
        # queueing in the emulated transport).
        assert s["p50"] == one_way, (rtt, s)
        assert s["p99"] == one_way, (rtt, s)

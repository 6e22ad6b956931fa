"""Fig. 12: RAN sharing and virtualization over FlexRAN.

Two experiments (Section 6.3), both driving the agent-side sliced
scheduler over the FlexRAN protocol:

* Fig. 12a -- dynamic resource allocation: MNO/MVNO fractions start at
  70/30, switch to 40/60, then to 80/20 via live policy
  reconfiguration; per-operator throughput follows the fractions.
* Fig. 12b -- per-operator scheduling policies: the MNO slice runs a
  fair policy (all UEs equal, ~380 kb/s in the paper), the MVNO slice
  a premium/secondary group policy (premium ~450 kb/s, secondary
  <200 kb/s).

Timeline note: the paper's Fig. 12a spans 180 s of wall time; the
reproduction compresses the same three phases into 30 s of simulated
time (the dynamics settle within tens of milliseconds, so the phase
lengths are immaterial).
"""

from __future__ import annotations

from conftest import print_table, run_once

from repro.core.apps.monitoring import MonitoringApp
from repro.sim.metrics import goodput_mbps
from repro.sim.scenarios import CATALOGUE, PHASE_TTIS

FIG12B_TTIS = 15_000


def test_fig12a_dynamic_allocation(benchmark):
    def experiment():
        sc = CATALOGUE["ran_sharing_dynamic"][0]()
        app = MonitoringApp(period_ttis=200)
        sc.sim.master.add_app(app)
        sc.sim.run(3 * PHASE_TTIS)

        def op_mbps(operator, start, end):
            return sum(
                app.throughput_mbps(sc.agent.agent_id, u.rnti,
                                    start_tti=start, end_tti=end)
                for u in sc.ues_by_operator[operator])

        phases = []
        for i in range(3):
            start = i * PHASE_TTIS + 2000  # skip the transient
            end = (i + 1) * PHASE_TTIS - 200
            phases.append((op_mbps("mno", start, end),
                           op_mbps("mvno", start, end)))
        return phases

    phases = run_once(benchmark, experiment)
    labels = ["70/30 (start)", "40/60 (@ phase 2)", "80/20 (@ phase 3)"]
    rows = [[label, mno, mvno]
            for label, (mno, mvno) in zip(labels, phases)]
    print_table(
        "Fig 12a -- per-operator throughput under live fraction changes "
        "(paper: MNO ~4.2 -> 2.5 -> 5 Mb/s, MVNO ~1.8 -> 4 -> 1.2 Mb/s)",
        ["phase (MNO/MVNO split)", "MNO Mb/s", "MVNO Mb/s"], rows)

    # Phase 1: MNO over twice MVNO (70/30).
    assert phases[0][0] > 1.8 * phases[0][1]
    # Phase 2: inverted (40/60).
    assert phases[1][1] > phases[1][0]
    # Phase 3: strongly MNO again (80/20).
    assert phases[2][0] > 3.0 * phases[2][1]
    # MVNO throughput rises then falls across the three phases.
    assert phases[1][1] > phases[0][1] > phases[2][1]


def test_fig12b_group_policy_cdf(benchmark):
    def experiment():
        sc = CATALOGUE["ran_sharing_groups"][0]()
        sc.sim.run(FIG12B_TTIS)

        def kbps(ue):
            return goodput_mbps(ue.meter.total_bytes, FIG12B_TTIS) * 1000

        mno = [kbps(u) for u in sc.ues_by_operator["mno"]]
        mvno = sc.ues_by_operator["mvno"]
        premium = [kbps(u) for u in mvno
                   if u.labels.get("group") == "premium"]
        secondary = [kbps(u) for u in mvno
                     if u.labels.get("group") == "secondary"]
        return mno, premium, secondary

    mno, premium, secondary = run_once(benchmark, experiment)
    rows = []
    for name, values in [("MNO (fair)", mno),
                         ("MVNO premium", premium),
                         ("MVNO secondary", secondary)]:
        rows.append([name, len(values), min(values),
                     sum(values) / len(values), max(values)])
    print_table(
        "Fig 12b -- per-UE throughput by scheduling policy, kb/s "
        "(paper: fair MNO ~380 each; premium ~450; secondary <200)",
        ["group", "UEs", "min", "mean", "max"], rows)
    cdf = [(v, (i + 1) / len(mno)) for i, v in enumerate(sorted(mno))]
    print("CDF points (MNO fair):",
          [(round(v), round(p, 2)) for v, p in cdf][::5])

    mean = lambda xs: sum(xs) / len(xs)
    # Fair policy: MNO UEs tightly clustered.
    assert (max(mno) - min(mno)) / mean(mno) < 0.25
    # Premium beats fair beats secondary.
    assert mean(premium) > mean(mno) > mean(secondary)
    # Premium/secondary separation is strong, as in the paper's CDF.
    assert mean(premium) > 1.3 * mean(secondary)
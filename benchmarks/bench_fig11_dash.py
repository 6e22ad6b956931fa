"""Fig. 11: DASH rate adaptation, default vs FlexRAN-assisted.

Two controlled channel-fluctuation cases (Section 6.2):

* low variability -- a small CQI step around the 2 Mb/s rung with a
  3-level video (1.2 / 2 / 4 Mb/s).  The default player's transport-
  layer estimate never sees the improvement and stays at 1.2 Mb/s;
  the assisted player tracks the channel between 1.2 and 2 Mb/s.
  Neither player freezes.
* high variability -- a drastic CQI step with a 6-level 4K video
  (2.9 ... 19.6 Mb/s).  The default player overshoots past the link
  capacity, congests and freezes repeatedly; the assisted player holds
  a sustainable bitrate with a stable buffer.

Our capacity model is more conservative at low CQI than the authors'
testbed, so the CQI operating points sit one/two levels higher (see
DESIGN.md); the bitrate ladders and behaviours are the paper's.
"""

from __future__ import annotations

from conftest import print_table, run_once

from repro.sim.scenarios import CATALOGUE

RUN_TTIS = 120_000  # 120 s of streaming, as in the paper's plots

ROWS = {("low", False): "dash_low_default",
        ("low", True): "dash_low_assisted",
        ("high", False): "dash_high_default",
        ("high", True): "dash_streaming"}
"""(case, assisted) -> the catalogue row that deploys it."""


def run_case(case: str, assisted: bool):
    sc = CATALOGUE[ROWS[case, assisted]][0]()
    sc.sim.run(RUN_TTIS)
    client = sc.client
    rates = [b for _, b in client.bitrate_series]
    return {
        "rates_used": sorted(set(rates)),
        "mean_bitrate": sum(rates) / len(rates),
        "max_bitrate": max(rates),
        "min_bitrate": min(rates),
        "freezes": client.freeze_count(),
        "freeze_ms": client.total_freeze_ms(),
        "segments": client.segments_completed,
        "buffer_series": client.buffer_series,
    }


def test_fig11a_low_variability(benchmark):
    def experiment():
        return {assisted: run_case("low", assisted)
                for assisted in (False, True)}

    out = run_once(benchmark, experiment)
    rows = []
    for assisted in (False, True):
        r = out[assisted]
        label = "FlexRAN-assisted" if assisted else "default"
        rows.append([label, str(r["rates_used"]), r["mean_bitrate"],
                     r["freezes"], r["freeze_ms"]])
    print_table(
        "Fig 11a -- low-variability DASH (paper: default stuck at "
        "1.2 Mb/s; assisted adapts 1.2<->2.0; no freezes for either)",
        ["player", "bitrates used", "mean Mb/s", "freezes", "freeze ms"],
        rows)

    assert out[False]["rates_used"] == [1.2]
    assert 2.0 in out[True]["rates_used"]
    assert out[True]["mean_bitrate"] > out[False]["mean_bitrate"]
    assert out[False]["freezes"] == 0
    assert out[True]["freezes"] == 0


def test_fig11b_high_variability(benchmark):
    def experiment():
        return {assisted: run_case("high", assisted)
                for assisted in (False, True)}

    out = run_once(benchmark, experiment)
    rows = []
    for assisted in (False, True):
        r = out[assisted]
        label = "FlexRAN-assisted" if assisted else "default"
        rows.append([label, str(r["rates_used"]), r["mean_bitrate"],
                     r["freezes"], r["freeze_ms"], r["segments"]])
    print_table(
        "Fig 11b -- high-variability 4K DASH (paper: default overshoots "
        "to 19.6 Mb/s on a 15 Mb/s link and freezes; assisted holds "
        "7.3 Mb/s with a stable buffer)",
        ["player", "bitrates used", "mean Mb/s", "freezes", "freeze ms",
         "segments"], rows)

    # Default overshoots far beyond the ~16 Mb/s capacity and freezes.
    assert out[False]["max_bitrate"] >= 9.6
    assert out[False]["freezes"] > 0
    # Assisted stays sustainable: zero freezes, more video delivered.
    assert out[True]["freezes"] == 0
    assert out[True]["segments"] > out[False]["segments"]

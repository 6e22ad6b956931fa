"""Self-test of the ttibudget benchmark at smoke size.

Runs the real runner (fresh child interpreters, shrunk topologies, two
untraced rounds plus the traced round per workload) and checks the
instrument, not the platform: every metric is there under a legal name,
simulated results and call counts repeat, and the trace adds up.  It
asserts nothing about which wrap targets resolved, so a refactor that
renames one is not held hostage by the benchmark's files.
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "benchmarks" / "ttibudget"
sys.path.insert(0, str(BENCH))

import report  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def document(tmp_path_factory):
    out = tmp_path_factory.mktemp("ttibudget") / "result.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--rounds", "2",
         "--seconds", "0.1", "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # Traces land beside the result, not in the repository's out/.
    for name in spec.WORKLOADS:
        assert (out.parent / f"trace_{name}.json").is_file()
    with open(out) as fh:
        return json.load(fh)


def test_every_workload_and_end_to_end_metric_is_reported(document):
    assert list(document["workloads"]) == list(spec.WORKLOADS)
    expected = [m.name for m in spec.END_TO_END + spec.SUITE_ONLY]
    for entry in document["workloads"].values():
        assert list(entry["end_to_end"]) == expected
        for metric in spec.END_TO_END:
            assert entry["end_to_end"][metric.name]["value"] > 0
        assert list(entry["per_layer"]) == [m.name for m in spec.PER_LAYER]
    for key in ("commit", "python", "platform", "nproc", "loadavg_start",
                "seed", "rounds"):
        assert key in document["env"]


def test_names_and_units_are_legal():
    metrics = spec.END_TO_END + spec.SUITE_ONLY + spec.PER_LAYER
    names = [m.name for m in metrics] + list(spec.WORKLOADS)
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in metrics:
        assert UNIT.fullmatch(metric.unit), metric
        assert metric.better in ("lower", "higher")
    for metric in spec.END_TO_END:
        assert metric.same_seed_bound <= metric.bound <= 0.25


def test_benchmark_json_mirrors_the_tables():
    with open(ROOT / "BENCHMARK.json") as fh:
        contract = json.load(fh)
    assert sorted(contract) == ["command", "end_to_end", "paths",
                                "per_layer", "run_seconds", "workloads"]
    assert contract["run_seconds"] == spec.RUN_SECONDS
    assert contract["workloads"] == [
        {"name": name, "why": why} for name, why in spec.WORKLOADS.items()]
    assert contract["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound} for m in spec.END_TO_END]
    assert contract["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in spec.PER_LAYER]
    assert all(len(w["why"]) <= 200 for w in contract["workloads"])
    assert any(m["name"] == "setup_s" for m in contract["end_to_end"])


def test_simulated_results_and_call_counts_repeat(document):
    for name, entry in document["workloads"].items():
        # The fingerprint comparison across rounds is one of the checks.
        assert entry["checks"]["failed"] == 0, entry["checks"]["failures"]
        assert entry["end_to_end"]["failed_ratio"]["value"] == 0
        first, second = entry["end_to_end"]["pycalls_per_tti"]["rounds"]
        assert first == second, name


def test_control_plane_is_absent_exactly_where_it_should_be(document):
    ran_only = document["workloads"]["ran_only"]
    assert ran_only["end_to_end"]["ctrl_mbps"]["value"] == 0
    for metric in ("protocol.encode_calls_per_tti",
                   "protocol.decode_calls_per_tti",
                   "runtime.pycalls_per_tti.protocol"):
        assert ran_only["per_layer"][metric]["value"] in (0, None)
    central = document["workloads"]["central_tti"]["per_layer"]
    assert central["controller.apps_quarantined"]["value"] == 0
    assert central["controller.apps_deferred"]["value"] == 0


def _ran_state(dep):
    """What the RAN was given and what it did with it, per UE and per
    eNodeB.  RLC arrivals at a fixed TTI pin each source's rate and
    phase; delivered bytes pin the CQI."""
    ues = [(enb.enb_id, ue.imsi, rnti, ue.measured_cqi(dep.sim.now),
            ue.rx_bytes_total, enb.rlc[rnti].stats.sdus_in,
            enb.rlc[rnti].stats.bytes_in)
           for enb in dep.enbs for cell in enb.cells.values()
           for rnti, ue in sorted(cell.ues.items())]
    enbs = [(enb.enb_id, enb.counters.dl_delivered_bytes,
             enb.counters.dl_assignments, enb.counters.tb_ok)
            for enb in dep.enbs]
    return ues, enbs


def test_ran_only_is_scale_steadys_ran():
    # workloads._populate copies the body of scenarios.large_scale; if
    # the two drift apart, "scale_steady - ran_only is the platform's
    # overhead" stops being true without anything failing.
    size = workloads.WORKLOADS["ran_only"].smoke_size
    assert size == workloads.WORKLOADS["scale_steady"].smoke_size
    assert (workloads.WORKLOADS["ran_only"].size
            == workloads.WORKLOADS["scale_steady"].size)
    steady = workloads.build_scale_steady(3000, size)
    ran_only = workloads.build_ran_only(3000, size)
    for ttis in (137, 163):
        steady.sim.run(ttis)
        ran_only.sim.run(ttis)
        assert _ran_state(ran_only) == _ran_state(steady)


def test_trace_adds_up(document):
    for name, entry in document["workloads"].items():
        layer = {k: v["value"] for k, v in entry["per_layer"].items()}
        traced_tti = layer["trace.tti_us"]
        phases = [v for k, v in layer.items()
                  if k.startswith("sim.phase_us.")]
        if None not in phases:
            # Phase spans are the roots: together they are the TTI, less
            # the clock's loop and the span bookkeeping around them --
            # some 13 us, which is 3 % of a smoke-size TTI (and one stray
            # GC pause in so short a window adds as much) but under 1 %
            # at full size.
            assert sum(phases) == pytest.approx(traced_tti, rel=0.10), name
        spans = [layer[m] for m in spec.SPAN_US if layer[m] is not None]
        # Layer self times and the untraced remainder are the TTI too.
        covered = sum(spans) / traced_tti + layer["sim.untraced_share"]
        if len(spans) == len(spec.SPAN_US):
            assert covered == pytest.approx(1.0, rel=0.05), name
        assert layer["runtime.pycalls_per_tti.other"] is not None
        assert sum(layer[f"runtime.pycalls_per_tti.{part}"]
                   for part in spec.PROFILE_LAYERS) == pytest.approx(
            entry["end_to_end"]["pycalls_per_tti"]["value"])


def test_compare_judges_against_the_bounds(document):
    same = report.compare(document, document)
    assert {row["verdict"] for row in same} <= {"ok", "unresolved"}
    assert not any(row["sim_changed"] for row in same)
    slower = copy.deepcopy(document)
    cell = slower["workloads"]["ran_only"]["end_to_end"]["tti_us"]
    cell["value"] *= 1.2  # within the driver's cross-seed bound, not ours
    slower["workloads"]["ran_only"]["fingerprint"] = "changed"
    verdicts = {(r["workload"], r["metric"]): r
                for r in report.compare(document, slower)}
    assert verdicts[("ran_only", "tti_us")]["verdict"] == "worse"
    assert verdicts[("ran_only", "tti_us")]["sim_changed"]
    assert verdicts[("scale_steady", "tti_us")]["verdict"] != "worse"

"""The catalogue of deployments: every entry builds, has a master and
runs, on the clock and through ``repro stats``; every public builder in
:mod:`repro.sim.scenarios` is reached by some entry."""

import dataclasses
import inspect
import sys
import typing

import pytest

from repro.cli import main
from repro.core.protocol.messages import ReportType
from repro.lte.enodeb import EnodeB
from repro.sim import scenarios
from repro.sim.scenarios import CATALOGUE
from tests.calls import Calls

TTIS = 50


def public_builders():
    """Names of the public functions that return a handle with ``.sim``."""
    names = []
    for name, fn in inspect.getmembers(scenarios, inspect.isfunction):
        if name.startswith("_") or fn.__module__ != scenarios.__name__:
            continue
        handle = typing.get_type_hints(fn).get("return")
        if dataclasses.is_dataclass(handle) and "sim" in {
                f.name for f in dataclasses.fields(handle)}:
            names.append(name)
    return names


@pytest.mark.parametrize("name", sorted(CATALOGUE))
def test_entry_builds_with_a_master_and_runs(name):
    build, ttis = CATALOGUE[name]
    assert ttis > 0
    sim = build(seed=0).sim
    try:
        assert sim.master is not None
        sim.run(TTIS)
        assert sim.now == TTIS
        assert sim.master.rib.agent_ids()
    finally:
        sim.close()


@pytest.mark.parametrize("name", sorted(CATALOGUE))
def test_stats_runs_every_entry(name, capsys):
    assert main(["stats", "--scenario", name, "--ttis", str(TTIS)]) == 0
    assert "# TYPE" in capsys.readouterr().out


def test_every_public_builder_is_reached():
    builders = set(public_builders())
    assert {"quickstart", "mobility_handover", "wifi_sdran",
            "large_scale"} <= builders
    calls = Calls()
    sims = []
    try:
        for build, _ in CATALOGUE.values():
            sims.append(calls.run(build, seed=0).sim)
    finally:
        for sim in sims:
            sim.close()
    functions = calls.functions()
    assert {name for name in builders
            if functions[f"sim/scenarios.py:{name}"]} == builders


def test_the_feature_tour_reaches_what_keeps_its_code(monkeypatch):
    """``feature_tour`` is why DRX, carrier aggregation, uplink data,
    central uplink grants, the GBR bearer, TCP's loss reaction and
    triggered reports keep their code (tests/reachability.py): over its
    default TTIs each one happens.
    Only the QoS scheduler's GBR phase builds an assignment on the GBR
    bearer's LCID (its fair phase and retransmissions use the default
    bearer's)."""
    build, ttis = CATALOGUE["feature_tour"]
    applied = []
    transmit_dl = EnodeB._transmit_dl

    def recording(enb, cell_id, a, tti):
        applied.append((a.rnti, a.lcid))
        return transmit_dl(enb, cell_id, a, tti)

    monkeypatch.setattr(EnodeB, "_transmit_dl", recording)
    sc = build(seed=0)
    sim, enb = sc.sim, sc.enb
    try:
        sim.run(ttis)
    finally:
        sim.close()

    assert enb.counters.ul_delivered_bytes > 0
    assert sc.agent.mac.remote_ul_stub.stats.applied == 1
    assert any(d.enabled for d in sc.energy.decisions)
    assert any(s.asleep_ttis > 0 for s in enb.drx.states.values())
    ca_ue = [d for d in sc.ca.decisions if d.rnti == sc.ca_ue.rnti]
    assert [d.activated for d in ca_ue] == [True, False]
    assert sc.agent.mac.active_name("dl_scheduling") == "qos"
    assert (sc.gbr_ue.rnti, scenarios.TOUR_GBR_LCID) in applied
    assert sim.tcp_flows[0].loss_events > 0
    assert any(sub.report_type == ReportType.TRIGGERED and sub.replies
               for sub in sc.agent.reports._subscriptions.values())

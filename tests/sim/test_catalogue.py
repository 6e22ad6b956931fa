"""The catalogue of deployments: every entry builds, has a master and
runs, on the clock and through ``repro stats``; every public builder in
:mod:`repro.sim.scenarios` is reached by some entry."""

import dataclasses
import inspect
import sys
import typing

import pytest

from repro.cli import main
from repro.sim import scenarios
from repro.sim.scenarios import CATALOGUE

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
    builders = {getattr(scenarios, name).__code__: name
                for name in public_builders()}
    assert {"quickstart", "mobility_handover", "wifi_sdran",
            "large_scale"} <= set(builders.values())
    called = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in builders:
            called.add(builders[frame.f_code])

    sims = []
    sys.setprofile(profile)
    try:
        for build, _ in CATALOGUE.values():
            sims.append(build(seed=0).sim)
    finally:
        sys.setprofile(None)
        for sim in sims:
            sim.close()
    assert called == set(builders.values())

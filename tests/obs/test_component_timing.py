"""Per-component timing: the eNodeB and agent entry points time their
own bodies, and only while observability is enabled."""

from collections import Counter

import pytest

from repro import obs
from repro.sim.scenarios import large_scale

N_ENBS = 2
N_TTIS = 40


def build_sim():
    return large_scale(n_enbs=N_ENBS, ues_per_enb=2).sim


@pytest.mark.parametrize("trace", [True, False])
def test_one_observation_per_entry_point_call(trace):
    sim = build_sim()
    with obs.enabled_scope(trace=trace) as ob:
        sim.run(N_TTIS)
    expected = {"enb.plan_us": N_TTIS * N_ENBS,
                "enb.transmit_us": N_TTIS * N_ENBS,
                "agent.tick_us": 2 * N_TTIS * N_ENBS}  # tick_tx + tick_rx
    for name, count in expected.items():
        histogram = ob.registry.histogram(name)
        assert histogram.count == count, name
        assert histogram.sum > 0, name
    spans = Counter((e["cat"], e["name"]) for e in ob.tracer.events)
    if trace:
        assert spans["enb", "plan"] == expected["enb.plan_us"]
        assert spans["enb", "transmit"] == expected["enb.transmit_us"]
        assert (spans["agent", "tick_tx"] + spans["agent", "tick_rx"]
                == expected["agent.tick_us"])
    else:
        assert spans == {}


def test_disabled_path_keeps_no_stopwatch():
    sim = build_sim()
    sim.run(N_TTIS)
    assert obs.live is None
    for component in (sim.master, sim.agents[1], sim.enbs[1]):
        assert not [k for k in vars(component) if k.endswith("time_s")]

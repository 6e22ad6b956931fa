"""Observability off costs no call: the TTI loop never enters ``repro.obs``.

Every instrumentation site tests ``obs.live`` and resolves the registry,
tracer or correlator only inside the branch, so while observability is
off no function of the package is called, and nothing charges a call to
its layer.  The counter (``tests/calls.py``) sees every call the run
makes; the same run with observability on is the control that shows it
is not blind.
"""

from repro import obs
from repro.sim.scenarios import large_scale
from tests.calls import count

N_TTIS = 50


def build_sim():
    sc = large_scale(n_enbs=2, ues_per_enb=4)
    assert sc.sim.master is not None and sc.agents
    return sc.sim


def test_off_enters_no_obs_frame():
    obs.disable()
    calls = count(build_sim().run, N_TTIS)
    assert calls.layers()["obs"] == 0, calls


def test_on_enters_obs_frames():
    sim = build_sim()
    with obs.enabled_scope(trace=False):
        calls = count(sim.run, N_TTIS)
    functions = calls.functions()
    assert functions["obs/registry.py:MetricsRegistry.counter"] > 0
    assert functions["obs/trace.py:NullTraceRecorder.span"] > 0

"""Observability off costs no call: the TTI loop never enters ``repro.obs``.

Every instrumentation site tests ``obs.live`` and resolves the registry,
tracer or correlator only inside the branch, so while observability is
off no Python frame of the package is entered.  A profile hook sees
every frame the run enters; the same hook with observability on is the
control that shows it is not blind.
"""

import os
import sys

import repro.obs
from repro import obs
from repro.sim.scenarios import large_scale

OBS_DIR = os.path.dirname(os.path.abspath(repro.obs.__file__)) + os.sep
N_TTIS = 50


def obs_frames_entered(sim):
    """Names of the ``repro.obs`` functions entered during the run."""
    entered = []

    def hook(frame, event, arg):
        if (event == "call"
                and frame.f_code.co_filename.startswith(OBS_DIR)):
            entered.append(frame.f_code.co_name)

    sys.setprofile(hook)
    try:
        sim.run(N_TTIS)
    finally:
        sys.setprofile(None)
    return entered


def build_sim():
    sc = large_scale(n_enbs=2, ues_per_enb=4)
    assert sc.sim.master is not None and sc.agents
    return sc.sim


def test_off_enters_no_obs_frame():
    obs.disable()
    assert obs_frames_entered(build_sim()) == []


def test_on_enters_obs_frames():
    sim = build_sim()
    with obs.enabled_scope(trace=False):
        entered = obs_frames_entered(sim)
    assert "counter" in entered and "span" in entered

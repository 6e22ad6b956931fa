"""Whole-run identity: every frame a deployment puts on the wire, and
every decision an agent-less RAN applies.

The golden frames (``tests/core/golden_frames.json``) pin single
messages; this pins whole runs.  Each frame case hashes every frame
``codec.encode`` returns, length-prefixed and in order, over 300 TTIs of
one deployment: ``large_scale`` in miniature (static channels, CBR load,
periodic full-statistics subscriptions) and the differential suite's
``fading_poisson_pf`` (fading channels, Poisson load, PF scheduling, so
per-UE state moves every period), and ``centralized_scheduling`` over a
non-zero RTT (the master's scheduler app pushes every decision, so the
downlink commands carry its in-flight accounting and conflict
admission).  Three more cases run the catalogue builders that replaced
hand-wired example topologies -- ``quickstart``, ``mobility_handover``
and ``wifi_sdran`` -- and their digests were recorded from that hand
wiring (for Wi-Fi, a hand-written slot loop), so moving it changed no
frame.  ``feature_tour`` pins the Table 1 controls beyond scheduling
(DRX, carrier aggregation, central uplink grants, bearer QoS, the PRB
cap), and ``centralized_tcp`` must send ``centralized``'s frames.

A RAN without agents sends no frame, so the agent-less case hashes what
its schedulers decided instead: every downlink assignment the eNodeBs
apply, then their counters (``tests/behaviour_identity.py``'s
assignment digest).  The run has two eNodeBs, one with two carriers,
fading and static channels, uplink backlog, an SCell activation and
DRX, all scheduled by the built-in round robin and uplink split.

A change that claims to keep behaviour must keep every digest; one that
changes what is sent or scheduled, when, or in which order moves them,
and records the new values here with the reason in CHANGES.md.
"""

import pytest

from repro.core.protocol import codec
from repro.lte.cell import CellConfig
from repro.lte.enodeb import EnodeB
from repro.lte.mac.drx import DrxConfig
from repro.lte.phy.channel import FixedCqi, GaussMarkovSinr
from repro.lte.ue import Ue
from repro.net.clock import Phase
from repro.sim import scenarios
from repro.sim.scenarios import (
    CATALOGUE, centralized_scheduling, large_scale, sinr_for_cqi)
from repro.sim.simulation import Simulation
from repro.traffic.generators import CbrSource, PoissonSource
from tests.behaviour_identity import (
    enb_counters, record_assignments, record_frames)
from tests.sim.test_differential import fading_poisson_pf

TTIS = 300


def large_scale_4x16():
    return large_scale(n_enbs=4, ues_per_enb=16).sim


def fading_pf():
    sim, _, _ = fading_poisson_pf()
    return sim


def centralized_rtt4():
    """Centralized scheduling over a 4 ms RTT, four TTIs ahead: in-flight
    decisions expire inside the run and the conflict resolver's
    128-TTI retention horizon is crossed."""
    return centralized_scheduling(n_enbs=2, ues_per_enb=6, rtt_ms=4.0,
                                  schedule_ahead=4).sim


def quickstart():
    return scenarios.quickstart().sim


def mobility_handover():
    return scenarios.mobility_handover().sim


def wifi_sdran():
    return scenarios.wifi_sdran().sim


def feature_tour():
    return scenarios.feature_tour().sim


PINNED = {
    # (frames encoded, sha256 over them)
    "large_scale_4x16": (
        434, "c396e7b1e2b69b958a6d499a8003bd4359bcef4e4bcf6fa4eedadfc5fb210a42"),
    "fading_pf": (
        66, "61a325d5cab8ff0e6663fdc9da7543c4e0f558a93d3a24d3c68c7f755d21a130"),
    "centralized_rtt4": (
        1698, "5b234a2aa0c8ce8b235bcb516669d7f0ef80e03c0907c7d2aeb4fa960df6565e"),
    "quickstart": (
        29, "fd0b61651c72e91eccdc50c8ea17b404c27ddfcd1b14f9c54b47baf38cc1e1e7"),
    "mobility_handover": (
        78, "be2b66b06be41f39e5586531b80f7ba0100c1c99ae86035a9afff13eafa8c4ab"),
    "wifi_sdran": (
        10, "d77ba9ed32d74d03a3a15c31b46be319401db19fdba035e67f8ce038760a8086"),
    "feature_tour": (
        106, "f5ed54388aea76add1fbed51c6c35311c014252d7f8c047c56e4744bb4253a2f"),
}


def frame_digest(build):
    """``(frames, sha256)`` of every frame encoded while *build*'s
    simulation runs :data:`TTIS` TTIs."""
    with record_frames(codec) as frames:
        sim = build()
        try:
            sim.run(TTIS)
        finally:
            sim.close()
    return frames.count, frames.hexdigest()


@pytest.mark.parametrize("build", [large_scale_4x16, fading_pf,
                                   centralized_rtt4, quickstart,
                                   mobility_handover, wifi_sdran,
                                   feature_tour],
                         ids=lambda f: f.__name__)
def test_whole_run_frames_are_pinned(build):
    assert frame_digest(build) == PINNED[build.__name__]


def test_the_tcp_catalogue_entry_sends_the_emulated_frames():
    """Transport conformance on a catalogue entry: ``centralized_tcp``
    is ``centralized`` over the lockstep TCP fabric, and puts the same
    frames on the wire."""
    tcp, emulated = (CATALOGUE[name][0]
                     for name in ("centralized_tcp", "centralized"))
    assert frame_digest(lambda: tcp().sim) \
        == frame_digest(lambda: emulated().sim)


def agentless_multicell():
    """Two agent-less eNodeBs, the first with carriers 10 and 11."""
    sim = Simulation()
    enbs = [sim.add_enb(1, [CellConfig(cell_id=10), CellConfig(cell_id=11)],
                        seed=1),
            sim.add_enb(2, seed=2)]
    ues = []
    for e, enb in enumerate(enbs):
        for i in range(6):
            seed = 10 * e + i
            channel = (FixedCqi(4 + 2 * i) if i % 2 else GaussMarkovSinr(
                sinr_for_cqi(5 + i), sigma_db=3.0, seed=seed))
            ue = Ue(f"{e}{i:03d}", channel)
            cells = sorted(enb.cells)
            sim.add_ue(enb, ue, cell_id=cells[i % len(cells)])
            sim.add_downlink_traffic(
                enb, ue, PoissonSource(2.0, seed=seed, start_tti=20))
            if i < 3:
                sim.add_uplink_traffic(enb, ue, CbrSource(0.3, start_tti=30))
            ues.append(ue)
    first, drx_ue = enbs[0], ues[1]
    drx = DrxConfig(cycle_ttis=20, on_duration_ttis=4, inactivity_ttis=2)
    script = {
        80: lambda tti: first.activate_scell(ues[0].rnti, 11, tti=tti),
        120: lambda tti: first.set_drx(drx_ue.rnti, drx),
        200: lambda tti: first.set_drx(drx_ue.rnti, None),
        240: lambda tti: first.deactivate_scell(ues[0].rnti, 11),
    }
    sim.clock.register(
        Phase.TRAFFIC, lambda tti: script.get(tti, lambda _: None)(tti))
    return sim, enbs


ASSIGNMENTS_PINNED = (
    988, "fdb8e044cd984c3e20442e163e2917e88af6d7ca72db060cd54ab5a65874a467")
"""(applied downlink assignments, digest) of :func:`agentless_multicell`
over :data:`TTIS` TTIs."""


def test_agentless_assignments_are_pinned():
    with record_assignments(EnodeB) as applied:
        sim, enbs = agentless_multicell()
        sim.run(TTIS)
    assert all(enb.counters.ul_grants > 0 for enb in enbs)
    assert sum(enb.counters.tb_err for enb in enbs) > 0
    assert (applied.count, applied.hexdigest(enb_counters(enbs))) \
        == ASSIGNMENTS_PINNED

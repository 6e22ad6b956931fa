"""Per-call differential suite: the view cache against the reference.

Each scenario runs once with ``EnodeB.build_context`` wrapped by the
oracle of :mod:`tests.sim.context_oracle` (installed for every test in
this directory): at every call, the context the scheduler is handed is
compared with the reference builder's -- every ``UeView`` field,
``pending_retx``, ``bearer_qos``, ``abs_subframe`` and the order of
``backlogged()`` / ``candidates()`` / ``ul_backlogged()``.  A
divergence means an invalidation missed a scheduler-visible input; it
fails at the TTI it happens, naming the UE and the field.  The two
self-tests check that claim: one per scenario for a missed RLC record,
one per kind of record that feeds a view.

The slow-host suite at the end runs a deployment on hosts of different
speeds (``time.perf_counter`` replaced by a clock that advances a fixed
step per reading) and compares everything the run decided: no
behavioural decision may read the wall clock (DESIGN.md section 11).
"""

import time

import pytest

from repro.core.controller import master as master_module
from repro.core.survive.snapshot import snapshot_rib
from repro.lte.cell import CellConfig
from repro.lte.constants import SRS_PERIOD_TTIS
from repro.lte.mac.drx import DrxConfig
from repro.lte.mac.qos import QosProfile
from repro.lte.phy.channel import FixedCqi, GaussMarkovSinr
from repro.lte.rrc import RA_DELAY_TTIS
from repro.lte.ue import Ue
from repro.net.clock import Phase
from repro.sim.scenarios import (
    FaultSpec,
    centralized_scheduling,
    chaos_survivability,
    hetnet_eicic,
    large_scale,
    partitioned_centralized,
    saturated_cell,
    sinr_for_cqi,
)
from repro.sim.simulation import Simulation
from repro.traffic.generators import CbrSource, PoissonSource


def saturated_cell_with_drx():
    sc = saturated_cell(n_ues=4, cqi=12, with_master=True)
    # DRX on two UEs exercises the per-build wake tracking.
    for ue in sc.ues[:2]:
        sc.enb.set_drx(ue.rnti, DrxConfig(
            cycle_ttis=20, on_duration_ttis=4, inactivity_ttis=2))
    return sc.sim, [sc.enb], 200


def hetnet_eicic_abs_flips():
    sc = hetnet_eicic("eicic", n_macro_ues=3)
    return sc.sim, [sc.macro_enb, sc.small_enb], 300


def centralized_with_link_fault():
    """The partition spans the master's stale and dead thresholds (and
    the agent's reattach) under :func:`link_fault_liveness`."""
    sc = partitioned_centralized(
        ues_per_enb=4, rtt_ms=2.0, schedule_ahead=8,
        fault=FaultSpec(partitions=((120, 180),)))
    return sc.sim, sc.enbs, 300


def chaos():
    sc = chaos_survivability(
        ues_per_enb=3, crash_window=(60, 90), poison_at=120,
        restart_at=180, checkpoint_period_ttis=50, clearance_ttis=100)
    return sc.sim, sc.enbs, 320


def scale_slice_over_tcp_transport():
    sc = large_scale(n_enbs=2, ues_per_enb=8, transport="tcp",
                     stats_period_ttis=5)
    return sc.sim, sc.enbs, 120


def fading_poisson_pf():
    """``scale_churn`` in miniature: per-UE state moves every period."""
    sim = Simulation(with_master=True)
    enbs = []
    for e in range(2):
        enb = sim.add_enb(seed=e)
        agent = sim.add_agent(enb, rtt_ms=2.0)
        for i in range(8):
            seed = 100 * e + i
            ue = Ue(f"{e:02d}{i:04d}", GaussMarkovSinr(
                sinr_for_cqi(3 + 2 * (i % 6)), sigma_db=3.0, seed=seed))
            sim.add_ue(enb, ue)
            sim.add_downlink_traffic(
                enb, ue, PoissonSource(1.5, seed=seed, start_tti=20))
        agent.mac.activate("dl_scheduling", "local_pf")
        enbs.append(enb)
    return sim, enbs, 400


def mutation_sites():
    """Every command that changes scheduler-visible state mid-run."""
    sim = Simulation()
    enb = sim.add_enb(1, [CellConfig(cell_id=10), CellConfig(cell_id=11)])
    other = sim.add_enb(2)
    agent = sim.add_agent(enb)
    sim.add_agent(other)
    ues = [Ue(f"{i:03d}", FixedCqi(9 + i)) for i in range(4)]
    for ue in ues:
        ue.neighbor_channels = {other.cell().cell_id: FixedCqi(13)}
        sim.add_ue(enb, ue, cell_id=10)
        sim.add_downlink_traffic(enb, ue, CbrSource(3.0, start_tti=20))
    a, b, c, d = (ue.rnti for ue in ues)
    drx = DrxConfig(cycle_ttis=20, on_duration_ttis=4, inactivity_ttis=2)

    def reuse_rnti(tti):
        # The C-RNTI space wraps on a long-lived cell: a newcomer gets
        # the RNTI of a UE that left (forced here by rewinding the
        # allocator), and must not inherit anything cached for it.
        enb.detach_ue(d)
        enb._next_rnti = d
        newcomer = Ue("reused", FixedCqi(5))
        assert enb.attach_ue(newcomer, cell_id=10, tti=tti) == d

    script = {
        60: lambda tti: enb.activate_scell(a, 11, tti=tti),
        80: lambda tti: enb.set_drx(a, drx),  # PCell and SCell views
        100: lambda tti: enb.configure_bearer(
            b, 4, QosProfile(qci=1, gbr_mbps=0.5)),
        110: lambda tti: enb.enqueue_dl(b, 4000, tti, lcid=4),
        140: lambda tti: enb.set_drx(a, None),
        150: lambda tti: enb.set_drx(b, drx),
        160: lambda tti: enb.activate_scell(b, 11, tti=tti),  # DRX first
        200: lambda tti: enb.deactivate_scell(a, 11),
        220: reuse_rnti,
        260: lambda tti: agent.rrc.execute_handover(
            c, 10, other.cell().cell_id, tti),
        300: lambda tti: enb.set_drx(b, None),
    }
    sim.clock.register(
        Phase.TRAFFIC, lambda tti: script.get(tti, lambda _: None)(tti))
    return sim, [enb, other], 400


@pytest.fixture(autouse=True)
def link_fault_liveness(request, monkeypatch):
    """``centralized_with_link_fault`` runs the master's liveness at a
    20-TTI echo period (stale from the first probe) and a 60-TTI
    timeout, so its 60-TTI partition takes the agent stale and dead."""
    callspec = getattr(request.node, "callspec", None)
    if (callspec is not None and callspec.params.get("build")
            is centralized_with_link_fault):
        monkeypatch.setattr(master_module, "ECHO_PERIOD_TTIS", 20)
        monkeypatch.setattr(master_module, "STALE_AFTER_TTIS", 20)
        monkeypatch.setattr(master_module, "LIVENESS_TIMEOUT_TTIS", 60)


SCENARIOS = [
    saturated_cell_with_drx, hetnet_eicic_abs_flips,
    centralized_with_link_fault, chaos, scale_slice_over_tcp_transport,
    fading_poisson_pf, mutation_sites,
]


@pytest.mark.parametrize("build", SCENARIOS, ids=lambda f: f.__name__)
def test_every_context_matches_the_reference(build, build_context_oracle):
    sim, enbs, ttis = build()
    try:
        sim.run(ttis)
    finally:
        sim.close()
    assert not build_context_oracle.mismatches
    assert build_context_oracle.calls == ttis * sum(
        len(enb.cells) for enb in enbs)
    assert all(enb.counters.dl_assignments > 0 for enb in enbs), \
        "scenario produced no scheduling decisions"


@pytest.mark.parametrize("build", SCENARIOS, ids=lambda f: f.__name__)
def test_oracle_catches_a_missed_invalidation(build, build_context_oracle,
                                              monkeypatch):
    """Self-test: one entity stops recording one UE, and the next context
    built for its cell must fail, naming that UE and a field.

    After 50 TTIs (attached and connected: only data changes remain) a
    context is built, the victim's RLC entity loses its change hook and
    queues a PDU, and nothing else records the UE before the next
    build."""
    sim, enbs, _ = build()
    enb = enbs[0]
    victim = enb.rntis()[-1]
    cell_id = enb.primary_cell(victim).cell_id
    try:
        sim.run(50)
        enb.build_context(cell_id, sim.now)
        rlc = enb.rlc[victim]
        monkeypatch.setattr(rlc, "_on_change", lambda rnti: None)
        rlc.enqueue(1000, sim.now)
        with pytest.raises(AssertionError,
                           match=rf"UE {victim} (queue_bytes|queues) "):
            enb.build_context(cell_id, sim.now)
    finally:
        sim.close()
    build_context_oracle.mismatches.clear()  # expected; keep teardown quiet


# One unrecorded change per kind that feeds a view (view_cache.
# REFRESHER_OF_KIND), made on saturated_cell_with_drx after 50 TTIs,
# where every UE's RLC records every TTI: a record of another kind must
# not cover for the missing one.  Each takes the simulation, its
# eNodeB and ``mute(owner, hook_attribute, rnti)``, and returns the
# victim's RNTI and the view field the oracle must name (None: the UE
# list itself).


def _miss_rlc(sim, enb, mute):
    victim = enb.rntis()[-1]
    mute(enb.rlc[victim], "_on_change", victim)
    enb.rlc[victim].enqueue(1000, sim.now)
    return victim, "(queue_bytes|queues)"


def _miss_cqi(sim, enb, mute):
    """Seen at the UE's next SRS observation."""
    victim = enb.rntis()[-1]
    mute(enb.primary_cell(victim), "_on_change", victim)
    enb.ue(victim).channel = FixedCqi(3)
    return victim, "cqi"


def _miss_ul_buffer(sim, enb, mute):
    victim = enb.rntis()[-1]
    mute(enb, "_record_ul_buffer", victim)
    enb.notify_ul(victim, 500, sim.now)
    return victim, "ul_buffer_bytes"


def _miss_rrc(sim, enb, mute):
    """A newcomer in random access is not schedulable; the unrecorded
    setup, RA_DELAY_TTIS later, makes it CONNECTING, which is."""
    victim = sim.add_ue(enb, Ue("newcomer", FixedCqi(9)))
    mute(enb.rrc, "_on_change", victim)
    return victim, None


def _miss_drx(sim, enb, mute):
    """Switching DRX off stops the per-build wake check, so for a UE
    asleep at the last build only the record wakes its view."""
    victim = enb.rntis()[0]  # DRX-configured by the scenario
    while enb.drx.is_awake(victim, enb.last_plan_tti):
        sim.run(1)
    mute(enb.drx, "_on_change", victim)
    enb.set_drx(victim, None)
    return victim, None


MISSES = {"rlc": _miss_rlc, "cqi": _miss_cqi, "ul_buffer": _miss_ul_buffer,
          "rrc": _miss_rrc, "view": _miss_drx}


@pytest.mark.parametrize("kind", MISSES)
def test_oracle_catches_a_missed_record_of_each_kind(
        kind, build_context_oracle, monkeypatch):
    """Self-test per view-feeding kind: one owner stops recording one
    UE, and the first context built after the missed change matters
    must fail, naming that UE and the field (or the UE list)."""
    sim, (enb,), _ = saturated_cell_with_drx()

    def mute(owner, attribute, victim):
        record = getattr(owner, attribute)

        def record_others(rnti):
            if rnti != victim:
                record(rnti)

        monkeypatch.setattr(owner, attribute, record_others)

    try:
        sim.run(50)
        victim, field = MISSES[kind](sim, enb, mute)
        named = (rf"UE {victim} {field} " if field else
                 rf"ues \[[^]]*\] != reference \[[^]]*\b{victim}\b")
        with pytest.raises(AssertionError, match=named):
            sim.run(max(SRS_PERIOD_TTIS, RA_DELAY_TTIS) + 1)
    finally:
        sim.close()
    build_context_oracle.mismatches.clear()  # expected; keep teardown quiet


# -- slow-host identity -------------------------------------------------------


def slow_host_centralized():
    sc = centralized_scheduling(n_enbs=2, ues_per_enb=8)
    return sc.sim, sc.enbs, sc.agents, None, 600


def slow_host_chaos():
    """``repro chaos``: crash window, poisoned VSF, controller restart."""
    sc = chaos_survivability()
    return sc.sim, sc.enbs, sc.agents, sc.harness, 4000


def _decisions(build, ms_per_reading, monkeypatch):
    """Run *build* on a host whose clock advances *ms_per_reading* per
    ``perf_counter`` call (None: the real clock); everything decided."""
    with monkeypatch.context() as patch:
        if ms_per_reading is not None:
            now = [0.0]

            def perf_counter():
                now[0] += ms_per_reading / 1000.0
                return now[0]

            patch.setattr(time, "perf_counter", perf_counter)
        sim, enbs, agents, harness, ttis = build()
        # A controller restart replaces master and supervisor: keep both.
        masters = [sim.master]
        try:
            sim.run(ttis)
        finally:
            sim.close()
        if sim.master is not masters[0]:
            masters.append(sim.master)
        report = harness.report() if harness is not None else None
        return {
            "delivered": [enb.counters.dl_delivered_bytes for enb in enbs],
            "runs": [{reg.app.name: reg.runs
                      for reg in master.registry.registrations()}
                     for master in masters],
            "cycles": [(master.task_manager.stats.cycles,
                        master.task_manager.stats.deferred_total,
                        master.task_manager.stats.quarantined_total)
                       for master in masters],
            "transitions": [{name: master.supervisor.health(name).transitions
                             for name in master.registry.names()}
                            for master in masters],
            "vsfs": [{op: (slot.active_name, sorted(slot.cache), slot.swaps)
                      for op, slot in agent.mac._slots.items()}
                     for agent in agents],
            "fired": report and report.fired,
            "violations": report and report.violations,
            "rib": snapshot_rib(sim.master.rib),
        }


@pytest.mark.parametrize("build", [slow_host_centralized, slow_host_chaos],
                         ids=lambda f: f.__name__)
def test_slow_host_decides_the_same(build, monkeypatch):
    real = _decisions(build, None, monkeypatch)
    assert sum(real["delivered"]) > 0
    assert all(sum(runs.values()) > 0 for runs in real["runs"])
    for ms_per_reading in (1.0, 5.0):
        assert _decisions(build, ms_per_reading, monkeypatch) == real, \
            f"run differs on a host reading {ms_per_reading} ms per call"

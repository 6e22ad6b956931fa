"""The centralized scheduler's in-flight bookkeeping against its scan.

``RemoteSchedulerApp`` subtracts the bytes it already scheduled, and
whose effect the RIB's queue reports cannot show yet, from each UE's
queue.  It keeps their sum as a running total; the reference here is
the scan it replaced, which pops the expired head of the UE's deque and
sums what is left.  Both run the same app against a scripted RIB, so
every decision, TTL and expiry is the app's own.
"""

from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.core.apps.remote_scheduler import RemoteSchedulerApp
from repro.core.controller.rib import AgentLiveness
from repro.lte.mac.dci import DlAssignment
from repro.lte.rrc import RrcState
from repro.sim.scenarios import FaultSpec, partitioned_centralized

RNTIS = (71, 72, 73, 74)
CONNECTED = list(RrcState).index(RrcState.CONNECTED)
QUEUE = 10 ** 9  # never clipped at zero, so a view shows the whole subtraction


class ScanInflight(RemoteSchedulerApp):
    """The reference: the in-flight sum re-scanned on every read."""

    def _inflight_bytes(self, rnti, now):
        pending = self._inflight.get(rnti)
        if not pending:
            return 0
        while pending and pending[0][0] <= now:
            pending.popleft()
        return sum(b for _, b in pending)


class Script:
    """The scheduling algorithm and the agent's sync lag: step ``t``
    is TTI ``t``'s ``(lag, [(rnti, n_prb, cqi), ...])``."""

    def __init__(self, steps):
        self.steps = steps
        self.tti = 0
        self.seen = []  # per schedule() call: {rnti: queue_bytes}

    def estimated_subframe(self, tti):
        return tti - self.steps[tti][0]

    def schedule(self, ctx):
        self.seen.append({v.rnti: v.queue_bytes for v in ctx.ues})
        return [DlAssignment(rnti=rnti, n_prb=n_prb, cqi_used=cqi)
                for rnti, n_prb, cqi in self.steps[self.tti][1]]


def scripted_nb(script):
    """A northbound with one live agent whose one cell holds every RNTI,
    connected and with a full queue."""
    nodes = {rnti: SimpleNamespace(
        stats=SimpleNamespace(rrc_state=CONNECTED, ul_buffer_bytes=0),
        queue_bytes=QUEUE, cqi=12, config=None) for rnti in RNTIS}
    cell = SimpleNamespace(cell_id=10, n_prb=50, config=object(),
                           ues=nodes, stats_tti=0)
    agent = SimpleNamespace(agent_id=1, liveness=AgentLiveness.ACTIVE,
                            cells={10: cell},
                            estimated_subframe=script.estimated_subframe)
    return SimpleNamespace(
        rib=SimpleNamespace(agents=lambda: [agent]),
        subscribe_stats=lambda *a, **k: SimpleNamespace(renew=lambda: None),
        enable_sync=lambda *a: None,
        reconfigure_vsf=lambda *a, **k: None,
        send_dl_command=lambda *a: None)


assignment = st.tuples(st.sampled_from(RNTIS), st.integers(1, 50),
                       st.integers(1, 15))
step = st.tuples(st.integers(0, 6), st.lists(assignment, max_size=4))


@settings(max_examples=200, deadline=None)
@given(steps=st.lists(step, min_size=1, max_size=60),
       schedule_ahead=st.integers(0, 4), margin=st.integers(0, 8))
def test_running_total_matches_the_scan(steps, schedule_ahead, margin):
    scripts = [Script(steps), Script(steps)]
    new, ref = (cls(script, schedule_ahead=schedule_ahead,
                    inflight_ttl_margin=margin)
                for cls, script in zip((RemoteSchedulerApp, ScanInflight),
                                       scripts))
    runs = [(new, scripts[0], scripted_nb(scripts[0])),
            (ref, scripts[1], scripted_nb(scripts[1]))]
    for tti in range(len(steps)):
        for app, script, nb in runs:
            script.tti = tti
            app.run(tti, nb)
        assert new._inflight_total == {
            rnti: sum(b for _, b in pending)
            for rnti, pending in new._inflight.items()}
    # Every UE view either app built: queue minus bytes in flight.
    assert scripts[0].seen == scripts[1].seen


@settings(max_examples=100, deadline=None)
@given(steps=st.lists(step, min_size=1, max_size=40),
       schedule_ahead=st.integers(0, 4))
def test_a_target_tti_is_commanded_once(steps, schedule_ahead):
    """A late sync steps the subframe estimate back; a target at or
    below the last one commanded is skipped, so targets only rise."""
    script = Script(steps)
    app = RemoteSchedulerApp(script, schedule_ahead=schedule_ahead)
    nb = scripted_nb(script)
    targets = []
    nb.send_dl_command = lambda agent, cell, target, a: targets.append(target)
    for tti in range(len(steps)):
        script.tti = tti
        app.run(tti, nb)
    assert targets == sorted(set(targets))


def test_jitter_draws_no_conflict_denial():
    """Control-channel jitter reorders the estimate; every command the
    app sends is admitted."""
    sc = partitioned_centralized(fault=FaultSpec(jitter_ms=1.0))
    sc.sim.run(2000)
    counters = sc.sim.master.northbound.conflicts.counters
    assert counters.allowed > 1000
    assert counters.denied == 0

"""Tests for the application conflict-resolution mechanism (Sec 7.3)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.apps.base import App
from repro.core.controller import conflicts
from repro.core.controller.conflicts import (
    AdmittedDecision,
    ConflictCounters,
    ConflictOutcome,
    ConflictResolver,
)
from repro.core.protocol.messages import DciSpec
from repro.lte.phy.channel import FixedCqi
from repro.lte.ue import Ue
from repro.sim.simulation import Simulation
from repro.traffic.generators import CbrSource


def dci(rnti, n_prb=10, cqi=12):
    return DciSpec(rnti=rnti, n_prb=n_prb, cqi_used=cqi)


class TestResolverUnit:
    def test_first_command_allowed(self):
        r = ConflictResolver()
        outcome, decision = r.admit(1, 10, 100, [dci(70)], n_prb_limit=50,
                                    priority=5, now=90)
        assert outcome is ConflictOutcome.ALLOWED
        assert decision == [dci(70)]

    def test_disjoint_commands_merged(self):
        r = ConflictResolver()
        r.admit(1, 10, 100, [dci(70, 20)], n_prb_limit=50, priority=5,
                now=90)
        outcome, decision = r.admit(1, 10, 100, [dci(71, 20)],
                                    n_prb_limit=50, priority=1, now=90)
        assert outcome is ConflictOutcome.MERGED
        assert {d.rnti for d in decision} == {70, 71}

    def test_same_rnti_conflict_denied_for_lower_priority(self):
        r = ConflictResolver()
        r.admit(1, 10, 100, [dci(70)], n_prb_limit=50, priority=5, now=90)
        outcome, decision = r.admit(1, 10, 100, [dci(70)], n_prb_limit=50,
                                    priority=5, now=90)
        assert outcome is ConflictOutcome.DENIED
        assert decision == []
        assert r.counters.denied == 1

    def test_prb_oversubscription_denied(self):
        r = ConflictResolver()
        r.admit(1, 10, 100, [dci(70, 40)], n_prb_limit=50, priority=5,
                now=90)
        outcome, _ = r.admit(1, 10, 100, [dci(71, 20)], n_prb_limit=50,
                             priority=5, now=90)
        assert outcome is ConflictOutcome.DENIED

    def test_higher_priority_replaces(self):
        r = ConflictResolver()
        r.admit(1, 10, 100, [dci(70, 50)], n_prb_limit=50, priority=5,
                now=90)
        outcome, decision = r.admit(1, 10, 100, [dci(71, 50)],
                                    n_prb_limit=50, priority=9, now=90)
        assert outcome is ConflictOutcome.REPLACED
        assert decision == [dci(71, 50)]

    def test_different_targets_do_not_conflict(self):
        r = ConflictResolver()
        r.admit(1, 10, 100, [dci(70, 50)], n_prb_limit=50, priority=5,
                now=90)
        outcome, _ = r.admit(1, 10, 101, [dci(70, 50)], n_prb_limit=50,
                             priority=5, now=90)
        assert outcome is ConflictOutcome.ALLOWED

    def test_different_cells_do_not_conflict(self):
        r = ConflictResolver()
        r.admit(1, 10, 100, [dci(70, 50)], n_prb_limit=50, priority=5,
                now=90)
        outcome, _ = r.admit(1, 11, 100, [dci(70, 50)], n_prb_limit=50,
                             priority=5, now=90)
        assert outcome is ConflictOutcome.ALLOWED

    def test_gc_forgets_old_targets(self):
        r = ConflictResolver()
        r.admit(1, 10, 100, [dci(70)], n_prb_limit=50, priority=5, now=100)
        assert held(r) == 1
        r.admit(1, 10, 500, [dci(70)], n_prb_limit=50, priority=5, now=500)
        assert held(r) == 1  # old entry collected

    def test_unknown_limit_allows_merge(self):
        r = ConflictResolver()
        r.admit(1, 10, 100, [dci(70, 45)], n_prb_limit=None, priority=5,
                now=90)
        outcome, _ = r.admit(1, 10, 100, [dci(71, 45)], n_prb_limit=None,
                             priority=5, now=90)
        assert outcome is ConflictOutcome.MERGED

    def test_target_at_the_horizon_is_kept(self):
        r = ConflictResolver()
        r.admit(1, 10, 84, [dci(70)], n_prb_limit=50, priority=5, now=80)
        r.admit(1, 10, 83, [dci(70)], n_prb_limit=50, priority=5, now=80)
        now = 84 + conflicts.RETENTION_TTIS
        r.admit(1, 11, now, [dci(70)], n_prb_limit=50, priority=5, now=now)
        assert held(r) == 2  # 83 below the horizon went, 84 on it stays


def held(resolver):
    """Admitted (kind, agent, cell, target) decisions still held."""
    return sum(len(decisions) for decisions in resolver._admitted.values())


class ScanResolver:
    """The reference: one flat table keyed (kind, agent, cell, target),
    collected by scanning every key on every admission."""

    def __init__(self, *, retention_ttis):
        self._admitted = {}
        self.retention_ttis = retention_ttis
        self.counters = ConflictCounters()

    def admit(self, agent_id, cell_id, target_tti, assignments, *,
              n_prb_limit, priority, now, kind="dl"):
        horizon = now - self.retention_ttis
        for key in [k for k in self._admitted if k[3] < horizon]:
            del self._admitted[key]
        key = (kind, agent_id, cell_id, target_tti)
        incoming = list(assignments)
        existing = self._admitted.get(key)
        if existing is None:
            self._admitted[key] = AdmittedDecision(priority, incoming)
            self.counters.allowed += 1
            return ConflictOutcome.ALLOWED, incoming
        fits = (not existing.rntis & {a.rnti for a in incoming}
                and (n_prb_limit is None or existing.prbs
                     + sum(a.n_prb for a in incoming) <= n_prb_limit))
        if fits:
            merged = existing.assignments + incoming
            self._admitted[key] = AdmittedDecision(
                max(existing.priority, priority), merged)
            self.counters.merged += 1
            return ConflictOutcome.MERGED, merged
        if priority > existing.priority:
            self._admitted[key] = AdmittedDecision(priority, incoming)
            self.counters.replaced += 1
            return ConflictOutcome.REPLACED, incoming
        self.counters.denied += 1
        return ConflictOutcome.DENIED, []

    def pending_targets(self):
        return len(self._admitted)


RETENTION = 8
command = st.tuples(
    st.integers(0, 12),                          # clock advance
    st.integers(-RETENTION - 3, 4),              # target - now
    st.sampled_from(["dl", "ul"]), st.integers(1, 2), st.integers(10, 11),
    st.lists(st.tuples(st.integers(70, 73), st.integers(1, 30)),
             min_size=1, max_size=3),
    st.one_of(st.none(), st.just(50)), st.integers(0, 3))


@settings(max_examples=300, deadline=None)
@given(commands=st.lists(command, max_size=80))
def test_indexed_collection_matches_the_scan(commands):
    new = ConflictResolver()
    ref = ScanResolver(retention_ttis=RETENTION)
    now = 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(conflicts, "RETENTION_TTIS", RETENTION)
        for (advance, ahead, kind, agent, cell, specs, limit,
             priority) in commands:
            now += advance
            args = (agent, cell, now + ahead, [dci(r, n) for r, n in specs])
            kwargs = dict(n_prb_limit=limit, priority=priority, now=now,
                          kind=kind)
            assert new.admit(*args, **kwargs) == ref.admit(*args, **kwargs)
            assert held(new) == ref.pending_targets()
    assert new.counters == ref.counters


class _CommandingApp(App):
    """Issues one scheduling command per TTI for a fixed UE."""

    def __init__(self, name, priority, rnti, n_prb=50):
        self.name = name
        self.priority = priority
        self.period_ttis = 1
        self.rnti = rnti
        self.n_prb = n_prb

    def run(self, tti, nb):
        for agent_id in nb.agent_ids():
            agent = nb.rib.agent(agent_id)
            for cell_id in agent.cells:
                nb.send_dl_command(agent_id, cell_id, tti + 2,
                                   [dci(self.rnti, self.n_prb)])


class TestEndToEndArbitration:
    def build(self):
        sim = Simulation(with_master=True)
        enb = sim.add_enb()
        sim.add_agent(enb)
        ue = Ue("001", FixedCqi(12))
        sim.add_ue(enb, ue)
        sim.add_downlink_traffic(enb, ue, CbrSource(5.0, start_tti=30))
        return sim, enb, ue

    def test_conflicting_apps_resolved_by_priority(self):
        sim, enb, ue = self.build()
        high = _CommandingApp("high_sched", priority=90, rnti=70)
        low = _CommandingApp("low_sched", priority=10, rnti=70)
        sim.master.add_app(high)
        sim.master.add_app(low)
        sim.run(500)
        counters = sim.master.northbound.conflicts.counters
        # Exactly one decision admitted per target: the low-priority
        # app's duplicate claims were denied.
        assert counters.denied > 100
        assert counters.allowed > 100
        assert counters.replaced == 0  # high runs first each cycle

    def test_low_priority_first_gets_replaced(self):
        sim, enb, ue = self.build()

        class LowFirst(_CommandingApp):
            # Runs first despite low priority by issuing from on_start?
            pass

        low = _CommandingApp("low_sched", priority=95, rnti=70)
        high = _CommandingApp("high_sched", priority=99, rnti=70)
        # Register low with *higher run order* by giving it priority 95
        # but have 'high' claim a later run slot with priority 99 -> the
        # resolver sees high first.  To exercise REPLACED we invert: the
        # app registered with lower task priority issues first.
        sim.master.northbound.set_current_app(low)
        sim.master.northbound.conflicts.admit(  # direct, for clarity
            1, 10, 50, [dci(70, 50)], n_prb_limit=50, priority=10, now=40)
        outcome, _ = sim.master.northbound.conflicts.admit(
            1, 10, 50, [dci(70, 50)], n_prb_limit=50, priority=99, now=40)
        assert outcome is ConflictOutcome.REPLACED

    def test_disjoint_apps_both_served(self):
        sim = Simulation(with_master=True)
        enb = sim.add_enb()
        sim.add_agent(enb)
        ues = []
        for i in range(2):
            ue = Ue(f"00{i}", FixedCqi(12))
            sim.add_ue(enb, ue)
            sim.add_downlink_traffic(enb, ue, CbrSource(3.0, start_tti=30))
            ues.append(ue)
        app_a = _CommandingApp("sched_a", priority=90, rnti=ues[0].rnti,
                               n_prb=25)
        app_b = _CommandingApp("sched_b", priority=80, rnti=ues[1].rnti,
                               n_prb=25)
        sim.master.add_app(app_a)
        sim.master.add_app(app_b)
        # Activate remote control so the commands actually drive the MAC.
        sim.agents[enb.enb_id].mac.activate("dl_scheduling", "remote_stub")
        sim.run(2000)
        counters = sim.master.northbound.conflicts.counters
        assert counters.merged > 100
        assert counters.denied == 0
        # Both apps' UEs receive data through the merged decisions.
        assert ues[0].rx_bytes_total > 0
        assert ues[1].rx_bytes_total > 0

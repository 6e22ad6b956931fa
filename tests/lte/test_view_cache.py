"""Unit tests for the per-cell scheduler-view cache (UeViewCache).

The oracle fixture (tests/sim/context_oracle.py) checks every context
against the reference builder; these tests pin what the oracle cannot
see from one call -- that a clean TTI reuses the cached lists, and that
the incrementally kept backlogged/schedulable lists stay RNTI-ordered
through arrivals, drains, detaches and DRX transitions.
"""

from repro.lte.phy.channel import FixedCqi
from repro.lte.enodeb import EnodeB
from repro.lte.mac.drx import DrxConfig
from repro.lte.ue import Ue


def build_enb(n_ues=3, cqi=12):
    enb = EnodeB(1)
    rntis = []
    for i in range(n_ues):
        ue = Ue(f"00{i:04d}", FixedCqi(cqi))
        rntis.append(enb.attach_ue(ue, tti=0))
    for t in range(60):
        enb.tick(t)
    for rnti in rntis:
        assert enb.rrc.is_connected(rnti)
    return enb, rntis


def build(enb, tti):
    """The cell's cached lists at *tti*, settled as ``build_context``
    settles them but not checked against the reference builder (one
    test below changes state unrecorded on purpose)."""
    (cell_id,) = enb.cells
    enb._settle()
    return enb._view_cache[cell_id].build(tti)


class TestDirtyRefresh:
    def test_clean_build_reuses_views_and_lists(self):
        enb, rntis = build_enb(2)
        build(enb, 61)
        # Nothing changed: later builds hand out the very same list.
        assert build(enb, 62)[0] is build(enb, 63)[0]

    def test_traffic_arrival_refreshes_only_that_ue(self):
        enb, rntis = build_enb(2)
        before = {v.rnti: v for v in build(enb, 61)[0]}
        enb.enqueue_dl(rntis[0], 500, 61)
        # Bypass the RLC entity for the other UE: with no change
        # recorded its view must stay as it was.
        enb.rlc[rntis[1]].queue(3).push(300, 61)
        views, backlogged, _ = build(enb, 62)
        by_rnti = {v.rnti: v for v in views}
        assert by_rnti[rntis[0]] is before[rntis[0]]  # mutated in place
        assert by_rnti[rntis[0]].queue_bytes == 500
        assert by_rnti[rntis[1]].queue_bytes == 0
        assert [v.rnti for v in backlogged] == [rntis[0]]

    def test_views_ordered_by_rnti(self):
        enb, rntis = build_enb(3)
        views = build(enb, 61)[0]
        assert [v.rnti for v in views] == sorted(rntis)


class TestBacklogMemos:
    def test_backlog_sorted_and_incremental(self):
        enb, rntis = build_enb(4)
        # Enqueue in reverse attach order; the memo must still come
        # out RNTI-sorted (bisect insertion, not rebuild order).
        for rnti in reversed(rntis):
            enb.enqueue_dl(rnti, 200, 61)
            build(enb, 61)
        _, backlogged, schedulable = build(enb, 62)
        assert [v.rnti for v in backlogged] == sorted(rntis)
        assert [v.rnti for v in schedulable] == sorted(rntis)

    def test_drained_ue_leaves_backlog(self):
        enb, rntis = build_enb(2)
        enb.enqueue_dl(rntis[0], 300, 61)
        build(enb, 61)
        # Drain through the RLC entity alone: it records the change.
        rlc = enb.rlc[rntis[0]]
        while rlc.buffer_bytes() > 0:
            rlc.dequeue(rlc.buffer_bytes() + 64, 61, 3)
        _, backlogged, _ = build(enb, 62)
        assert backlogged == []

    def test_detach_removes_from_backlog(self):
        enb, rntis = build_enb(2)
        for rnti in rntis:
            enb.enqueue_dl(rnti, 200, 61)
        build(enb, 61)
        enb.detach_ue(rntis[0])
        views, backlogged, schedulable = build(enb, 62)
        assert [v.rnti for v in views] == [rntis[1]]
        assert [v.rnti for v in backlogged] == [rntis[1]]
        assert [v.rnti for v in schedulable] == [rntis[1]]

    def test_cqi_zero_excluded_from_schedulable(self):
        enb, rntis = build_enb(1, cqi=12)
        extra = enb.attach_ue(Ue("000077", FixedCqi(0)), tti=61)
        for t in range(61, 121):
            enb.tick(t)
        enb.enqueue_dl(rntis[0], 200, 121)
        enb.enqueue_dl(extra, 200, 121)
        _, backlogged, schedulable = build(enb, 121)
        assert {v.rnti for v in backlogged} == {rntis[0], extra}
        assert [v.rnti for v in schedulable] == [rntis[0]]


class TestDrxTracking:
    def test_sleep_transition_updates_membership(self):
        enb, rntis = build_enb(1)
        rnti = rntis[0]
        enb.set_drx(rnti, DrxConfig(cycle_ttis=10, on_duration_ttis=2,
                                    inactivity_ttis=0))
        enb.enqueue_dl(rnti, 200, 99)
        awake_tti = next(t for t in range(100, 120)
                         if enb.drx.is_awake(rnti, t))
        asleep_tti = next(t for t in range(awake_tti, awake_tti + 10)
                          if not enb.drx.is_awake(rnti, t))
        views, backlogged, _ = build(enb, awake_tti)
        assert [v.rnti for v in views] == [rnti]
        assert [v.rnti for v in backlogged] == [rnti]
        views, backlogged, schedulable = build(enb, asleep_tti)
        assert views == [] and backlogged == [] and schedulable == []
        # Waking again restores membership with no change recorded.
        views, backlogged, _ = build(enb, awake_tti + 10)
        assert [v.rnti for v in views] == [rnti]
        assert [v.rnti for v in backlogged] == [rnti]

    def test_disabling_drx_stops_the_per_build_check(self):
        enb, rntis = build_enb(1)
        rnti = rntis[0]
        enb.set_drx(rnti, DrxConfig(cycle_ttis=10, on_duration_ttis=2,
                                    inactivity_ttis=0))
        asleep_tti = next(t for t in range(100, 120)
                          if not enb.drx.is_awake(rnti, t))
        assert build(enb, asleep_tti)[0] == []
        enb.set_drx(rnti, None)
        for tti in range(asleep_tti + 1, asleep_tti + 12):
            assert [v.rnti for v in build(enb, tti)[0]] == [rnti]

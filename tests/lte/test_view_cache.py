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


def cache_of(enb):
    (cell_id,) = enb.cells
    return enb._view_cache[cell_id]


class TestDirtyRefresh:
    def test_clean_build_reuses_views_and_lists(self):
        enb, rntis = build_enb(2)
        cache = cache_of(enb)
        cache.build(61)
        # Nothing changed: later builds hand out the very same list.
        assert cache.build(62)[0] is cache.build(63)[0]

    def test_traffic_arrival_refreshes_only_that_ue(self):
        enb, rntis = build_enb(2)
        cache = cache_of(enb)
        before = {v.rnti: v for v in cache.build(61)[0]}
        enb.enqueue_dl(rntis[0], 500, 61)
        # Bypass the eNodeB for the other UE: without a dirty mark its
        # view must stay as it was.
        enb.rlc[rntis[1]].enqueue(300, 61, 3)
        views, backlogged, _ = cache.build(62)
        by_rnti = {v.rnti: v for v in views}
        assert by_rnti[rntis[0]] is before[rntis[0]]  # mutated in place
        assert by_rnti[rntis[0]].queue_bytes == 500
        assert by_rnti[rntis[1]].queue_bytes == 0
        assert [v.rnti for v in backlogged] == [rntis[0]]

    def test_views_ordered_by_rnti(self):
        enb, rntis = build_enb(3)
        views = cache_of(enb).build(61)[0]
        assert [v.rnti for v in views] == sorted(rntis)


class TestBacklogMemos:
    def test_backlog_sorted_and_incremental(self):
        enb, rntis = build_enb(4)
        cache = cache_of(enb)
        # Enqueue in reverse attach order; the memo must still come
        # out RNTI-sorted (bisect insertion, not rebuild order).
        for rnti in reversed(rntis):
            enb.enqueue_dl(rnti, 200, 61)
            cache.build(61)
        _, backlogged, schedulable = cache.build(62)
        assert [v.rnti for v in backlogged] == sorted(rntis)
        assert [v.rnti for v in schedulable] == sorted(rntis)

    def test_drained_ue_leaves_backlog(self):
        enb, rntis = build_enb(2)
        cache = cache_of(enb)
        enb.enqueue_dl(rntis[0], 300, 61)
        cache.build(61)
        # Drain by detaching the RLC payload directly via the queue API.
        rlc = enb.rlc[rntis[0]]
        while rlc.buffer_bytes() > 0:
            rlc.dequeue(rlc.buffer_bytes() + 64, 61, 3)
        enb.mark_ue_dirty(rntis[0])
        _, backlogged, _ = cache.build(62)
        assert backlogged == []

    def test_detach_removes_from_backlog(self):
        enb, rntis = build_enb(2)
        cache = cache_of(enb)
        for rnti in rntis:
            enb.enqueue_dl(rnti, 200, 61)
        cache.build(61)
        enb.detach_ue(rntis[0])
        views, backlogged, schedulable = cache.build(62)
        assert [v.rnti for v in views] == [rntis[1]]
        assert [v.rnti for v in backlogged] == [rntis[1]]
        assert [v.rnti for v in schedulable] == [rntis[1]]

    def test_cqi_zero_excluded_from_schedulable(self):
        enb, rntis = build_enb(1, cqi=12)
        extra = enb.attach_ue(Ue("000077", FixedCqi(0)), tti=61)
        for t in range(61, 121):
            enb.tick(t)
        cache = cache_of(enb)
        enb.enqueue_dl(rntis[0], 200, 121)
        enb.enqueue_dl(extra, 200, 121)
        _, backlogged, schedulable = cache.build(121)
        assert {v.rnti for v in backlogged} == {rntis[0], extra}
        assert [v.rnti for v in schedulable] == [rntis[0]]


class TestDrxTracking:
    def test_sleep_transition_updates_membership(self):
        enb, rntis = build_enb(1)
        rnti = rntis[0]
        cache = cache_of(enb)
        enb.set_drx(rnti, DrxConfig(cycle_ttis=10, on_duration_ttis=2,
                                    inactivity_ttis=0))
        enb.enqueue_dl(rnti, 200, 99)
        awake_tti = next(t for t in range(100, 120)
                         if enb.drx.is_awake(rnti, t))
        asleep_tti = next(t for t in range(awake_tti, awake_tti + 10)
                          if not enb.drx.is_awake(rnti, t))
        views, backlogged, _ = cache.build(awake_tti)
        assert [v.rnti for v in views] == [rnti]
        assert [v.rnti for v in backlogged] == [rnti]
        views, backlogged, schedulable = cache.build(asleep_tti)
        assert views == [] and backlogged == [] and schedulable == []
        # Waking again restores membership with no explicit dirty mark.
        views, backlogged, _ = cache.build(awake_tti + 10)
        assert [v.rnti for v in views] == [rnti]
        assert [v.rnti for v in backlogged] == [rnti]

    def test_disabling_drx_stops_the_per_build_check(self):
        enb, rntis = build_enb(1)
        rnti = rntis[0]
        cache = cache_of(enb)
        enb.set_drx(rnti, DrxConfig(cycle_ttis=10, on_duration_ttis=2,
                                    inactivity_ttis=0))
        asleep_tti = next(t for t in range(100, 120)
                          if not enb.drx.is_awake(rnti, t))
        assert cache.build(asleep_tti)[0] == []
        enb.set_drx(rnti, None)
        for tti in range(asleep_tti + 1, asleep_tti + 12):
            assert [v.rnti for v in cache.build(tti)[0]] == [rnti]

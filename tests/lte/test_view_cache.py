"""Unit tests for the per-cell scheduler-view cache (UeViewCache).

The oracle fixture (tests/sim/context_oracle.py) checks every context
against the reference builder; these tests pin what the oracle cannot
see from one call -- that a clean TTI reuses the cached lists, and that
the incrementally kept backlogged/schedulable lists stay RNTI-ordered
through arrivals, drains, detaches and DRX transitions.
"""

from hypothesis import given, settings, strategies as st

from repro.lte.phy.channel import FixedCqi
from repro.lte.enodeb import EnodeB
from repro.lte.mac.drx import DrxConfig
from repro.lte.mac.qos import QosProfile
from repro.lte.rrc import RrcState
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
        assert enb.rrc.state_of(rnti) is RrcState.CONNECTED
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
        enb.rlc[rntis[1]].queues.queue(3).push(300, 61)
        enb.rlc[rntis[1]]._backlog = None
        views, backlogged, _, _ = build(enb, 62)
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
        _, backlogged, schedulable, _ = build(enb, 62)
        assert [v.rnti for v in backlogged] == sorted(rntis)
        assert [v.rnti for v in schedulable] == sorted(rntis)

    def test_drained_ue_leaves_backlog(self):
        enb, rntis = build_enb(2)
        enb.enqueue_dl(rntis[0], 300, 61)
        build(enb, 61)
        # Drain through the RLC entity alone: it records the change.
        rlc = enb.rlc[rntis[0]]
        while rlc.backlog()[1] > 0:
            rlc.dequeue(rlc.backlog()[1] + 64, 61, 3)
        _, backlogged, _, _ = build(enb, 62)
        assert backlogged == []

    def test_detach_removes_from_backlog(self):
        enb, rntis = build_enb(2)
        for rnti in rntis:
            enb.enqueue_dl(rnti, 200, 61)
        build(enb, 61)
        enb.detach_ue(rntis[0])
        views, backlogged, schedulable, _ = build(enb, 62)
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
        _, backlogged, schedulable, _ = build(enb, 121)
        assert {v.rnti for v in backlogged} == {rntis[0], extra}
        assert [v.rnti for v in schedulable] == [rntis[0]]

    def test_uplink_backlog_sorted_incremental_and_usable(self):
        enb, rntis = build_enb(3, cqi=12)
        extra = enb.attach_ue(Ue("000077", FixedCqi(0)), tti=61)
        for t in range(61, 121):
            enb.tick(t)
        for rnti in [extra, *reversed(rntis)]:
            enb.notify_ul(rnti, 300, 121)
            build(enb, 121)
        assert [v.rnti for v in build(enb, 122)[3]] == rntis  # CQI 0 left out
        ue = enb.ue(rntis[1])
        ue.send_ul(ue.ul_backlog_bytes, 122)  # as _transmit_ul does
        enb._record_ul_buffer(rntis[1])
        assert [v.rnti for v in build(enb, 123)[3]] == [rntis[0], rntis[2]]
        enb.detach_ue(rntis[0])
        assert [v.rnti for v in build(enb, 124)[3]] == [rntis[2]]


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
        views, backlogged, _, _ = build(enb, awake_tti)
        assert [v.rnti for v in views] == [rnti]
        assert [v.rnti for v in backlogged] == [rnti]
        views, backlogged, schedulable, _ = build(enb, asleep_tti)
        assert views == [] and backlogged == [] and schedulable == []
        # Waking again restores membership with no change recorded.
        views, backlogged, _, _ = build(enb, awake_tti + 10)
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


# (operation, UE index, CQI); a CQI 0 makes a backlogged UE unusable.
steps = st.tuples(
    st.sampled_from(["enqueue", "drain", "channel", "drx", "qos", "detach",
                     "attach"]),
    st.integers(min_value=0, max_value=3), st.sampled_from([0, 0, 5, 12]))


@settings(max_examples=200, deadline=None)
@given(program=st.lists(steps, max_size=30))
def test_schedulable_is_the_backlog_while_no_backlogged_cqi_is_zero(program):
    """Through arrivals, drains, CQI crossings, DRX sleep, full
    refreshes, detaches and attaches, the schedulable list is the
    backlogged list itself exactly while none of its UEs has CQI 0, and
    the filtered list otherwise (the oracle fixture checks contents)."""
    enb, rntis = build_enb(4, cqi=12)
    cache = enb._view_cache[10]
    for tti, (op, i, cqi) in enumerate(program, start=60):
        attached = enb.rntis()
        rnti = attached[i % len(attached)] if attached else None
        if op == "attach" or rnti is None:
            enb.attach_ue(Ue(f"01{tti:04d}", FixedCqi(cqi)), tti=tti)
        elif op == "enqueue":
            enb.enqueue_dl(rnti, 300, tti)
        elif op == "drain":
            enb.rlc[rnti].dequeue_priority(10 ** 6, tti)
        elif op == "channel":  # learned at the UE's next SRS instant
            enb.ue(rnti).channel = FixedCqi(cqi)
        elif op == "drx":
            enb.set_drx(rnti, None if enb.drx.is_configured(rnti) else
                        DrxConfig(cycle_ttis=4, on_duration_ttis=2,
                                  inactivity_ttis=0))
        elif op == "qos":
            enb.configure_bearer(rnti, 3, QosProfile(qci=9))
        else:
            enb.detach_ue(rnti)
        enb.cells[10].refresh_cqi(tti)  # as EnodeB.plan does
        ctx = enb.build_context(10, tti)
        backlogged, schedulable = ctx.backlogged_ues, ctx.schedulable_ues
        unusable = [v for v in backlogged if v.cqi <= 0]
        assert cache._unusable == len(unusable)
        assert (schedulable is backlogged) == (not unusable)
        assert schedulable == [v for v in backlogged if v.cqi > 0]

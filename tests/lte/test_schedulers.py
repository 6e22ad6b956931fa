"""Tests for downlink scheduling algorithms, including invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.agent.cmi import ControlModule
from repro.lte.cell import CellConfig
from repro.lte.enodeb import EnodeB
from repro.lte.mac.dci import PendingRetx, SchedulingContext, UeView
from repro.lte.mac.schedulers import (
    FairShareScheduler,
    GroupScheduler,
    MaxCqiScheduler,
    NullScheduler,
    ProportionalFairScheduler,
    RoundRobinScheduler,
    SlicedScheduler,
    make_scheduler,
    schedule_retransmissions,
)
from repro.lte.phy.channel import FixedCqi
from repro.lte.ue import Ue
from tests.calls import Calls
from tests.lte.pf_oracle import max_per_pick
from tests.lte.rr_oracle import rotate_copy_refilter


def ctx_with(ues, n_prb=50, tti=0, pending_retx=None):
    return SchedulingContext(tti=tti, n_prb=n_prb, ues=ues,
                             pending_retx=pending_retx or [])


def hexed(avg_rate):
    """PF averages by RNTI as ``float.hex`` strings: equal means bit for bit."""
    return {rnti: avg.hex() for rnti, avg in avg_rate.items()}


def views(n, queue=10 ** 6, cqi=10, labels=None):
    return [UeView(rnti=70 + i, queue_bytes=queue, cqi=cqi,
                   labels=dict(labels or {})) for i in range(n)]


ALL_SCHEDULERS = [RoundRobinScheduler, FairShareScheduler,
                  ProportionalFairScheduler, MaxCqiScheduler]


@pytest.mark.parametrize("cls", ALL_SCHEDULERS)
class TestCommonInvariants:
    def test_never_oversubscribes(self, cls):
        out = cls()(ctx_with(views(8), n_prb=50))
        assert sum(a.n_prb for a in out) <= 50

    def test_empty_cell_schedules_nothing(self, cls):
        assert cls()(ctx_with([])) == []

    def test_skips_cqi0_ues(self, cls):
        out = cls()(ctx_with(views(3, cqi=0)))
        assert out == []

    def test_skips_empty_queues(self, cls):
        out = cls()(ctx_with(views(3, queue=0)))
        assert out == []

    def test_retransmissions_first(self, cls):
        retx = [PendingRetx(rnti=99, harq_pid=1, n_prb=10, cqi_used=9,
                            tb_bits=5000, attempt=2)]
        out = cls()(ctx_with(views(2), pending_retx=retx))
        assert out[0].is_retx and out[0].rnti == 99 and out[0].harq_pid == 1


class TestRoundRobin:
    def test_saturated_rotates_between_ttis(self):
        sched = RoundRobinScheduler()
        first = sched(ctx_with(views(3), tti=0))
        second = sched(ctx_with(views(3), tti=1))
        assert first[0].rnti != second[0].rnti

    def test_small_queues_pack_multiple_ues(self):
        out = RoundRobinScheduler()(ctx_with(views(3, queue=500)))
        assert len(out) == 3

    def test_eventually_serves_everyone(self):
        sched = RoundRobinScheduler()
        served = set()
        for tti in range(10):
            for a in sched(ctx_with(views(5), tti=tti)):
                served.add(a.rnti)
        assert served == {70, 71, 72, 73, 74}


class TestFairShare:
    def test_equal_split_saturated(self):
        out = FairShareScheduler()(ctx_with(views(5), n_prb=50))
        assert len(out) == 5
        assert all(a.n_prb == 10 for a in out)

    def test_more_ues_than_prbs(self):
        out = FairShareScheduler()(ctx_with(views(60, queue=10 ** 6), n_prb=50))
        assert sum(a.n_prb for a in out) <= 50
        assert all(a.n_prb >= 1 for a in out)


class TestProportionalFair:
    def test_favours_better_channel_long_run(self):
        sched = ProportionalFairScheduler(ewma_alpha=0.1)
        good = UeView(rnti=70, queue_bytes=10 ** 9, cqi=15)
        bad = UeView(rnti=71, queue_bytes=10 ** 9, cqi=3)
        served_bits = {70: 0, 71: 0}
        for tti in range(500):
            for a in sched(ctx_with([good, bad])):
                served_bits[a.rnti] += a.n_prb * a.cqi_used
        assert served_bits[70] > served_bits[71]

    def test_does_not_starve_weak_ue(self):
        sched = ProportionalFairScheduler(ewma_alpha=0.1)
        good = UeView(rnti=70, queue_bytes=10 ** 9, cqi=15)
        bad = UeView(rnti=71, queue_bytes=10 ** 9, cqi=3)
        served = {70: 0, 71: 0}
        for tti in range(500):
            for a in sched(ctx_with([good, bad])):
                served[a.rnti] += 1
        assert served[71] > 0

    def test_parameter_reconfiguration(self):
        sched = ProportionalFairScheduler()
        sched.set_parameter("ewma_alpha", 0.5)
        assert sched.parameters["ewma_alpha"] == 0.5
        with pytest.raises(KeyError):
            sched.set_parameter("nope", 1)

    def test_invalid_alpha_rejected(self):
        with pytest.raises(ValueError):
            ProportionalFairScheduler(ewma_alpha=0.0)
        with pytest.raises(ValueError):
            ProportionalFairScheduler(ewma_alpha="x")

    @pytest.mark.parametrize("bad", [2.0, 0.0, -0.1, float("nan"), "x", None])
    def test_reconfiguration_validates_alpha(self, bad):
        sched = ProportionalFairScheduler(ewma_alpha=0.2)
        with pytest.raises(ValueError):
            sched.set_parameter("ewma_alpha", bad)
        assert sched.parameters["ewma_alpha"] == 0.2

    def test_alpha_is_stored_as_a_float(self):
        sched = ProportionalFairScheduler(ewma_alpha=1)
        sched.set_parameter("ewma_alpha", "0.5")
        assert sched.parameters["ewma_alpha"] == 0.5
        assert type(sched.parameters["ewma_alpha"]) is float

    def test_policy_reconfiguration_cannot_store_a_bad_alpha(self):
        class Mac(ControlModule):
            name = "mac"
            OPERATIONS = ("dl_scheduling",)

        mac = Mac()
        sched = ProportionalFairScheduler(ewma_alpha=0.1)
        mac.register_vsf("dl_scheduling", "pf", sched)
        with pytest.raises(ValueError):
            mac.configure_vsf("dl_scheduling", {"ewma_alpha": 2.0})
        ues = views(2, cqi=12)
        for tti in range(4):
            sched(ctx_with(ues, tti=tti))
        assert sched.parameters["ewma_alpha"] == 0.1
        assert all(avg >= 0.0 for avg in sched._avg_rate.values())

    def test_sliced_inner_pf_tracks_only_its_members(self):
        sched = SlicedScheduler({"mno": 0.6, "mvno": 0.4},
                                policies={"mno": "proportional_fair",
                                          "mvno": "proportional_fair"})
        mno = [UeView(rnti=70 + i, queue_bytes=10 ** 6, cqi=5 + 3 * i,
                      labels={"operator": "mno"}) for i in range(3)]
        mvno = [UeView(rnti=80 + i, queue_bytes=10 ** 6, cqi=4 + 5 * i,
                       labels={"operator": "mvno"}) for i in range(2)]
        oracle = {"mno": {}, "mvno": {}}
        for tti in range(20):
            out = sched(ctx_with(mno + mvno, tti=tti))
            for op, members, quota in (("mno", mno, 30), ("mvno", mvno, 20)):
                want = max_per_pick(ctx_with(members, n_prb=quota, tti=tti),
                                    oracle[op], 0.05)
                assert [a for a in out if a.rnti in {u.rnti for u in members}] \
                    == want
        for op, members in (("mno", mno), ("mvno", mvno)):
            avg = sched._inner[op]._avg_rate
            assert set(avg) == {u.rnti for u in members}
            assert hexed(avg) == hexed(oracle[op])

    def test_view_cache_context_serves_only_ues_in_the_context(self):
        enb = EnodeB(1, [CellConfig(cell_id=10)])
        rntis = [enb.attach_ue(Ue(f"{i:03d}", FixedCqi(4 + 2 * i)), 10, tti=0)
                 for i in range(6)]
        for t in range(40):
            enb.tick(t)
        sched = ProportionalFairScheduler(ewma_alpha=0.3)
        oracle = {}
        for t in range(40, 60):
            for i, rnti in enumerate(rntis):
                if (t + i) % 3:
                    enb.enqueue_dl(rnti, 200 * (i + 1), t)
            ctx = enb.build_context(10, t)
            assert ctx.schedulable_ues is not None
            out = sched.schedule(ctx)
            assert {a.rnti for a in out} <= {u.rnti for u in ctx.ues}
            assert out == max_per_pick(ctx, oracle, 0.3)
            assert hexed(sched._avg_rate) == hexed(oracle)

    @pytest.mark.parametrize("k", [1, 5, 40])
    def test_absent_ue_keeps_its_average(self, k):
        sched = ProportionalFairScheduler(ewma_alpha=0.25)
        ues = [UeView(rnti=70, queue_bytes=10 ** 6, cqi=9),
               UeView(rnti=71, queue_bytes=10 ** 6, cqi=12)]
        for tti in range(10):
            sched(ctx_with(ues, tti=tti))
        frozen = sched._avg_rate[70]
        for tti in range(10, 10 + k):
            sched(ctx_with(ues[1:], tti=tti))
            assert sched._avg_rate[70] == frozen
        oracle = dict(sched._avg_rate)
        out = sched(ctx_with(ues, tti=10 + k))
        assert out == max_per_pick(ctx_with(ues, tti=10 + k), oracle, 0.25)
        assert hexed(sched._avg_rate) == hexed(oracle)

    def test_a_pass_stays_under_its_call_ceiling(self):
        # 20 backlogged candidates whose queues take a few PRBs each, so
        # a pass picks several: 32 picks over 10 passes.  54.8 calls per
        # pass since the metrics are ranked once (CPython 3.11, exact);
        # a max per pick, as tests/lte/pf_oracle.py takes, costs more.
        sched = ProportionalFairScheduler()
        ues = [UeView(rnti=70 + i, queue_bytes=300, cqi=6 + i % 10)
               for i in range(20)]
        calls, picks = Calls(), 0
        for tti in range(10):
            ctx = SchedulingContext(tti=tti, n_prb=25, ues=ues,
                                    backlogged_ues=ues, schedulable_ues=ues)
            picks += len(calls.run(sched.schedule, ctx))
        assert picks == 32
        assert calls.total / 10 <= 54.8, calls


class TestMaxCqi:
    def test_best_channel_served_first(self):
        ues = [UeView(rnti=70, queue_bytes=10 ** 9, cqi=5),
               UeView(rnti=71, queue_bytes=10 ** 9, cqi=15)]
        out = MaxCqiScheduler()(ctx_with(ues))
        assert out[0].rnti == 71


class TestSliced:
    def test_respects_fractions(self):
        sched = SlicedScheduler({"mno": 0.7, "mvno": 0.3})
        ues = (views(3, labels={"operator": "mno"})
               + [UeView(rnti=80 + i, queue_bytes=10 ** 6, cqi=10,
                         labels={"operator": "mvno"}) for i in range(3)])
        out = sched(ctx_with(ues, n_prb=50))
        mno_prbs = sum(a.n_prb for a in out if a.rnti < 80)
        mvno_prbs = sum(a.n_prb for a in out if a.rnti >= 80)
        assert mno_prbs == 35
        assert mvno_prbs == 15

    def test_runtime_fraction_change(self):
        sched = SlicedScheduler({"mno": 0.7, "mvno": 0.3})
        sched.set_parameter("fractions", {"mno": 0.4, "mvno": 0.6})
        ues = (views(2, labels={"operator": "mno"})
               + [UeView(rnti=90, queue_bytes=10 ** 6, cqi=10,
                         labels={"operator": "mvno"})])
        out = sched(ctx_with(ues, n_prb=50))
        mvno_prbs = sum(a.n_prb for a in out if a.rnti == 90)
        assert mvno_prbs == 30

    def test_unlabelled_ues_not_scheduled(self):
        sched = SlicedScheduler({"mno": 1.0})
        out = sched(ctx_with(views(2)))  # no operator label
        assert out == []

    def test_invalid_fractions_rejected(self):
        with pytest.raises(ValueError):
            SlicedScheduler({"a": 0.7, "b": 0.5})
        with pytest.raises(ValueError):
            SlicedScheduler({})
        with pytest.raises(ValueError):
            SlicedScheduler({"a": -0.1})

    def test_per_slice_policies(self):
        sched = SlicedScheduler({"mno": 0.5, "mvno": 0.5},
                                policies={"mvno": "group_based"})
        assert isinstance(sched._inner["mvno"], GroupScheduler)
        assert isinstance(sched._inner["mno"], FairShareScheduler)


class TestGroup:
    def test_premium_gets_more(self):
        sched = GroupScheduler(premium_fraction=0.7)
        ues = ([UeView(rnti=70 + i, queue_bytes=10 ** 6, cqi=10,
                       labels={"group": "premium"}) for i in range(2)]
               + [UeView(rnti=80 + i, queue_bytes=10 ** 6, cqi=10,
                         labels={"group": "secondary"}) for i in range(2)])
        out = sched(ctx_with(ues, n_prb=50))
        premium = sum(a.n_prb for a in out if a.rnti < 80)
        secondary = sum(a.n_prb for a in out if a.rnti >= 80)
        assert premium == 35 and secondary == 15

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            GroupScheduler(premium_fraction=1.5)
        with pytest.raises(ValueError):
            GroupScheduler(premium_fraction="x")

    @pytest.mark.parametrize("bad", [1.5, -0.1, float("nan"), "x", None])
    def test_reconfiguration_validates_fraction(self, bad):
        sched = GroupScheduler(premium_fraction=0.6)
        with pytest.raises(ValueError):
            sched.set_parameter("premium_fraction", bad)
        assert sched.parameters["premium_fraction"] == 0.6

    def test_reconfiguration_accepts_the_bounds(self):
        sched = GroupScheduler()
        for good in (0, 1, 0.25):
            sched.set_parameter("premium_fraction", good)
            assert sched.parameters["premium_fraction"] == good


class TestRegistry:
    def test_make_scheduler(self):
        assert isinstance(make_scheduler("round_robin"), RoundRobinScheduler)
        assert isinstance(make_scheduler("null"), NullScheduler)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_scheduler("bogus")

    def test_a_slice_policy_is_a_registered_name(self):
        """A slice's policy name comes over the wire: it is built by
        :func:`make_scheduler`, and an unknown one raises."""
        assert isinstance(make_scheduler("group_based"), GroupScheduler)
        with pytest.raises(ValueError):
            make_scheduler("nope")
        with pytest.raises(ValueError):
            SlicedScheduler({"mno": 1.0}, policies={"mno": "nope"})


class TestRetransmissionHelper:
    def test_budget_respected(self):
        retx = [PendingRetx(rnti=70, harq_pid=0, n_prb=30, cqi_used=9,
                            tb_bits=1, attempt=2),
                PendingRetx(rnti=71, harq_pid=0, n_prb=30, cqi_used=9,
                            tb_bits=1, attempt=2)]
        out = schedule_retransmissions(ctx_with([], pending_retx=retx), 50)
        assert len(out) == 1  # second does not fit


@settings(max_examples=50, deadline=None)
@given(
    n_prb=st.integers(min_value=1, max_value=100),
    queues=st.lists(st.integers(min_value=0, max_value=10 ** 7),
                    min_size=0, max_size=30),
    cqis=st.lists(st.integers(min_value=0, max_value=15),
                  min_size=30, max_size=30),
    which=st.sampled_from(["round_robin", "fair_share",
                           "proportional_fair", "max_cqi"]),
)
def test_property_no_scheduler_oversubscribes(n_prb, queues, cqis, which):
    ues = [UeView(rnti=70 + i, queue_bytes=q, cqi=cqis[i])
           for i, q in enumerate(queues)]
    out = make_scheduler(which)(ctx_with(ues, n_prb=n_prb))
    assert sum(a.n_prb for a in out) <= n_prb
    scheduled = [a.rnti for a in out if not a.is_retx]
    assert len(scheduled) == len(set(scheduled))  # one DCI per UE
    for a in out:
        ue = next(u for u in ues if u.rnti == a.rnti)
        assert ue.queue_bytes > 0 and ue.cqi > 0


@st.composite
def round_robin_inputs(draw):
    """A cell's views in any order (unique RNTIs, some idle or at CQI 0),
    its pending retransmissions, its PRB budget and a rotation index."""
    rntis = draw(st.lists(st.integers(min_value=70, max_value=130),
                          unique=True, max_size=20))
    ues = draw(st.permutations([
        UeView(rnti=rnti,
               queue_bytes=draw(st.sampled_from([0, 1, 300, 1500, 10 ** 7])),
               cqi=draw(st.integers(min_value=0, max_value=15)))
        for rnti in rntis]))
    retx = draw(st.lists(st.builds(
        PendingRetx, rnti=st.integers(min_value=70, max_value=135),
        harq_pid=st.integers(min_value=0, max_value=7),
        n_prb=st.integers(min_value=1, max_value=30),
        cqi_used=st.integers(min_value=1, max_value=15),
        tb_bits=st.just(1000), attempt=st.just(2)),
        max_size=4, unique_by=lambda r: (r.rnti, r.harq_pid)))
    n_prb = draw(st.integers(min_value=0, max_value=100))
    next_index = draw(st.integers(min_value=0, max_value=60))
    return ues, retx, n_prb, next_index


@settings(max_examples=300, deadline=None)
@given(inputs=round_robin_inputs())
def test_round_robin_matches_the_rotate_copy_oracle(inputs):
    """The in-place walk decides exactly what rotating a copy did."""
    ues, retx, n_prb, next_index = inputs

    def ctx():
        return ctx_with(list(ues), n_prb=n_prb, pending_retx=list(retx))

    want, want_next = rotate_copy_refilter(ctx(), next_index)
    sched = RoundRobinScheduler()
    sched._next_index = next_index
    assert sched.schedule(ctx()) == want
    assert sched._next_index == want_next


@st.composite
def pf_inputs(draw):
    """A run of TTIs over one pool of RNTIs: each TTI's views are a
    subset of the pool (UEs join and leave), with few distinct CQIs and
    starting averages so that metrics tie, some idle or at CQI 0, plus
    pending retransmissions and a PRB budget."""
    pool = draw(st.lists(st.integers(min_value=70, max_value=130),
                         unique=True, min_size=1, max_size=16))
    start = {rnti: draw(st.sampled_from([0.0, 0.5, 0.8, 1.0, 700.0, 2800.0]))
             for rnti in draw(st.lists(st.sampled_from(pool), unique=True))}
    alpha = draw(st.one_of(
        st.just(1.0), st.floats(min_value=0.0, max_value=1.0,
                                exclude_min=True)))
    ttis = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        present = draw(st.lists(st.sampled_from(pool), unique=True))
        ues = [UeView(rnti=rnti,
                      queue_bytes=draw(st.sampled_from(
                          [0, 1, 300, 1500, 20_000, 10 ** 7])),
                      cqi=draw(st.sampled_from([0, 1, 7, 7, 15])))
               for rnti in present]
        retx = draw(st.lists(st.builds(
            PendingRetx, rnti=st.sampled_from(pool),
            harq_pid=st.integers(min_value=0, max_value=7),
            n_prb=st.integers(min_value=1, max_value=30),
            cqi_used=st.integers(min_value=1, max_value=15),
            tb_bits=st.just(1000), attempt=st.just(2)),
            max_size=3, unique_by=lambda r: (r.rnti, r.harq_pid)))
        n_prb = draw(st.integers(min_value=1, max_value=50))
        ttis.append((ues, retx, n_prb))
    return start, alpha, ttis


@settings(max_examples=300, deadline=None)
@given(inputs=pf_inputs())
def test_proportional_fair_matches_the_max_per_pick_oracle(inputs):
    """Ranking once per TTI and the bulk EWMA decide and average exactly
    what a max per pick and a per-UE update did, TTI after TTI."""
    start, alpha, ttis = inputs
    sched = ProportionalFairScheduler(ewma_alpha=alpha)
    sched._avg_rate = dict(start)
    oracle = dict(start)
    for tti, (ues, retx, n_prb) in enumerate(ttis):
        def ctx():
            return ctx_with(list(ues), n_prb=n_prb, tti=tti,
                            pending_retx=list(retx))

        assert sched.schedule(ctx()) == max_per_pick(ctx(), oracle, alpha)
        assert hexed(sched._avg_rate) == hexed(oracle)

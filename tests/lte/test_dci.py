"""Tests for scheduling decision structures and allocation validation."""

import pytest

from repro.lte.mac.dci import (
    DlAssignment,
    SchedulingContext,
    UeView,
    UlGrant,
    validate_allocation,
)


def view(rnti, queue=1000, cqi=10, **kw):
    return UeView(rnti=rnti, queue_bytes=queue, cqi=cqi, **kw)


class TestDlAssignment:
    def test_valid(self):
        a = DlAssignment(rnti=70, n_prb=10, cqi_used=12)
        assert a.lcid == 3 and not a.is_retx

    @pytest.mark.parametrize("kw", [
        dict(rnti=0, n_prb=1, cqi_used=1),
        dict(rnti=70, n_prb=0, cqi_used=1),
        dict(rnti=70, n_prb=1, cqi_used=16),
    ])
    def test_invalid_rejected(self, kw):
        with pytest.raises(ValueError):
            DlAssignment(**kw)


class TestUlGrant:
    def test_valid(self):
        UlGrant(rnti=70, n_prb=5, cqi_used=7)

    def test_zero_prbs_rejected(self):
        with pytest.raises(ValueError):
            UlGrant(rnti=70, n_prb=0, cqi_used=7)


class TestSchedulingContext:
    def test_ue_lookup(self):
        ctx = SchedulingContext(tti=0, n_prb=50,
                                ues=[view(70), view(71)])
        assert ctx.ue(71).rnti == 71
        assert ctx.ue(99) is None

    def test_backlogged_sorted_and_filtered(self):
        ctx = SchedulingContext(tti=0, n_prb=50, ues=[
            view(72), view(70), view(71, queue=0)])
        assert [u.rnti for u in ctx.backlogged()] == [70, 72]


class TestValidateAllocation:
    def test_within_budget_ok(self):
        validate_allocation(
            [DlAssignment(rnti=70, n_prb=25, cqi_used=10),
             DlAssignment(rnti=71, n_prb=25, cqi_used=10)], 50)

    def test_oversubscription_rejected(self):
        with pytest.raises(ValueError):
            validate_allocation(
                [DlAssignment(rnti=70, n_prb=30, cqi_used=10),
                 DlAssignment(rnti=71, n_prb=30, cqi_used=10)], 50)

    def test_duplicate_rnti_rejected(self):
        with pytest.raises(ValueError):
            validate_allocation(
                [DlAssignment(rnti=70, n_prb=5, cqi_used=10),
                 DlAssignment(rnti=70, n_prb=5, cqi_used=12)], 50)

    def test_retx_plus_new_data_same_rnti_allowed(self):
        validate_allocation(
            [DlAssignment(rnti=70, n_prb=5, cqi_used=10, is_retx=True,
                          harq_pid=0),
             DlAssignment(rnti=70, n_prb=5, cqi_used=10)], 50)

    def test_total_prbs(self):
        # The one walk that validates also sums the PRBs used.
        assert validate_allocation(
            [DlAssignment(rnti=70, n_prb=7, cqi_used=1),
             DlAssignment(rnti=71, n_prb=3, cqi_used=1)], 10) == 10

    def test_retransmission_without_a_process_rejected(self):
        with pytest.raises(ValueError, match="without a HARQ process"):
            validate_allocation(
                [DlAssignment(rnti=70, n_prb=5, cqi_used=10, is_retx=True)],
                50)

    def test_oversubscription_is_reported_first(self):
        with pytest.raises(ValueError, match="PRBs but the cell"):
            validate_allocation(
                [DlAssignment(rnti=70, n_prb=30, cqi_used=10),
                 DlAssignment(rnti=70, n_prb=30, cqi_used=10),
                 DlAssignment(rnti=71, n_prb=5, cqi_used=10, is_retx=True)],
                50)

"""Tests for the RRC state machine."""

import pytest

from repro.lte.enodeb import EnbEventType, EnodeB
from repro.lte.phy.channel import FixedCqi
from repro.lte.rrc import (
    ATTACH_SIGNALLING_BYTES,
    ATTACH_TIMEOUT_TTIS,
    RA_DELAY_TTIS,
    RrcEntity,
    RrcEvent,
    RrcState,
)
from repro.lte.ue import Ue
from tests.calls import count


@pytest.fixture
def rrc():
    return RrcEntity(set().add)


class TestAttach:
    def test_start_attach_enters_random_access(self, rrc):
        ctx = rrc.start_attach(70, tti=5)
        assert ctx.state is RrcState.RANDOM_ACCESS
        assert ctx.ra_tti == 5

    def test_duplicate_attach_rejected(self, rrc):
        rrc.start_attach(70, 0)
        with pytest.raises(ValueError):
            rrc.start_attach(70, 1)

    def test_setup_due_after_ra_delay(self, rrc):
        rrc.start_attach(70, 0)
        assert not rrc.setup_due(70, RA_DELAY_TTIS - 1)
        assert rrc.setup_due(70, RA_DELAY_TTIS)
        # only once
        assert not rrc.setup_due(70, RA_DELAY_TTIS + 1)
        assert rrc.context(70).state is RrcState.CONNECTING

    def test_connected_after_signalling_delivered(self, rrc):
        rrc.start_attach(70, 0)
        rrc.setup_due(70, RA_DELAY_TTIS)
        rrc.srb_delivered(70, ATTACH_SIGNALLING_BYTES - 1, 20)
        assert rrc.state_of(70) is not RrcState.CONNECTED
        rrc.srb_delivered(70, 1, 21)
        assert rrc.state_of(70) is RrcState.CONNECTED
        assert rrc.context(70).connected_tti == 21

    def test_timeout_fails_attach(self, rrc):
        rrc.start_attach(70, 0)
        assert rrc.check_timeouts(ATTACH_TIMEOUT_TTIS) == []
        assert rrc.check_timeouts(ATTACH_TIMEOUT_TTIS + 1) == [70]
        assert rrc.context(70).state is RrcState.FAILED

    def test_connected_ue_does_not_time_out(self, rrc):
        rrc.start_attach(70, 0)
        rrc.setup_due(70, RA_DELAY_TTIS)
        rrc.srb_delivered(70, ATTACH_SIGNALLING_BYTES, 20)
        assert rrc.check_timeouts(10 ** 6) == []


class TestEvents:
    def test_event_sequence(self, rrc):
        events = []
        rrc.subscribe(lambda ev, rnti, tti: events.append((ev, rnti)))
        rrc.start_attach(70, 0)
        rrc.setup_due(70, RA_DELAY_TTIS)
        rrc.srb_delivered(70, ATTACH_SIGNALLING_BYTES, 30)
        assert events == [(RrcEvent.RANDOM_ACCESS, 70),
                          (RrcEvent.UE_ATTACHED, 70)]

    def test_failure_event(self, rrc):
        events = []
        rrc.subscribe(lambda ev, rnti, tti: events.append(ev))
        rrc.start_attach(70, 0)
        rrc.check_timeouts(ATTACH_TIMEOUT_TTIS + 1)
        assert RrcEvent.ATTACH_FAILED in events

    def test_handover_event(self, rrc):
        events = []
        rrc.subscribe(lambda ev, rnti, tti: events.append(ev))
        rrc.start_attach(70, 0)
        rrc.complete_handover(70, 100)
        assert RrcEvent.HANDOVER_COMPLETE in events
        assert rrc.context(70).handovers == 1


class TestLifecycle:
    def test_release_removes_context(self, rrc):
        rrc.start_attach(70, 0)
        rrc.release(70)
        with pytest.raises(KeyError):
            rrc.context(70)

    def test_contexts_sorted(self, rrc):
        rrc.start_attach(75, 0)
        rrc.start_attach(71, 0)
        assert sorted(rrc._contexts) == [71, 75]

    def test_unknown_rnti_rejected(self, rrc):
        with pytest.raises(KeyError):
            rrc.context(99)


def _started_setups(enb):
    """``[(tti, rnti)]`` of every SRB1 setup *enb*'s RRC starts."""
    started = []
    setup_due = enb.rrc.setup_due

    def recording(rnti, tti):
        due = setup_due(rnti, tti)
        if due:
            started.append((tti, rnti))
        return due

    enb.rrc.setup_due = recording
    return started


def _attach(enb, n, tti):
    return [enb.attach_ue(Ue(f"{tti:03d}{i:03d}", FixedCqi(12)), tti=tti)
            for i in range(n)]


class TestSupervisionByDueTti:
    """The eNodeB visits an attach when it is due, not on every TTI."""

    def test_setups_start_at_their_due_tti_in_rnti_order(self):
        enb = EnodeB(1)
        started = _started_setups(enb)
        early = _attach(enb, 3, 0)
        late = _attach(enb, 2, 4)
        for tti in range(30):
            enb.tick(tti)
        assert started == ([(RA_DELAY_TTIS, r) for r in early]
                           + [(4 + RA_DELAY_TTIS, r) for r in late])

    def test_setups_due_in_skipped_ttis_start_at_the_next_plan(self):
        enb = EnodeB(1)
        started = _started_setups(enb)
        early = _attach(enb, 2, 0)
        late = _attach(enb, 2, 3)
        for tti in (0, RA_DELAY_TTIS - 1, RA_DELAY_TTIS + 5):
            enb.tick(tti)
        assert started == [(RA_DELAY_TTIS + 5, r) for r in early + late]

    def test_a_timeout_fires_one_tti_past_the_deadline(self):
        enb = EnodeB(1)
        enb.dl_scheduler[10] = lambda ctx: []  # SRB1 is never delivered
        failed = []
        enb.subscribe(lambda ev: ev.type is EnbEventType.ATTACH_FAILED
                      and failed.append((ev.tti, ev.rnti)))
        (rnti,) = _attach(enb, 1, 5)
        for tti in (5, 5 + RA_DELAY_TTIS, 5 + ATTACH_TIMEOUT_TTIS):
            enb.tick(tti)
        assert failed == []
        enb.tick(5 + ATTACH_TIMEOUT_TTIS + 1)
        assert failed == [(5 + ATTACH_TIMEOUT_TTIS + 1, rnti)]
        assert enb.rrc.state_of(rnti) is RrcState.FAILED

    def test_a_settled_attach_leaves_no_live_entry(self, rrc):
        for rnti in (70, 71, 72, 73):
            rrc.start_attach(rnti, 0)
        assert rrc.due_setups(RA_DELAY_TTIS) == [70, 71, 72, 73]
        rrc.srb_delivered(70, ATTACH_SIGNALLING_BYTES, 20)  # connected
        rrc.release(71)
        # 72 and 73 are still in flight: the entries of 70 and 71 are
        # skipped, so only 72 and 73 fail at the deadline.
        assert rrc.check_timeouts(ATTACH_TIMEOUT_TTIS + 1) == [72, 73]
        assert rrc.attaching == set()
        assert rrc._setups == [] and rrc._deadlines == []
        # A released UE's setup falls due with nothing to start.
        rrc.start_attach(80, 5000)
        rrc.start_attach(81, 5000)
        rrc.release(80)
        assert rrc.due_setups(5000 + RA_DELAY_TTIS) == [81]

    def test_a_connecting_ue_costs_no_call_per_tti(self):
        """The call ceiling: with the attaches in CONNECTING and none
        due, a TTI's supervision costs the same for 100 UEs as for 1."""
        def supervision_calls(n):
            enb = EnodeB(1)
            _attach(enb, n, 0)
            enb._advance_rrc(RA_DELAY_TTIS)  # every setup starts
            assert len(enb.rrc.attaching) == n
            return count(enb._advance_rrc, RA_DELAY_TTIS + 1)

        one, hundred = supervision_calls(1), supervision_calls(100)
        assert hundred.total == one.total <= 3, hundred

"""Tests for the RRC state machine."""

import pytest

from repro.lte.rrc import (
    ATTACH_SIGNALLING_BYTES,
    ATTACH_TIMEOUT_TTIS,
    RA_DELAY_TTIS,
    RrcEntity,
    RrcEvent,
    RrcState,
)


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
        assert not rrc.is_connected(70)
        rrc.srb_delivered(70, 1, 21)
        assert rrc.is_connected(70)
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
        assert [c.rnti for c in rrc.contexts()] == [71, 75]

    def test_unknown_rnti_rejected(self, rrc):
        with pytest.raises(KeyError):
            rrc.context(99)

"""Tests for HARQ entities and FDD timing."""

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.lte.constants import HARQ_PROCESSES, HARQ_RTT_TTIS, MAX_HARQ_TX
from repro.lte.mac.harq import HarqEntity, HarqPool


def start_block(entity, tti=0, **kw):
    defaults = dict(pid=None, tb_bits=8000, payload_bytes=1000,
                    cqi_used=10, n_prb=10, lcid=3, tti=tti)
    defaults.update(kw)
    return entity.start(**defaults)


class TestHarqEntity:
    def test_all_processes_initially_free(self):
        e = HarqEntity(70, set().add)
        assert e.busy_count() == 0
        assert e.free_process().pid == 0

    def test_start_occupies_process(self):
        e = HarqEntity(70, set().add)
        proc = start_block(e)
        assert proc.busy and proc.attempt == 1
        assert e.busy_count() == 1

    def test_exhausting_processes(self):
        e = HarqEntity(70, set().add)
        for _ in range(HARQ_PROCESSES):
            start_block(e)
        assert e.free_process() is None
        with pytest.raises(RuntimeError):
            start_block(e)

    def test_ack_frees_process(self):
        e = HarqEntity(70, set().add)
        proc = start_block(e)
        assert e.feedback(proc.pid, ok=True) is None
        assert e.busy_count() == 0
        assert e.acked_blocks == 1

    def test_nack_marks_retx(self):
        e = HarqEntity(70, set().add)
        proc = start_block(e)
        assert e.feedback(proc.pid, ok=False) is None
        assert proc.needs_retx
        assert e.nacked_blocks == 1

    def test_retx_timing_respects_harq_rtt(self):
        e = HarqEntity(70, set().add)
        proc = start_block(e, tti=100)
        e.feedback(proc.pid, ok=False)
        assert e.pending_retx(100 + HARQ_RTT_TTIS - 1) == []
        pending = e.pending_retx(100 + HARQ_RTT_TTIS)
        assert len(pending) == 1
        assert pending[0].attempt == 2
        assert pending[0].tb_bits == 8000

    def test_retransmit_increments_attempt(self):
        e = HarqEntity(70, set().add)
        proc = start_block(e, tti=0)
        e.feedback(proc.pid, ok=False)
        proc2 = e.retransmit(proc.pid, tti=8)
        assert proc2.attempt == 2
        assert proc2.awaiting_feedback

    def test_drop_after_max_attempts(self):
        e = HarqEntity(70, set().add)
        proc = start_block(e, tti=0)
        drop = None
        tti = 0
        for attempt in range(MAX_HARQ_TX):
            drop = e.feedback(proc.pid, ok=False)
            if attempt < MAX_HARQ_TX - 1:
                assert drop is None
                tti += HARQ_RTT_TTIS
                e.retransmit(proc.pid, tti)
        assert drop is not None
        assert drop.payload_bytes == 1000
        assert e.dropped_blocks == 1
        assert e.busy_count() == 0

    def test_unexpected_feedback_rejected(self):
        e = HarqEntity(70, set().add)
        with pytest.raises(RuntimeError):
            e.feedback(0, ok=True)

    def test_retransmit_without_pending_rejected(self):
        e = HarqEntity(70, set().add)
        proc = start_block(e)
        with pytest.raises(RuntimeError):
            e.retransmit(proc.pid, tti=8)

    def test_concurrent_processes_independent(self):
        e = HarqEntity(70, set().add)
        p0 = start_block(e, tti=0)
        p1 = start_block(e, tti=1, payload_bytes=500)
        assert p0.pid != p1.pid
        e.feedback(p0.pid, ok=True)
        assert e.busy_count() == 1
        assert e.processes[p1.pid].payload_bytes == 500


class TestHarqPool:
    def test_entity_per_rnti(self):
        pool = HarqPool(set().add)
        assert pool.entity(70) is pool.entity(70)
        assert pool.entity(70) is not pool.entity(71)

    def test_all_pending_retx_ordered(self):
        pool = HarqPool(set().add)
        for rnti in (72, 70):
            proc = start_block(pool.entity(rnti), tti=0)
            pool.entity(rnti).feedback(proc.pid, ok=False)
        pending = pool.all_pending_retx(HARQ_RTT_TTIS)
        assert [p.rnti for p in pending] == [70, 72]

    def test_remove(self):
        pool = HarqPool(set().add)
        proc = start_block(pool.entity(70), tti=0)
        pool.entity(70).feedback(proc.pid, ok=False)
        pool.remove(70)
        assert pool.all_pending_retx(100) == []


class RetxBookkeeping(RuleBasedStateMachine):
    """The entity's count of NACKed blocks and the pool's candidate set
    are maintained on transitions only; a scan must always agree."""

    RNTIS = (70, 71, 72)

    def __init__(self):
        super().__init__()
        self.pool = HarqPool(set().add)
        self.attached = set()
        self.tti = 0

    def entity(self, rnti):
        self.attached.add(rnti)
        return self.pool.entity(rnti)

    @rule(rnti=st.sampled_from(RNTIS))
    def start(self, rnti):
        entity = self.entity(rnti)
        self.tti += 1
        if entity.free_process() is None:
            with pytest.raises(RuntimeError):
                start_block(entity, tti=self.tti)
        else:
            start_block(entity, tti=self.tti)

    @rule(rnti=st.sampled_from(RNTIS), pid=st.integers(0, HARQ_PROCESSES - 1),
          ok=st.booleans())
    def feedback(self, rnti, pid, ok):
        entity = self.entity(rnti)
        if entity.processes[pid].awaiting_feedback:
            entity.feedback(pid, ok)
        else:
            with pytest.raises(RuntimeError):
                entity.feedback(pid, ok)

    @rule(rnti=st.sampled_from(RNTIS), pid=st.integers(0, HARQ_PROCESSES - 1))
    def retransmit(self, rnti, pid):
        entity = self.entity(rnti)
        self.tti += 1
        proc = entity.processes[pid]
        if proc.busy and proc.needs_retx:
            entity.retransmit(pid, self.tti)
        else:
            with pytest.raises(RuntimeError):
                entity.retransmit(pid, self.tti)

    @rule(rnti=st.sampled_from(RNTIS))
    def remove(self, rnti):
        self.pool.remove(rnti)
        self.attached.discard(rnti)

    @invariant()
    def count_and_set_agree_with_a_scan(self):
        waiting = set()
        for rnti in self.attached:
            entity = self.pool.entity(rnti)
            scanned = sum(p.busy and p.needs_retx for p in entity.processes)
            assert entity._retx_count == scanned
            assert entity.has_pending_retx() == (scanned > 0)
            if scanned:
                waiting.add(rnti)
        assert self.pool._retx_rntis == waiting
        assert ({p.rnti for p in self.pool.all_pending_retx(self.tti + 100)}
                == waiting)


RetxBookkeeping.TestCase.settings = settings(
    max_examples=100, stateful_step_count=60, deadline=None)
TestRetxBookkeeping = RetxBookkeeping.TestCase

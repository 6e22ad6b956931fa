"""Tests for transmission queues, including property-based invariants."""

import pytest
from hypothesis import given, strategies as st

from repro.lte.mac.queues import DEFAULT_LCID, QueueSet, TransmissionQueue


class TestTransmissionQueue:
    def test_starts_empty(self):
        q = TransmissionQueue()
        assert q.size_bytes == 0
        assert not q

    def test_push_and_total(self):
        q = TransmissionQueue()
        assert q.push(100, tti=1)
        assert q.push(200, tti=2)
        assert q.size_bytes == 300

    def test_pop_exact_packet(self):
        q = TransmissionQueue()
        q.push(100, 0)
        assert q.pop_bytes(100, 1) == 100
        assert q.size_bytes == 0

    def test_pop_segments_head_packet(self):
        q = TransmissionQueue()
        q.push(1000, 0)
        assert q.pop_bytes(300, 1) == 300
        assert q.size_bytes == 700
        assert q.pop_bytes(700, 2) == 700  # remainder stays at head

    def test_pop_spans_packets(self):
        q = TransmissionQueue()
        q.push(100, 0)
        q.push(100, 0)
        q.push(100, 0)
        assert q.pop_bytes(250, 1) == 250
        assert q.size_bytes == 50

    def test_pop_more_than_available(self):
        q = TransmissionQueue()
        q.push(80, 0)
        assert q.pop_bytes(500, 1) == 80

    def test_overflow_drops_tail(self):
        q = TransmissionQueue(limit_bytes=250)
        assert q.push(200, 0)
        assert not q.push(100, 0)
        assert q.size_bytes == 200
        assert q.dropped_packets == 1
        assert q.dropped_bytes == 100

    def test_push_front_ignores_limit(self):
        q = TransmissionQueue(limit_bytes=100)
        q.push(100, 0)
        q.push_front(50, 0)
        assert q.size_bytes == 150
        assert q.pop_bytes(50, 1) == 50  # front bytes come out first

    def test_invalid_sizes_rejected(self):
        q = TransmissionQueue()
        with pytest.raises(ValueError):
            q.push(0, 0)
        with pytest.raises(ValueError):
            q.pop_bytes(-1, 0)
        with pytest.raises(ValueError):
            TransmissionQueue(limit_bytes=0)

    @given(st.lists(st.integers(min_value=1, max_value=2000), max_size=40),
           st.lists(st.integers(min_value=0, max_value=3000), max_size=40))
    def test_byte_conservation(self, pushes, pops):
        """enqueued == dequeued + backlog, always."""
        q = TransmissionQueue()
        for i, size in enumerate(pushes):
            q.push(size, i)
        for i, budget in enumerate(pops):
            q.pop_bytes(budget, i)
        assert q.enqueued_bytes == q.dequeued_bytes + q.size_bytes

    @given(st.lists(st.tuples(st.booleans(),
                              st.integers(min_value=1, max_value=1500)),
                    max_size=60))
    def test_size_never_negative(self, ops):
        q = TransmissionQueue(limit_bytes=5000)
        for push, amount in ops:
            if push:
                q.push(amount, 0)
            else:
                q.pop_bytes(amount, 0)
            assert q.size_bytes >= 0
            assert (q.size_bytes > 0) == bool(q)


class TestQueueSet:
    def test_creates_queues_on_demand(self):
        qs = QueueSet()
        qs.queue(1).push(10, 0)
        qs.queue(3).push(20, 0)
        assert qs.sizes() == {1: 10, 3: 20}

    def test_default_lcid(self):
        qs = QueueSet()
        qs.queue().push(99, 0)
        assert qs.sizes() == {DEFAULT_LCID: 99}

    def test_shared_limit_applied_per_queue(self):
        qs = QueueSet(limit_bytes=100)
        assert qs.queue(3).push(100, 0)
        assert not qs.queue(3).push(1, 0)

"""Tests for the barrier-free credit scheduler (repro.cluster.credits)."""

import pytest

from repro.cluster.credits import CreditScheduler


class TestCreditScheduler:
    def test_initial_grants_are_one_window(self):
        credits = CreditScheduler(100, 10, [0, 1])
        assert dict(credits.grants()) == {0: 10, 1: 10}

    def test_no_regrant_until_low_water_moves(self):
        credits = CreditScheduler(100, 10, [0, 1])
        credits.grants()
        credits.report(0, 10)  # shard 1 still at 0 -> low water pinned
        assert credits.grants() == []

    def test_low_water_extends_everyone(self):
        credits = CreditScheduler(100, 10, [0, 1])
        credits.grants()
        credits.report(0, 10)
        credits.report(1, 4)
        assert dict(credits.grants()) == {0: 14, 1: 14}

    def test_grant_clamped_to_total(self):
        credits = CreditScheduler(12, 10, [0])
        assert credits.grants() == [(0, 10)]
        credits.report(0, 10)
        assert credits.grants() == [(0, 12)]

    def test_fast_shard_bounded_by_window(self):
        """A shard can lead the slowest by at most one window."""
        credits = CreditScheduler(1000, 16, [0, 1])
        credits.grants()
        credits.report(0, 16)  # fast shard exhausts its grant
        assert credits.grants() == []  # no extension: slow shard at 0
        assert credits.granted(0) - credits.low_water() == 16

    def test_slow_shard_does_not_block_below_window(self):
        """Barrier-free: shards within the window never wait."""
        credits = CreditScheduler(1000, 16, [0, 1])
        credits.grants()
        credits.report(0, 8)
        credits.report(1, 2)
        assert dict(credits.grants()) == {0: 18, 1: 18}
        assert credits.max_lead() == 6

    def test_progress_must_not_regress(self):
        credits = CreditScheduler(100, 10, [0])
        credits.report(0, 5)
        with pytest.raises(ValueError, match="backwards"):
            credits.report(0, 3)

    def test_reset_shard_restarts_it_only(self):
        credits = CreditScheduler(100, 10, [0, 1])
        credits.grants()
        credits.report(0, 10)
        credits.report(1, 10)
        credits.grants()
        credits.reset_shard(1)
        assert credits.low_water() == 0
        assert credits.progress(0) == 10
        # The reset shard gets a fresh first-window grant; the healthy
        # shard keeps its larger existing grant untouched.
        assert dict(credits.grants()) == {1: 10}
        assert credits.granted(0) == 20

    def test_all_done(self):
        """The fleet is done when the low-water mark reaches the run
        total, that is when the slowest shard has."""
        credits = CreditScheduler(20, 10, [0, 1])
        credits.report(0, 20)
        assert credits.low_water() < 20
        credits.report(1, 20)
        assert credits.low_water() == 20

    def test_report_beyond_total_clamped(self):
        credits = CreditScheduler(20, 10, [0])
        credits.report(0, 25)
        assert credits.progress(0) == 20

    def test_validation(self):
        with pytest.raises(ValueError):
            CreditScheduler(0, 10, [0])
        with pytest.raises(ValueError):
            CreditScheduler(10, 0, [0])
        with pytest.raises(ValueError):
            CreditScheduler(10, 5, [])


class TestRemoveShard:
    """Quarantine support: a removed shard stops pinning the fleet."""

    def test_low_water_recomputed_over_survivors(self):
        credits = CreditScheduler(100, 10, [0, 1])
        credits.grants()
        credits.report(0, 7)  # shard 1 stuck at 0 pins the low water
        assert credits.low_water() == 0
        credits.remove_shard(1)
        assert credits.low_water() == 7
        assert credits.shard_ids() == [0]
        # The survivor's grant extends past the dead shard's stall.
        assert dict(credits.grants()) == {0: 17}

    def test_all_done_ignores_removed_shards(self):
        credits = CreditScheduler(20, 10, [0, 1])
        credits.report(0, 20)
        assert credits.low_water() < 20
        credits.remove_shard(1)
        assert credits.low_water() == 20

    def test_removing_every_shard_unpins_the_master(self):
        """A fully quarantined fleet must not hang the master's tick
        loop: the vacuous low-water mark jumps to the run total."""
        credits = CreditScheduler(50, 10, [0])
        credits.remove_shard(0)
        assert credits.low_water() == 50
        assert credits.max_lead() == 0
        assert credits.grants() == []

    def test_straggler_report_from_removed_shard_ignored(self):
        credits = CreditScheduler(100, 10, [0, 1])
        credits.remove_shard(1)
        credits.report(1, 42)  # no KeyError, no resurrection
        assert credits.shard_ids() == [0]
        assert credits.low_water() == 0

    def test_remove_is_idempotent(self):
        credits = CreditScheduler(100, 10, [0, 1])
        credits.remove_shard(1)
        credits.remove_shard(1)
        assert credits.shard_ids() == [0]

"""Unit tests for the shard supervisor (repro.cluster.supervise).

The supervisor only *decides* -- spawning, RIB moves and credit resets
stay on the runtime -- so these tests drive it against a stub runtime
exposing exactly the narrow surface the class documents: ``_handles``,
``credits``, ``respawn_shard`` and ``quarantine_shard``.  Real-process
failure paths live in the slow e2e suite.
"""

import time

import pytest

from repro.cluster.credits import CreditScheduler
from repro.cluster.supervise import (
    FAIL_CONNECTION,
    FAIL_PIPE_EOF,
    FAIL_PROCESS_DEATH,
    FAIL_STALL,
    FAIL_WORKER_ERROR,
    FAILURE_CAUSES,
    ClusterDeadlineError,
    ShardSupervisionPolicy,
    ShardSupervisor,
    backoff_delay,
)


class StubProcess:
    def __init__(self):
        self.alive = True
        self.exitcode = None

    def is_alive(self):
        return self.alive

    def terminate(self):
        self.alive = False
        self.exitcode = -15

    def join(self, timeout=None):
        pass


class StubHandle:
    def __init__(self):
        self.process = StubProcess()
        self.done = False
        self.ready = True
        self.quarantined = False


class StubRuntime:
    """The narrow surface ShardSupervisor drives, nothing more."""

    def __init__(self, shard_ids, total_ttis=100, window=10):
        self.credits = CreditScheduler(total_ttis, window, shard_ids)
        self._handles = {s: StubHandle() for s in shard_ids}
        self.respawned = []
        self.quarantines = []

    def respawn_shard(self, shard_id):
        self.respawned.append(shard_id)
        self.credits.reset_shard(shard_id)
        handle = self._handles[shard_id]
        handle.process = StubProcess()
        handle.ready = True

    def quarantine_shard(self, shard_id):
        self.quarantines.append(shard_id)
        handle = self._handles[shard_id]
        handle.quarantined = True
        handle.done = True
        self.credits.remove_shard(shard_id)


def make(shard_ids=(0, 1), **policy_kwargs):
    policy_kwargs.setdefault("backoff_base_s", 0.0)
    runtime = StubRuntime(list(shard_ids))
    supervisor = ShardSupervisor(
        runtime, ShardSupervisionPolicy(**policy_kwargs))
    return runtime, supervisor


class TestBackoffDelay:
    def test_doubles_until_the_cap(self):
        policy = ShardSupervisionPolicy(backoff_base_s=0.1, backoff_cap_s=0.5)
        delays = [backoff_delay(policy, a) for a in range(5)]
        assert delays == pytest.approx([0.1, 0.2, 0.4, 0.5, 0.5])

    def test_negative_attempt_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            backoff_delay(ShardSupervisionPolicy(), -1)

    def test_causes_vocabulary_is_closed(self):
        assert set(FAILURE_CAUSES) == {
            FAIL_WORKER_ERROR, FAIL_CONNECTION, FAIL_PIPE_EOF,
            FAIL_PROCESS_DEATH, FAIL_STALL}


class TestFailureIntake:
    def test_fresh_failure_schedules_respawn(self):
        runtime, supervisor = make()
        assert supervisor.note_failure(0, FAIL_PIPE_EOF, "gone")
        assert supervisor.pending_respawns() == [0]
        failure = supervisor.failures[0]
        assert failure.cause == FAIL_PIPE_EOF
        assert failure.action == "respawn"
        assert failure.attempt == 0

    def test_duplicate_reports_dropped_while_healing(self):
        """A SIGKILL surfaces as pipe EOF *and* process death; only the
        first classification sticks."""
        runtime, supervisor = make()
        assert supervisor.note_failure(0, FAIL_PIPE_EOF, "first")
        assert not supervisor.note_failure(0, FAIL_PROCESS_DEATH, "dup")
        assert len(supervisor.failures) == 1
        assert supervisor.failures[0].cause == FAIL_PIPE_EOF

    def test_done_shard_failures_ignored(self):
        runtime, supervisor = make()
        runtime._handles[1].done = True
        assert not supervisor.note_failure(1, FAIL_PROCESS_DEATH, "late")
        assert supervisor.failures == []

    def test_unknown_shard_ignored(self):
        runtime, supervisor = make()
        assert not supervisor.note_failure(99, FAIL_PIPE_EOF, "who")

    def test_respawn_fires_and_counts_attempts(self):
        runtime, supervisor = make()
        supervisor.note_failure(0, FAIL_WORKER_ERROR, "boom")
        assert supervisor.poll()  # backoff_base_s=0 -> due immediately
        assert runtime.respawned == [0]
        assert supervisor.attempts(0) == 1
        assert supervisor.pending_respawns() == []
        assert len(supervisor.respawn_latency_s) == 1

    def test_backoff_delays_the_respawn(self):
        runtime, supervisor = make(backoff_base_s=30.0)
        supervisor.note_failure(0, FAIL_PIPE_EOF, "gone")
        supervisor.poll()
        assert runtime.respawned == []  # still backing off
        assert supervisor.pending_respawns() == [0]


class TestBudgetAndQuarantine:
    def test_budget_exhaustion_quarantines(self):
        runtime, supervisor = make(respawn_budget=1)
        supervisor.note_failure(0, FAIL_PIPE_EOF, "first")
        supervisor.poll()  # consumes the only respawn
        assert runtime.respawned == [0]
        supervisor.note_failure(0, FAIL_PIPE_EOF, "second")
        assert runtime.quarantines == [0]
        assert supervisor.quarantined == {0}
        assert [f.action for f in supervisor.failures] == [
            "respawn", "quarantine"]
        # Degraded mode: the scheduler only counts the survivor.
        assert runtime.credits.shard_ids() == [1]

    def test_zero_budget_quarantines_immediately(self):
        runtime, supervisor = make(respawn_budget=0)
        supervisor.note_failure(1, FAIL_PROCESS_DEATH, "dead on arrival")
        assert runtime.respawned == []
        assert runtime.quarantines == [1]
        assert supervisor.failures[0].action == "quarantine"

    def test_quarantined_shard_reports_dropped(self):
        runtime, supervisor = make(respawn_budget=0)
        supervisor.note_failure(0, FAIL_PIPE_EOF, "gone")
        assert not supervisor.note_failure(0, FAIL_PIPE_EOF, "still gone")
        assert len(supervisor.failures) == 1


class TestDetectors:
    def test_process_death_detected_by_liveness_poll(self):
        runtime, supervisor = make()
        runtime._handles[1].process.alive = False
        runtime._handles[1].process.exitcode = -9
        assert supervisor.poll()
        failure = supervisor.failures[0]
        assert failure.shard_id == 1
        assert failure.cause == FAIL_PROCESS_DEATH
        assert "-9" in failure.detail
        supervisor.poll()  # the zero backoff elapses by the next pass
        assert runtime.respawned == [1]

    def test_stall_watchdog_fires_with_unspent_credit(self):
        runtime, supervisor = make(stall_timeout_s=0.01)
        runtime.credits.grants()  # both shards hold a full window
        supervisor.start_run()
        time.sleep(0.03)
        assert supervisor.poll()
        causes = {f.cause for f in supervisor.failures}
        assert causes == {FAIL_STALL}
        assert supervisor.stall_seconds > 0

    def test_stall_watchdog_quiet_when_out_of_credit(self):
        """Silence without credit is the scheduler's doing, not the
        worker's -- the activity clock restarts instead of firing."""
        runtime, supervisor = make(stall_timeout_s=0.01)
        # granted == progress == 0: no shard holds unspent credit.
        supervisor.start_run()
        time.sleep(0.03)
        supervisor.poll()
        assert supervisor.failures == []

    def test_stall_watchdog_disarmed_before_start_run(self):
        runtime, supervisor = make(stall_timeout_s=0.01)
        runtime.credits.grants()
        time.sleep(0.03)
        supervisor.poll()  # fleet still starting up: liveness only
        assert supervisor.failures == []

    def test_activity_resets_the_stall_clock(self):
        runtime, supervisor = make(stall_timeout_s=0.05)
        runtime.credits.grants()
        supervisor.start_run()
        for _ in range(4):
            time.sleep(0.02)
            supervisor.note_activity(0)
            supervisor.note_activity(1)
            supervisor.poll()
        assert supervisor.failures == []


class TestDeadline:
    def test_deadline_raises_with_diagnostic_dump(self):
        runtime, supervisor = make(run_deadline_s=0.01)
        supervisor.start_run()
        time.sleep(0.03)
        with pytest.raises(ClusterDeadlineError) as excinfo:
            supervisor.poll()
        dump = str(excinfo.value)
        assert "deadline" in dump
        assert "shard" in dump  # the per-shard table header

    def test_zero_deadline_disables_the_backstop(self):
        runtime, supervisor = make(run_deadline_s=0.0)
        supervisor.start_run()
        time.sleep(0.02)
        supervisor.poll()  # no raise

    def test_dump_shows_quarantined_and_failures(self):
        runtime, supervisor = make(respawn_budget=0)
        supervisor.note_failure(0, FAIL_WORKER_ERROR, "kaput")
        dump = supervisor.diagnostic_dump()
        assert "quarantined" in dump
        assert "kaput" in dump
        assert "[worker_error]" in dump


class TestFailureRecord:
    def test_to_dict_round_trips(self):
        runtime, supervisor = make()
        supervisor.note_failure(0, FAIL_PIPE_EOF, "gone")
        payload = supervisor.failures[0].to_dict()
        assert payload == {
            "shard_id": 0, "cause": "pipe_eof", "detail": "gone",
            "at_s": payload["at_s"], "attempt": 0, "action": "respawn"}

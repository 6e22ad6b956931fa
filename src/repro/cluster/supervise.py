"""Self-healing shard supervision for the cluster runtime.

PR 7's sharded runtime treated any worker failure as fatal: a worker
``error`` aborted the whole fleet, and a silently killed worker (no
error message, just a dead pipe) deadlocked the credit pump forever.
vRAN deployments treat component restart as the *common case*, so the
:class:`ShardSupervisor` turns shard failure into a managed lifecycle:

1. **Detect** -- five independent detectors, each classifying its
   failure cause instead of raising:

   * ``worker_error``  -- the worker reported an exception on its pipe;
   * ``connection_closed`` -- the master found one of the shard's TCP
     connections closed (EOF, reset, or closed under it);
   * ``pipe_eof``      -- the control pipe hit EOF (worker vanished,
     e.g. SIGKILL -- the silent-death case);
   * ``process_death`` -- ``process.is_alive()`` went false while the
     shard still owed TTIs;
   * ``stall``         -- the low-water watchdog: a *ready* shard with
     unspent credit produced no progress for ``stall_timeout_s``.

2. **Heal** -- respawn through the runtime's existing
   snapshot-handoff path (:meth:`ClusterRuntime.respawn_shard`) with
   capped exponential backoff and a per-shard respawn budget.

3. **Degrade** -- once a shard exhausts its budget it is
   *quarantined*: its process is reaped, its agents leave the RIB, and
   it is removed from the credit scheduler so the rest of the fleet
   completes without it (degraded mode) instead of waiting forever.

4. **Fail fast** -- a run-level deadline backstops everything: if the
   fleet still cannot finish, :class:`ClusterDeadlineError` carries a
   per-shard diagnostic dump rather than letting the pump hang.

The supervisor only *decides*; the mechanics (spawning processes,
moving RIB subtrees, resetting credits) stay on the runtime, which
keeps this module unit-testable against a stub runtime.
"""

from __future__ import annotations

import logging
import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Set

from repro import obs as _obs
from repro.core.survive.supervisor import capped_doubling

logger = logging.getLogger(__name__)

# Failure causes (the classification vocabulary; also the obs metric
# suffixes under ``cluster.failures.<cause>``).
FAIL_WORKER_ERROR = "worker_error"
FAIL_CONNECTION = "connection_closed"
FAIL_PIPE_EOF = "pipe_eof"
FAIL_PROCESS_DEATH = "process_death"
FAIL_STALL = "stall"

FAILURE_CAUSES = (FAIL_WORKER_ERROR, FAIL_CONNECTION, FAIL_PIPE_EOF,
                  FAIL_PROCESS_DEATH, FAIL_STALL)


BACKOFF_CAP_S = 2.0
"""Cap of a shard's doubled respawn delay."""


class ClusterDeadlineError(RuntimeError):
    """The run-level deadline expired; the message is the diagnostic
    dump (per-shard progress, liveness, failures) at expiry."""


@dataclass(frozen=True)
class ShardSupervisionPolicy:
    """Knobs governing detection and healing.

    ``respawn_budget`` is per shard; ``run_deadline_s`` of 0 disables
    the fail-fast backstop (tests that want to observe a hang should
    never do that).
    """

    stall_timeout_s: float = 10.0
    respawn_budget: int = 3
    backoff_base_s: float = 0.05
    run_deadline_s: float = 120.0

    def __post_init__(self) -> None:
        if self.stall_timeout_s <= 0:
            raise ValueError(
                f"stall_timeout_s must be positive, got {self.stall_timeout_s}")
        if self.respawn_budget < 0:
            raise ValueError(
                f"respawn_budget must be >= 0, got {self.respawn_budget}")
        if self.backoff_base_s < 0:
            raise ValueError(
                f"backoff_base_s must be >= 0, got {self.backoff_base_s}")
        if self.run_deadline_s < 0:
            raise ValueError(
                f"run_deadline_s must be >= 0, got {self.run_deadline_s}")


@dataclass
class ShardFailure:
    """One classified shard failure (JSON-able via ``to_dict``)."""

    shard_id: int
    cause: str
    detail: str
    at_s: float
    """Seconds since the supervised run started (0.0 during startup)."""
    attempt: int
    """Respawns already consumed by this shard when the failure hit."""
    action: str
    """What the supervisor decided: ``respawn`` or ``quarantine``."""

    def to_dict(self) -> dict:
        return asdict(self)


def backoff_delay(policy: ShardSupervisionPolicy, attempt: int) -> float:
    """Respawn delay before attempt *attempt* (0-based), capped at
    :data:`BACKOFF_CAP_S`."""
    return capped_doubling(policy.backoff_base_s, BACKOFF_CAP_S, attempt)


class ShardSupervisor:
    """Watches the worker fleet and heals or quarantines failed shards.

    Lives on the master's pump thread: every method is called from the
    pump loop, so no locking is needed.  *runtime* only has to provide the narrow
    surface the detectors and healers use: ``_handles`` (with
    ``spec`` / ``process`` / ``pipe`` / ``done`` / ``ready`` /
    ``quarantined``), ``credits``, ``respawn_shard(shard_id)`` and
    ``quarantine_shard(shard_id)``.
    """

    def __init__(self, runtime, policy: ShardSupervisionPolicy) -> None:
        self.runtime = runtime
        self.policy = policy
        self.failures: List[ShardFailure] = []
        self.respawn_latency_s: List[float] = []
        self.stall_seconds: float = 0.0
        self._pending: Dict[int, float] = {}  # shard -> respawn due time
        self._attempts: Dict[int, int] = {}
        self._last_activity: Dict[int, float] = {}
        self._epoch: Optional[float] = None
        self._deadline: Optional[float] = None

    @property
    def quarantined(self) -> Set[int]:
        """The shards whose handle ``quarantine_shard`` flagged."""
        return {shard_id for shard_id, handle in self.runtime._handles.items()
                if handle.quarantined}

    # -- lifecycle ---------------------------------------------------------

    def start_run(self) -> None:
        """Arm the stall watchdog and the run deadline.  Called when
        the pump starts, so the deadline also covers fleet start-up."""
        now = time.monotonic()
        self._epoch = now
        if self.policy.run_deadline_s > 0:
            self._deadline = now + self.policy.run_deadline_s
        for shard_id in self.runtime._handles:
            self._last_activity[shard_id] = now

    def note_activity(self, shard_id: int) -> None:
        """A sign of life (ready/progress/done message, or a respawn)."""
        self._last_activity[shard_id] = time.monotonic()

    # -- failure intake ----------------------------------------------------

    def note_failure(self, shard_id: int, cause: str,
                     detail: str) -> bool:
        """Record one classified failure and decide the response.

        Returns True when the failure was fresh (first report wins:
        a SIGKILL surfaces as both pipe EOF and process death, and a
        broken pipe keeps being broken on every poll -- duplicates for
        a shard already healing or quarantined are dropped).
        """
        handle = self.runtime._handles.get(shard_id)
        if (handle is None or handle.done or handle.quarantined
                or shard_id in self._pending):
            return False
        now = time.monotonic()
        at_s = round(now - self._epoch, 3) if self._epoch else 0.0
        attempt = self._attempts.get(shard_id, 0)
        respawn = attempt < self.policy.respawn_budget
        failure = ShardFailure(
            shard_id=shard_id, cause=cause, detail=detail, at_s=at_s,
            attempt=attempt,
            action="respawn" if respawn else "quarantine")
        self.failures.append(failure)
        ob = _obs.live
        if ob is not None:
            ob.registry.counter("cluster.failures").inc()
            ob.registry.counter("cluster.failures." + cause).inc()
        logger.warning(
            "cluster: shard %d failed (%s: %s) -> %s",
            shard_id, cause, detail, failure.action)
        if respawn:
            self._pending[shard_id] = now + backoff_delay(
                self.policy, attempt)
        else:
            self._quarantine(shard_id)
        return True

    # -- the periodic poll -------------------------------------------------

    def poll(self) -> bool:
        """One supervision pass; returns True when it acted.

        Order matters: the deadline backstop first (never mask a hung
        fleet behind endless healing), then the liveness and stall
        detectors, then due respawns.
        """
        now = time.monotonic()
        if self._deadline is not None and now > self._deadline:
            raise ClusterDeadlineError(
                f"cluster run exceeded its "
                f"{self.policy.run_deadline_s:.0f}s deadline\n"
                + self.diagnostic_dump())
        worked = self._detect(now)
        worked |= self._heal(now)
        return worked

    def _detect(self, now: float) -> bool:
        worked = False
        credits = self.runtime.credits
        for shard_id, handle in list(self.runtime._handles.items()):
            if (handle.done or handle.quarantined
                    or shard_id in self._pending):
                continue
            if not handle.process.is_alive():
                worked |= self.note_failure(
                    shard_id, FAIL_PROCESS_DEATH,
                    f"worker process exited "
                    f"(exitcode {handle.process.exitcode})")
                continue
            if self._epoch is None or not handle.ready:
                continue  # stall watchdog arms once the run is live
            if credits.granted(shard_id) <= credits.progress(shard_id):
                # Out of credit: silence is the scheduler's doing, not
                # the worker's.  Restart the stall clock.
                self._last_activity[shard_id] = now
                continue
            silent_s = now - self._last_activity.get(shard_id, now)
            if silent_s > self.policy.stall_timeout_s:
                self.stall_seconds += silent_s
                ob = _obs.live
                if ob is not None:
                    ob.registry.gauge(
                        "cluster.stall.seconds").add(silent_s)
                headroom = (credits.granted(shard_id)
                            - credits.progress(shard_id))
                worked |= self.note_failure(
                    shard_id, FAIL_STALL,
                    f"no progress for {silent_s:.2f}s with {headroom} "
                    f"granted TTIs unspent")
        return worked

    def _heal(self, now: float) -> bool:
        worked = False
        for shard_id, due in list(self._pending.items()):
            if now < due:
                continue
            del self._pending[shard_id]
            started = time.perf_counter()
            self.runtime.respawn_shard(shard_id)
            latency_s = time.perf_counter() - started
            self._attempts[shard_id] = self._attempts.get(shard_id, 0) + 1
            self.respawn_latency_s.append(latency_s)
            self.note_activity(shard_id)
            ob = _obs.live
            if ob is not None:
                ob.registry.histogram(
                    "cluster.respawn.latency_ms").observe(latency_s * 1e3)
            worked = True
        return worked

    def _quarantine(self, shard_id: int) -> None:
        self.runtime.quarantine_shard(shard_id)
        ob = _obs.live
        if ob is not None:
            ob.registry.gauge("cluster.shards.degraded").set(
                len(self.quarantined))

    # -- diagnostics -------------------------------------------------------

    def pending_respawns(self) -> List[int]:
        return sorted(self._pending)

    def diagnostic_dump(self) -> str:
        """Per-shard state at a glance (the fail-fast payload)."""
        credits = self.runtime.credits
        lines = ["shard  progress  granted  ready  done  alive  "
                 "respawns  state"]
        for shard_id in sorted(self.runtime._handles):
            handle = self.runtime._handles[shard_id]
            if handle.quarantined:
                progress = granted = "-"
                state = "quarantined"
            else:
                progress = str(credits.progress(shard_id))
                granted = str(credits.granted(shard_id))
                state = ("respawn_pending"
                         if shard_id in self._pending else "running")
            lines.append(
                f"{shard_id:>5}  {progress:>8}  {granted:>7}  "
                f"{str(handle.ready):>5}  {str(handle.done):>4}  "
                f"{str(handle.process.is_alive()):>5}  "
                f"{self._attempts.get(shard_id, 0):>8}  {state}")
        if self.failures:
            lines.append("failures:")
            for f in self.failures:
                lines.append(
                    f"  t+{f.at_s:.3f}s shard {f.shard_id} "
                    f"[{f.cause}] {f.detail} -> {f.action}")
        return "\n".join(lines)

"""Barrier-free TTI-epoch coordination for sharded runs.

A per-TTI barrier across worker processes would re-serialize the fleet
on its slowest member every millisecond -- exactly the cost sharding is
supposed to remove.  Instead the master runs a *credit* scheme:

* every shard reports its completed-TTI count as it goes;
* the **low-water mark** is the minimum over all shards;
* each shard may run ahead of the low-water mark by at most a fixed
  ``window`` of TTIs -- its *grant* is ``low_water + window``;
* the master itself ticks only TTIs below the low-water mark, so the
  cross-shard RIB view it serves is never ahead of any shard's
  actually-produced reports.

No shard ever waits for an explicit round-end: a slow shard cannot
stall the others until they exhaust a whole window (flow control, not
lockstep), and a fast shard's unused grant is never revoked --
grants only grow, so a worker can always make progress against its
latest grant even while the scheduler state moves.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple


class CreditScheduler:
    """Tracks per-shard progress and computes monotonic TTI grants."""

    def __init__(self, total_ttis: int, window: int,
                 shard_ids: Iterable[int]) -> None:
        if total_ttis <= 0:
            raise ValueError(f"total_ttis must be positive: {total_ttis}")
        if window <= 0:
            raise ValueError(f"window must be positive: {window}")
        self.total_ttis = total_ttis
        self.window = window
        self._progress: Dict[int, int] = {s: 0 for s in shard_ids}
        if not self._progress:
            raise ValueError("need at least one shard")
        self._granted: Dict[int, int] = {s: 0 for s in self._progress}

    def low_water(self) -> int:
        """Completed-TTI count every live shard has reached.

        With every shard removed (a fully quarantined fleet) the bound
        is vacuous, so the low-water mark jumps to ``total_ttis`` --
        the master may finish its ticks instead of waiting forever.
        """
        if not self._progress:
            return self.total_ttis
        return min(self._progress.values())

    def progress(self, shard_id: int) -> int:
        return self._progress[shard_id]

    def report(self, shard_id: int, completed: int) -> None:
        """Record that *shard_id* has completed *completed* TTIs.

        Progress is monotonic per shard except through
        :meth:`reset_shard` (a respawned worker restarts at zero).
        """
        if shard_id not in self._progress:
            return  # straggler report from a removed (quarantined) shard
        if completed < self._progress[shard_id]:
            raise ValueError(
                f"shard {shard_id} progress went backwards: "
                f"{completed} < {self._progress[shard_id]}")
        self._progress[shard_id] = min(completed, self.total_ttis)

    def reset_shard(self, shard_id: int) -> None:
        """A respawned shard restarts its run from TTI 0.

        Its grant is also reset -- the replacement worker process has
        never seen the old grants -- while every other shard keeps its
        existing grant (grants never shrink), so the rest of the fleet
        keeps running through its remaining credit.
        """
        self._progress[shard_id] = 0
        self._granted[shard_id] = 0

    def remove_shard(self, shard_id: int) -> None:
        """Quarantine: stop counting *shard_id* entirely.

        The low-water mark (and therefore everyone's grants and the
        master's tick target) is computed over the remaining shards, so
        an unrecoverable shard no longer pins the fleet -- degraded
        mode completes without it.  Removal is idempotent.
        """
        self._progress.pop(shard_id, None)
        self._granted.pop(shard_id, None)

    def grants(self) -> List[Tuple[int, int]]:
        """New ``(shard_id, grant)`` pairs since the last call.

        A shard's grant is ``min(total, low_water + window)``, clamped
        to never decrease.  Only changed grants are returned, so the
        caller sends each extension exactly once.
        """
        limit = min(self.total_ttis, self.low_water() + self.window)
        changed: List[Tuple[int, int]] = []
        for shard_id, old in self._granted.items():
            if limit > old:
                self._granted[shard_id] = limit
                changed.append((shard_id, limit))
        return changed

    def granted(self, shard_id: int) -> int:
        return self._granted[shard_id]

    def shard_ids(self) -> List[int]:
        """Live (non-removed) shard ids."""
        return sorted(self._progress)

    def max_lead(self) -> int:
        """How far the fastest shard is ahead of the slowest."""
        if not self._progress:
            return 0
        return max(self._progress.values()) - self.low_water()

"""Conflict resolution for third-party application commands.

Section 7.3 of the paper names this as the first missing piece for
supporting third-party network applications: "such a mechanism should
prohibit the deployment of multiple applications that may
simultaneously issue scheduling decisions for the same resource
blocks, effectively leading to conflicts".

The resolver arbitrates scheduling commands *at admission time*,
before they reach the wire.  For each (agent, cell, target-TTI) it
tracks the admitted allocation; a later command for the same target is

* **allowed** if it fits in the remaining PRBs and touches no already-
  scheduled UE (the two commands are merged at the agent by sending
  the union),
* **replaced** if it comes from a strictly higher-priority application
  (a replacement command overwrites the stored decision at the agent's
  remote stub),
* **denied** otherwise.

Targets older than the retention window are garbage-collected as time
advances; admission visits only those, not every target still held.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.protocol.messages import DciSpec


class ConflictOutcome(enum.Enum):
    ALLOWED = "allowed"
    MERGED = "merged"
    REPLACED = "replaced"
    DENIED = "denied"


@dataclass
class AdmittedDecision:
    """The allocation admitted so far for one (agent, cell, target)."""

    priority: int
    assignments: List[DciSpec] = field(default_factory=list)

    @property
    def prbs(self) -> int:
        return sum(a.n_prb for a in self.assignments)

    @property
    def rntis(self) -> set:
        return {a.rnti for a in self.assignments}


RETENTION_TTIS = 128
"""How long past its target TTI an admitted decision is remembered."""


@dataclass
class ConflictCounters:
    allowed: int = 0
    merged: int = 0
    replaced: int = 0
    denied: int = 0


class ConflictResolver:
    """Admission control over centralized scheduling commands."""

    def __init__(self) -> None:
        #: target TTI -> (kind, agent, cell) -> the decision admitted.
        self._admitted: Dict[int, Dict[Tuple[str, int, int],
                                       AdmittedDecision]] = {}
        # The keys of _admitted as a min-heap.  Targets arrive out of
        # order (agents' subframe estimates differ), and collection pops
        # only the targets that fell below the horizon.
        self._targets: List[int] = []
        self.counters = ConflictCounters()

    def admit(self, agent_id: int, cell_id: int, target_tti: int,
              assignments: Sequence[DciSpec], *,
              n_prb_limit: Optional[int], priority: int, now: int,
              kind: str = "dl"
              ) -> Tuple[ConflictOutcome, List[DciSpec]]:
        """Arbitrate one command.

        Returns the outcome and the assignment list to actually send:
        for MERGED/REPLACED outcomes this is the full (merged or
        replacing) decision the agent should hold for the target TTI;
        for DENIED it is empty.  ``kind`` namespaces the admission
        table: downlink and uplink allocations of the same target TTI
        use disjoint PRB budgets and never conflict with each other.
        """
        admitted, targets = self._admitted, self._targets
        horizon = now - RETENTION_TTIS
        while targets and targets[0] < horizon:
            del admitted[heapq.heappop(targets)]
        if target_tti in admitted:
            decisions = admitted[target_tti]
        else:
            admitted[target_tti] = decisions = {}
            heapq.heappush(targets, target_tti)
        key = (kind, agent_id, cell_id)
        incoming = list(assignments)
        existing = decisions.get(key)

        if existing is None:
            decisions[key] = AdmittedDecision(priority, incoming)
            self.counters.allowed += 1
            return ConflictOutcome.ALLOWED, incoming

        overlap_rntis = existing.rntis & {a.rnti for a in incoming}
        total_prbs = existing.prbs + sum(a.n_prb for a in incoming)
        fits = (not overlap_rntis
                and (n_prb_limit is None or total_prbs <= n_prb_limit))
        if fits:
            merged = existing.assignments + incoming
            decisions[key] = AdmittedDecision(
                max(existing.priority, priority), merged)
            self.counters.merged += 1
            return ConflictOutcome.MERGED, merged

        if priority > existing.priority:
            decisions[key] = AdmittedDecision(priority, incoming)
            self.counters.replaced += 1
            return ConflictOutcome.REPLACED, incoming

        self.counters.denied += 1
        return ConflictOutcome.DENIED, []

"""RAN sharing & virtualization use case (Section 6.3).

An MNO hosts MVNOs on its radio infrastructure.  The agent side runs a
sliced downlink scheduler (UEs carry an ``operator`` label, each
operator owns a fraction of the PRBs); an application at the master
uses the *policy reconfiguration* mechanism to change those fractions
-- and even the per-operator scheduling discipline -- on demand and at
runtime, exactly the Fig. 12 experiments:

* Fig. 12a: resource fractions rewritten live at t=10 s (70/30 ->
  40/60) and t=140 s (-> 80/20).
* Fig. 12b: the MNO slice runs a fair policy while the MVNO slice runs
  a premium/secondary group policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.apps.base import App
from repro.core.controller.northbound import NorthboundApi


@dataclass
class ShareChange:
    """One scheduled reallocation of operator resource fractions."""

    at_tti: int
    fractions: Dict[str, float]


class RanSharingApp(App):
    """Drives the sliced agent-side scheduler through policy messages."""

    name = "ran_sharing"
    priority = 50
    period_ttis = 1

    def __init__(self, *, agent_id: int,
                 initial_fractions: Dict[str, float],
                 changes: Sequence[ShareChange] = (),
                 policies: Optional[Dict[str, str]] = None) -> None:
        self.agent_id = agent_id
        self.initial_fractions = dict(initial_fractions)
        self.changes: List[ShareChange] = sorted(changes, key=lambda c: c.at_tti)
        #: Optional per-operator inner scheduling policy names, e.g.
        #: ``{"mvno": "group_based"}`` for the Fig. 12b experiment.
        self.policies = dict(policies or {})
        self._installed = False
        self._change_index = 0
        self.applied_changes: List[Tuple[int, Dict[str, float]]] = []

    def run(self, tti: int, nb: NorthboundApi) -> None:
        if not self._installed:
            if self.agent_id not in nb.agent_ids():
                return
            params: Dict[str, Any] = {"fractions": self.initial_fractions}
            if self.policies:
                params["policies"] = self.policies
            nb.push_vsf(self.agent_id, "mac", "dl_scheduling", "sliced",
                        "scheduler:sliced", params)
            nb.reconfigure_vsf(self.agent_id, "mac", "dl_scheduling",
                               behavior="sliced")
            self._installed = True
        while (self._change_index < len(self.changes)
               and self.changes[self._change_index].at_tti <= tti):
            change = self.changes[self._change_index]
            nb.reconfigure_vsf(
                self.agent_id, "mac", "dl_scheduling",
                parameters={"fractions": change.fractions})
            self.applied_changes.append((tti, dict(change.fractions)))
            self._change_index += 1

"""RRC control module: mobility and carrier actions.

Control decisions (when to hand a UE over, when to aggregate a
carrier) belong to the controller; this module owns the corresponding
*actions*: executing handovers and (de)activating secondary carriers
through the agent API.  The handover VSF is swappable like any other, so a
deployment can e.g. replace the immediate execution with a make-
before-break variant pushed from the master.
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.core.agent.api import AgentDataPlaneApi
from repro.core.agent.cmi import ControlModule
from repro.core.protocol.messages import CaCommand, HandoverCommand


@dataclass
class HandoverRequest:
    """One handover action to execute."""

    rnti: int
    source_cell: int
    target_cell: int
    tti: int


class ImmediateHandover:
    """Default handover VSF: execute the move right away."""

    def __init__(self, api: AgentDataPlaneApi) -> None:
        self._api = api
        self.executed = 0
        self.failed = 0

    def __call__(self, request: HandoverRequest) -> bool:
        ok = self._api.perform_handover(
            request.rnti, request.source_cell, request.target_cell,
            request.tti)
        if ok:
            self.executed += 1
        else:
            self.failed += 1
        return ok


class RrcControlModule(ControlModule):
    """The RRC control module of a FlexRAN agent."""

    name = "rrc"
    OPERATIONS = ("handover",)

    def __init__(self, api: AgentDataPlaneApi) -> None:
        super().__init__()
        self._api = api
        self.register_vsf("handover", "immediate", ImmediateHandover(api))
        self.activate("handover", "immediate")

    def message_handlers(self):
        return {HandoverCommand: self._on_handover,
                CaCommand: self._on_ca}

    def _on_handover(self, message: HandoverCommand, now: int) -> None:
        self.execute_handover(
            message.rnti, message.source_cell, message.target_cell, now)

    def _on_ca(self, message: CaCommand, now: int) -> None:
        self._api.set_scell(message.rnti, message.scell_id,
                            message.activate, tti=now)

    def execute_handover(self, rnti: int, source_cell: int,
                         target_cell: int, tti: int) -> bool:
        """Run the active handover VSF for one command."""
        return self.invoke("handover", HandoverRequest(
            rnti=rnti, source_cell=source_cell, target_cell=target_cell,
            tti=tti))

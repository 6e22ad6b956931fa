"""RRC control module: mobility actions and measurement configuration.

Control decisions (when to hand a UE over) belong to the controller;
this module owns the corresponding *actions*: executing handovers
through the agent API and configuring how often UEs refresh channel
measurements.  The handover VSF is swappable like any other, so a
deployment can e.g. replace the immediate execution with a make-
before-break variant pushed from the master.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

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


class MeasurementConfig:
    """Measurement-configuration VSF with a tunable reporting gap.

    Exposes ``set_parameter`` so the master's policy reconfiguration
    can adjust the measurement period ("modify threshold of signal
    quality for handover initiation" is the paper's Table 1 example of
    this call class).
    """

    def __init__(self) -> None:
        self.parameters: Dict[str, Any] = {
            "period_ttis": 10,
            "a3_hysteresis_cqi": 1,
        }

    def set_parameter(self, name: str, value: Any) -> None:
        if name not in self.parameters:
            raise KeyError(
                f"measurement config has no parameter {name!r}; available: "
                f"{sorted(self.parameters)}")
        self.parameters[name] = value

    def __call__(self) -> Dict[str, Any]:
        return dict(self.parameters)


class RrcControlModule(ControlModule):
    """The RRC control module of a FlexRAN agent."""

    name = "rrc"
    OPERATIONS = ("handover", "measurement_config")

    def __init__(self, api: AgentDataPlaneApi) -> None:
        super().__init__()
        self._api = api
        self.register_vsf("handover", "immediate", ImmediateHandover(api))
        self.register_vsf("measurement_config", "default",
                          MeasurementConfig())
        self.activate("handover", "immediate")
        self.activate("measurement_config", "default")

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

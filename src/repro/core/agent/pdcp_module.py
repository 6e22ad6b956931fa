"""PDCP control module.

PDCP has no *control* to delegate in LTE (its decisions -- header
compression profile, ciphering -- are static in this model), so the
module declares no operation: it exists so the control-module
structure matches the paper's Fig. 2, and a policy addressed to it is
rejected like one naming any other unknown operation.  Per-bearer PDCP
counters reach the master in the statistics reports.
"""

from __future__ import annotations

from repro.core.agent.api import AgentDataPlaneApi
from repro.core.agent.cmi import ControlModule


class PdcpControlModule(ControlModule):
    """The PDCP control module of a FlexRAN agent."""

    name = "pdcp"

    def __init__(self, api: AgentDataPlaneApi) -> None:
        super().__init__()
        self._api = api

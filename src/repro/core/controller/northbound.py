"""Northbound API: what controller applications program against.

Applications "monitor the infrastructure through the information
obtained from the RIB and apply their control decisions through the
agent control modules" (Section 4.4).  Crucially, apps never mutate
the RIB: every state change travels as a command to an agent and
re-enters the RIB through statistics and events -- the indirection of
the paper's Fig. 5 that keeps the RIB single-writer.

Two API invariants hold across every command method:

* **Every command returns its xid** (or ``None`` when the conflict
  resolver denied it outright), so callers can correlate a command with
  its downstream effects through the obs xid correlator
  (docs/OBSERVABILITY.md) without re-deriving transaction ids.
* **Statistics subscriptions are first-class handles.**
  :meth:`NorthboundApi.subscribe_stats` returns a
  :class:`StatsSubscription` that owns its xid and knows how to
  ``renew()`` (same xid -- the agent's ReportsManager overwrites in
  place).  The raw :meth:`request_stats` remains as the low-level
  primitive the handle is built on.
"""

from __future__ import annotations

import logging

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Union

from repro.core.controller.conflicts import ConflictOutcome, ConflictResolver
from repro.core.delegation import pack_vsf
from repro.core.policy import build_policy
from repro.core.protocol.messages import (
    AbsPatternConfig,
    BearerQosConfig,
    CaCommand,
    ConfigRequest,
    DciSpec,
    DlMacCommand,
    DrxCommand,
    EchoRequest,
    HandoverCommand,
    Header,
    PolicyReconfiguration,
    PrbCapConfig,
    ReportType,
    StatsFlags,
    StatsRequest,
    SyncConfig,
    UlMacCommand,
    VsfUpdate,
)
from repro.lte.mac.dci import DlAssignment

logger = logging.getLogger(__name__)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.controller.master import MasterController
    from repro.core.controller.rib import Rib


@dataclass
class CommandCounters:
    """Outbound command volume (debug/monitoring)."""

    dl_commands: int = 0
    ul_commands: int = 0
    dcis: int = 0
    policies: int = 0
    vsf_updates: int = 0
    stats_requests: int = 0
    config_ops: int = 0
    handovers: int = 0


@dataclass
class StatsSubscription:
    """A live statistics subscription: the app-facing handle.

    Wraps one agent-side ReportsManager registration.  The handle owns
    the subscription's xid for its whole lifetime: ``renew()`` re-sends
    the request under the *same* xid (the agent overwrites the existing
    registration in place, which makes renewal idempotent and safe over
    a lossy control channel).  Stats
    replies carry this xid in their header, so matching replies to the
    subscription that caused them is a dictionary lookup.
    """

    api: "NorthboundApi"
    agent_id: int
    xid: int
    report_type: "ReportType"
    period_ttis: int
    flags: int
    active: bool = True

    def renew(self) -> int:
        """Re-assert the subscription (e.g. after a master failover or
        a long silence on a lossy link); returns the xid."""
        self.api._master.send(self.agent_id, StatsRequest(
            header=Header(xid=self.xid, tti=self.api.now),
            report_type=int(self.report_type),
            period_ttis=self.period_ttis, flags=self.flags))
        self.api.counters.stats_requests += 1
        self.active = True
        return self.xid


class NorthboundApi:
    """The FlexRAN Application API (currently the only abstraction
    level: raw RIB access plus typed commands, as in the paper)."""

    def __init__(self, master: "MasterController") -> None:
        self._master = master
        self.counters = CommandCounters()
        #: Arbitration of scheduling commands across applications
        #: (the Section 7.3 conflict-resolution mechanism).
        self.conflicts = ConflictResolver()
        self._current_app_priority = 0

    def set_current_app(self, app) -> None:
        """Task-Manager hook: attribute commands to the running app."""
        self._current_app_priority = getattr(app, "priority", 0)

    # -- monitoring (read-only RIB access) --------------------------------

    @property
    def rib(self) -> "Rib":
        return self._master.rib

    @property
    def now(self) -> int:
        return self._master.now

    def agent_ids(self) -> List[int]:
        return self.rib.agent_ids()

    def live_agent_ids(self) -> List[int]:
        """Agents the master still considers reachable (not DEAD)."""
        return self._master.live_agent_ids()

    # -- commands ----------------------------------------------------------

    def send_dl_command(self, agent_id: int, cell_id: int, target_tti: int,
                        assignments: Sequence[Union[DlAssignment, DciSpec]]
                        ) -> Optional[int]:
        """Push one TTI's centralized scheduling decision to an agent.

        Returns the command's xid, or ``None`` when the conflict
        resolver denied the command (nothing was sent).
        """
        dcis = [a if isinstance(a, DciSpec)
                else DciSpec(rnti=a.rnti, n_prb=a.n_prb, cqi_used=a.cqi_used)
                for a in assignments]
        outcome, decision = self.conflicts.admit(
            agent_id, cell_id, target_tti, dcis,
            n_prb_limit=self._cell_prb_limit(agent_id, cell_id),
            priority=self._current_app_priority, now=self._master.now)
        if outcome is ConflictOutcome.DENIED:
            logger.warning(
                "conflict resolver denied a scheduling command for "
                "agent %d cell %d target %d (priority %d)",
                agent_id, cell_id, target_tti,
                self._current_app_priority)
            return None
        header = self._header()
        self._master.send(agent_id, DlMacCommand(
            header=header, cell_id=cell_id,
            target_tti=target_tti, assignments=decision))
        self.counters.dl_commands += 1
        self.counters.dcis += len(decision)
        return header.xid

    def _cell_prb_limit(self, agent_id: int, cell_id: int, *,
                        direction: str = "dl") -> Optional[int]:
        try:
            cell = self.rib.agent(agent_id).cells.get(cell_id)
        except KeyError:
            return None
        if cell is None or cell.config is None:
            return None
        return (cell.config.n_prb_ul if direction == "ul"
                else cell.config.n_prb_dl)

    def send_ul_command(self, agent_id: int, cell_id: int, target_tti: int,
                        grants: Sequence[Union[DlAssignment, DciSpec]]
                        ) -> Optional[int]:
        """Push one TTI's centralized uplink-grant decision.

        Symmetric with :meth:`send_dl_command`: the command passes
        through conflict admission (in the uplink namespace, against
        the cell's uplink PRB budget) before it is transmitted.
        Returns the xid, or ``None`` when the command was denied.
        """
        specs = [g if isinstance(g, DciSpec)
                 else DciSpec(rnti=g.rnti, n_prb=g.n_prb,
                              cqi_used=g.cqi_used)
                 for g in grants]
        outcome, decision = self.conflicts.admit(
            agent_id, cell_id, target_tti, specs,
            n_prb_limit=self._cell_prb_limit(agent_id, cell_id,
                                             direction="ul"),
            priority=self._current_app_priority, now=self._master.now,
            kind="ul")
        if outcome is ConflictOutcome.DENIED:
            logger.warning(
                "conflict resolver denied an uplink scheduling command "
                "for agent %d cell %d target %d (priority %d)",
                agent_id, cell_id, target_tti,
                self._current_app_priority)
            return None
        header = self._header()
        self._master.send(agent_id, UlMacCommand(
            header=header, cell_id=cell_id,
            target_tti=target_tti, grants=decision))
        self.counters.ul_commands += 1
        self.counters.dcis += len(decision)
        return header.xid

    def send_policy(self, agent_id: int, yaml_text: str) -> int:
        """Send a raw policy reconfiguration document (Fig. 3)."""
        header = self._header()
        self._master.send(agent_id, PolicyReconfiguration(
            header=header, text=yaml_text))
        self.counters.policies += 1
        return header.xid

    def reconfigure_vsf(self, agent_id: int, module: str, vsf: str, *,
                        behavior: Optional[str] = None,
                        parameters: Optional[Dict[str, Any]] = None) -> int:
        """Convenience wrapper building a single-VSF policy document."""
        return self.send_policy(agent_id, build_policy(
            module, vsf, behavior=behavior, parameters=parameters))

    def push_vsf(self, agent_id: int, module: str, operation: str,
                 name: str, factory: str,
                 params: Optional[Dict[str, Any]] = None) -> int:
        """VSF updation: push new code into an agent's VSF cache."""
        header = self._header()
        self._master.send(agent_id, VsfUpdate(
            header=header, module=module, operation=operation,
            name=name, blob=pack_vsf(factory, params)))
        self.counters.vsf_updates += 1
        return header.xid

    def request_stats(self, agent_id: int, *,
                      report_type: ReportType = ReportType.PERIODIC,
                      period_ttis: int = 1,
                      flags: int = int(StatsFlags.FULL)) -> int:
        """Subscribe to agent statistics; returns the subscription xid.

        Low-level primitive: most apps want :meth:`subscribe_stats`,
        which wraps the xid in a :class:`StatsSubscription` handle.
        """
        header = self._header()
        self._master.send(agent_id, StatsRequest(
            header=header, report_type=int(report_type),
            period_ttis=period_ttis, flags=flags))
        self.counters.stats_requests += 1
        return header.xid

    def subscribe_stats(self, agent_id: int, *,
                        report_type: ReportType = ReportType.PERIODIC,
                        period_ttis: int = 1,
                        flags: int = int(StatsFlags.FULL)
                        ) -> StatsSubscription:
        """Subscribe to agent statistics; returns a first-class handle.

        The returned :class:`StatsSubscription` carries the xid and can
        ``renew()`` itself (idempotent re-assert under the same xid).
        """
        xid = self.request_stats(agent_id, report_type=report_type,
                                 period_ttis=period_ttis, flags=flags)
        return StatsSubscription(api=self, agent_id=agent_id, xid=xid,
                                 report_type=report_type,
                                 period_ttis=period_ttis, flags=flags)

    def request_config(self, agent_id: int, scope: str = "enb") -> int:
        header = self._header()
        self._master.send(agent_id, ConfigRequest(
            header=header, scope=scope))
        self.counters.config_ops += 1
        return header.xid

    def set_prb_cap(self, agent_id: int, cell_id: int,
                    cap: Optional[int]) -> int:
        """Cap a cell's usable downlink PRBs (``None`` restores the full
        carrier)."""
        header = self._header()
        self._master.send(agent_id, PrbCapConfig(
            header=header, cell_id=cell_id,
            capped=cap is not None, n_prb=cap or 0))
        self.counters.config_ops += 1
        return header.xid

    def set_abs_pattern(self, agent_id: int, cell_id: int,
                        subframes: Sequence[int]) -> int:
        """Install an eICIC Almost-Blank Subframe pattern on a cell."""
        header = self._header()
        self._master.send(agent_id, AbsPatternConfig(
            header=header, cell_id=cell_id,
            subframes=list(subframes)))
        self.counters.config_ops += 1
        return header.xid

    def set_bearer_qos(self, agent_id: int, cell_id: int, rnti: int,
                       lcid: int, qci: int, *,
                       gbr_mbps: Optional[float] = None) -> int:
        """Provision a bearer's QoS profile on an agent."""
        gbr_kbps = 0 if gbr_mbps is None else int(round(gbr_mbps * 1000))
        header = self._header()
        self._master.send(agent_id, BearerQosConfig(
            header=header, rnti=rnti, lcid=lcid, qci=qci,
            gbr_kbps=gbr_kbps))
        self.counters.config_ops += 1
        return header.xid

    def enable_sync(self, agent_id: int, enabled: bool = True) -> int:
        """Turn per-TTI subframe synchronization on or off at an agent."""
        header = self._header()
        self._master.send(agent_id, SyncConfig(
            header=header, enabled=enabled))
        self.counters.config_ops += 1
        return header.xid

    def send_drx(self, agent_id: int, rnti: int, *,
                 cycle_ttis: int = 0, on_duration_ttis: int = 0,
                 inactivity_ttis: int = 0) -> int:
        """Push a DRX command (cycle 0 disables DRX for the UE)."""
        header = self._header()
        self._master.send(agent_id, DrxCommand(
            header=header, rnti=rnti, cycle_ttis=cycle_ttis,
            on_duration_ttis=on_duration_ttis,
            inactivity_ttis=inactivity_ttis))
        self.counters.config_ops += 1
        return header.xid

    def send_scell(self, agent_id: int, rnti: int, scell_id: int,
                   activate: bool) -> int:
        """(De)activate a secondary component carrier for a UE."""
        header = self._header()
        self._master.send(agent_id, CaCommand(
            header=header, rnti=rnti, scell_id=scell_id,
            activate=activate))
        self.counters.config_ops += 1
        return header.xid

    def send_handover(self, agent_id: int, rnti: int, source_cell: int,
                      target_cell: int) -> int:
        header = self._header()
        self._master.send(agent_id, HandoverCommand(
            header=header, rnti=rnti, source_cell=source_cell,
            target_cell=target_cell))
        self.counters.handovers += 1
        return header.xid

    def ping(self, agent_id: int) -> int:
        header = self._header()
        self._master.send(agent_id, EchoRequest(header=header))
        return header.xid

    def _header(self) -> Header:
        return Header(xid=self._master.next_xid(), tti=self._master.now)

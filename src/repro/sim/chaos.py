"""Chaos harness: scripted fault schedules plus platform invariants.

The survivability layer (:mod:`repro.core.survive`) claims that a
crashing application, a poisoned VSF push or a controller restart
never takes the platform down, and the cluster runtime claims the same
of a killed or wedged worker process.  This module makes those claims
testable with one :class:`ChaosHarness`: it is handed a target, a
schedule of :class:`ChaosAction` faults and its invariant sets
(:data:`InvariantSet`), is stepped by the target, fires the due actions
at every step and reports every breach as a :class:`Violation` in one
:class:`ChaosReport`.

Two bindings exist.  :func:`simulation_chaos` rides a
:class:`~repro.sim.simulation.Simulation`'s POST phase and checks its
invariants every single TTI:

* ``cycle_ran`` -- the master's Task Manager completed a cycle this
  TTI (a fault never stalls the control loop).
* ``cell_decision`` -- every cell of every eNodeB received a scheduler
  decision this TTI (the data plane never idles on control faults).
* ``no_quarantined_run`` -- an application whose breaker is open was
  not executed.
* ``rib_convergence`` -- once every scripted fault has cleared (plus a
  grace period), the master's RIB matches eNodeB ground truth.

:func:`cluster_chaos` rides a
:class:`~repro.cluster.runtime.ClusterRuntime`'s pump, stepped with the
fleet low-water TTI.  It scripts process-level faults
(:class:`ShardFaultAt`: a SIGKILL, a live-but-silent worker) and checks
:class:`FleetInvariants` once, when the run has ended.

Fault actions compose freely with the link faults of
:class:`~repro.sim.scenarios.FaultSpec` (losses, jitter, partitions
installed on the control connections before the run).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro import obs as _obs
from repro.core.apps.base import App
from repro.core.delegation import VsfFactoryRegistry
from repro.core.survive.snapshot import rib_ground_truth_diff
from repro.net.clock import Phase

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.simulation import Simulation


class ChaosError(RuntimeError):
    """The scripted fault raised by a chaos-crashed application."""


class PoisonedScheduler:
    """A VSF that fails on every invocation (the poisoned push)."""

    def __init__(self, message: str = "chaos: poisoned VSF") -> None:
        self.message = message
        self.invocations = 0

    def __call__(self, ctx):
        self.invocations += 1
        raise ChaosError(self.message)


def register_chaos_factories(registry: VsfFactoryRegistry) -> None:
    """Trust the chaos factories on an agent (test deployments only)."""
    registry.register("chaos:poisoned", PoisonedScheduler)


class ProbeApp(App):
    """A controllable high-priority application for fault injection.

    Healthy by default; :class:`AppCrashWindow` flips ``chaos_crash``
    to script misbehavior, and an action that raises its ``cost_ms``
    scripts a slot hog.  Runs above the centralized scheduler so a
    crash-looping or slot-hogging probe exercises the no-starvation
    property of the supervised app slot.
    """

    name = "chaos_probe"
    priority = 120
    period_ttis = 1

    def __init__(self, name: str = "chaos_probe",
                 priority: int = 120) -> None:
        self.name = name
        self.priority = priority
        self.chaos_crash = False
        self.runs_completed = 0

    def run(self, tti: int, nb) -> None:
        if self.chaos_crash:
            raise ChaosError(f"scripted crash at tti {tti}")
        self.runs_completed += 1


# -- fault actions ----------------------------------------------------------


class ChaosAction(abc.ABC):
    """One entry of a scripted fault schedule."""

    @abc.abstractmethod
    def fire(self, target, tti: int) -> Optional[str]:
        """Run the action's step for *tti* against the harness's
        target; a description when it fired."""

    @abc.abstractmethod
    def end_tti(self) -> int:
        """Last TTI at which this action injects a fault."""


def _find_app(sim: "Simulation", name: str):
    assert sim.master is not None
    return sim.master.registry.registration(name).app


@dataclass
class AppCrashWindow(ChaosAction):
    """Make *app* raise on every run during ``[start, end)``."""

    app: str
    start: int
    end: int

    def fire(self, sim: "Simulation", tti: int) -> Optional[str]:
        if tti == self.start:
            _find_app(sim, self.app).chaos_crash = True
            return f"app {self.app} starts crashing"
        if tti == self.end:
            _find_app(sim, self.app).chaos_crash = False
            return f"app {self.app} stops crashing"
        return None

    def end_tti(self) -> int:
        return self.end


@dataclass
class FaultAt(ChaosAction):
    """A one-shot fault: fires at the first step whose TTI has reached
    ``tti``, then never again."""

    tti: int
    fired: bool = field(default=False, init=False, repr=False)

    def fire(self, target, tti: int) -> Optional[str]:
        if self.fired or tti < self.tti:
            return None
        self.fired = True
        return self.inject(target)

    def end_tti(self) -> int:
        return self.tti

    @abc.abstractmethod
    def inject(self, target) -> str:
        """Inject the fault; returns what was done."""


@dataclass
class VsfPoisonAt(FaultAt):
    """Push and activate a poisoned VSF on one agent at *tti*.

    The agent must trust the ``chaos:poisoned`` factory (see
    :func:`register_chaos_factories`); the first invocation then
    faults and the CMI sandbox rolls the slot back to its last-known
    good implementation.
    """

    agent_id: int
    module: str = "mac"
    operation: str = "dl_scheduling"
    name: str = "poisoned"

    def inject(self, sim: "Simulation") -> str:
        nb = sim.master.northbound
        nb.push_vsf(self.agent_id, self.module, self.operation,
                    self.name, "chaos:poisoned")
        nb.reconfigure_vsf(self.agent_id, self.module, self.operation,
                           behavior=self.name)
        return (f"poisoned VSF {self.name!r} pushed to agent "
                f"{self.agent_id} ({self.module}.{self.operation})")


@dataclass
class ControllerRestartAt(FaultAt):
    """Crash and cold-restart the master controller at *tti*."""

    restore: bool = True

    def inject(self, sim: "Simulation") -> str:
        sim.restart_master(restore=self.restore)
        return ("controller restarted "
                + ("from checkpoint" if self.restore else "cold"))


# -- process-level fault actions (cluster fleets) ------------------------------


@dataclass
class ShardFaultAt(FaultAt):
    """A one-shot fault against one shard of a
    :class:`~repro.cluster.runtime.ClusterRuntime` fleet, timed on the
    fleet low-water TTI.  It fires on the master's pump thread, so it
    is safe against the master's single-writer discipline."""

    shard_id: int


class WorkerKillAt(ShardFaultAt):
    """SIGKILL one shard's worker.

    SIGKILL is the silent death: the worker gets no chance to send an
    ``error`` tuple, so the master sees only a dead process and a pipe
    EOF -- exactly the failure mode that used to deadlock the pump.
    """

    def inject(self, runtime) -> str:
        runtime._handles[self.shard_id].process.kill()
        return f"SIGKILLed shard {self.shard_id} worker"


@dataclass
class WorkerStallWindow(ShardFaultAt):
    """Wedge one worker -- alive but silent -- for ``stall_s`` seconds.

    Sent over the control pipe; the worker sleeps without reporting
    progress, which is indistinguishable (from the master's side) from
    a worker stuck in an infinite loop.  The supervisor's low-water
    stall watchdog must detect it and respawn the shard.
    """

    stall_s: float = 5.0

    def inject(self, runtime) -> str:
        try:
            runtime._handles[self.shard_id].pipe.send(
                ("stall", self.stall_s))
        except (OSError, BrokenPipeError):
            return (f"stall for shard {self.shard_id} undeliverable "
                    f"(pipe already gone)")
        return (f"stalled shard {self.shard_id} worker for "
                f"{self.stall_s:.1f}s")


# -- invariants -------------------------------------------------------------


@dataclass
class Violation:
    """One invariant breach observed by the harness."""

    tti: int
    invariant: str
    detail: str


InvariantSet = Callable[[object, int], Iterable[Tuple[str, str]]]
"""``check(target, tti)``: one ``(invariant, detail)`` pair per breach
of the set's invariants seen at *tti* (none: they all hold)."""


def _no_invariants(target, tti: int) -> Iterable[Tuple[str, str]]:
    return ()


class SurvivabilityInvariants:
    """The per-TTI invariants of a simulation under chaos (module
    docstring); RIB convergence applies from *quiesce_at* on."""

    def __init__(self, quiesce_at: int) -> None:
        self.quiesce_at = quiesce_at
        self._master_seen = None
        self._prev_quarantined: Set[str] = set()
        self._prev_runs: Dict[str, int] = {}

    def __call__(self, sim: "Simulation",
                 tti: int) -> Iterable[Tuple[str, str]]:
        master = sim.master
        if master is not self._master_seen:
            # A restart happened last TTI: registry and supervisor are
            # fresh objects, so the run-count baselines reset.
            self._master_seen = master
            self._prev_quarantined = set()
            self._prev_runs = {}

        # 1. The control loop never stalls.
        record = master.task_manager.last_record
        if record is None or record.tti != tti:
            yield ("cycle_ran",
                   f"task manager did not complete a cycle "
                   f"(last: {record.tti if record else None})")

        # 2. Every cell got a scheduling decision this TTI.
        for enb_id in sorted(sim.enbs):
            enb = sim.enbs[enb_id]
            planned = set(enb.planned_cell_ids(tti))
            missing = set(enb.cells) - planned
            if missing:
                yield ("cell_decision",
                       f"enb {enb_id} cells {sorted(missing)} got "
                       f"no allocation decision")

        # 3. A quarantined app never runs (run counts are compared
        # with the previous step's).
        quarantined = set(master.supervisor.quarantined_names())
        for name in sorted(quarantined & self._prev_quarantined):
            try:
                runs = master.registry.registration(name).runs
            except KeyError:
                continue
            if runs > self._prev_runs.get(name, runs):
                yield ("no_quarantined_run",
                       f"quarantined app {name} executed")
        self._prev_quarantined = quarantined
        self._prev_runs = {
            reg.app.name: reg.runs
            for reg in master.registry.registrations()}

        # 4. RIB converges to ground truth after faults clear.
        if tti >= self.quiesce_at:
            truth = {agent_id: sim.agents[agent_id].enb
                     for agent_id in sim.agents}
            diffs = rib_ground_truth_diff(master.rib, truth)
            if diffs:
                yield ("rib_convergence", "; ".join(diffs))


class FleetInvariants:
    """The end-of-run invariants of a sharded fleet under chaos:

    * ``fleet_completes`` -- every non-quarantined shard finished all
      its TTIs and the master ticked through the whole run (no hang,
      no fleet-wide abort);
    * ``respawns_bounded`` -- the total respawn count never exceeds
      the fleet-wide budget (*max_respawns* overrides the default
      ``shards x per-shard budget`` bound);
    * ``census`` -- the post-run RIB holds exactly the agents and UEs
      of the shard map minus quarantined shards, and the master holds
      exactly one open connection per live agent (a connection it
      replaced was closed, not dropped).
    """

    def __init__(self, max_respawns: Optional[int] = None) -> None:
        self.max_respawns = max_respawns

    def __call__(self, runtime, tti: int) -> Iterable[Tuple[str, str]]:
        total_ttis = runtime.config.total_ttis
        quarantined = runtime.supervisor.quarantined
        live = [s for s in runtime.shard_map.shards
                if s.shard_id not in quarantined]

        # 1. The surviving fleet completed -- no hang, no abort.
        for spec in live:
            done = runtime.credits.progress(spec.shard_id)
            if done < total_ttis:
                yield ("fleet_completes",
                       f"shard {spec.shard_id} finished only "
                       f"{done}/{total_ttis} TTIs")
        if runtime.master_tti < total_ttis:
            yield ("fleet_completes",
                   f"master ticked only {runtime.master_tti}/"
                   f"{total_ttis} TTIs")

        # 2. Self-healing stayed within its budget.
        bound = (self.max_respawns if self.max_respawns is not None
                 else len(runtime.shard_map.shards)
                 * runtime.config.respawn_budget)
        if runtime.respawns > bound:
            yield ("respawns_bounded",
                   f"{runtime.respawns} respawns exceed the bound of "
                   f"{bound}")

        # 3. The RIB census is the shard map minus quarantined shards.
        expected_agents = sorted(
            a for s in live for a in s.agent_ids)
        rib_agents = runtime.master.rib.agent_ids()
        if rib_agents != expected_agents:
            yield ("census",
                   f"RIB agents {rib_agents} != expected "
                   f"{expected_agents} (quarantined shards "
                   f"{sorted(quarantined)})")
        expected_ues = sum(
            s.ues_per_enb * len(s.agent_ids) for s in live)
        rib_ues = runtime.master.rib.ue_count()
        if rib_ues != expected_ues:
            yield ("census",
                   f"RIB UEs {rib_ues} != expected {expected_ues}")
        open_connections = runtime.server.open_connections()
        if open_connections != len(expected_agents):
            yield ("census",
                   f"{open_connections} open connections for "
                   f"{len(expected_agents)} live agents")


# -- the harness --------------------------------------------------------------


@dataclass
class ChaosReport:
    """Outcome of a chaos run (JSON-able via ``to_dict``)."""

    violations: List[Violation]
    fired: List[Tuple[int, str]]
    checks: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "checks": self.checks,
            "violations": [{"tti": v.tti, "invariant": v.invariant,
                            "detail": v.detail}
                           for v in self.violations],
            "fired": [{"tti": tti, "action": desc}
                      for tti, desc in self.fired],
        }


class ChaosHarness:
    """Fires a fault schedule at *target* and checks its invariants.

    The target steps the harness (:meth:`step`) on whatever it counts
    time in.  Each step checks the *each_step* invariants first
    (against the TTI that just executed), then fires the due actions
    (their faults take effect from the next step on); the *at_end*
    invariants are checked by :meth:`report`, once the run is over.
    """

    def __init__(self, target, actions: Sequence[ChaosAction] = (), *,
                 each_step: InvariantSet = _no_invariants,
                 at_end: InvariantSet = _no_invariants) -> None:
        self.target = target
        self.actions = list(actions)
        self.each_step = each_step
        self.at_end = at_end
        self.violations: List[Violation] = []
        self.fired: List[Tuple[int, str]] = []
        self.checks = 0
        #: TTI of the latest step (stamps the end-of-run violations).
        self.tti = 0

    def step(self, tti: int) -> None:
        self.checks += 1
        self.tti = tti
        self.violations.extend(self._check(self.each_step, tti))
        for action in self.actions:
            desc = action.fire(self.target, tti)
            if desc:
                self.fired.append((tti, desc))
                ob = _obs.live
                if ob is not None:
                    ob.registry.counter("survive.chaos.actions").inc()

    def report(self) -> ChaosReport:
        """The run's outcome; call when it has ended (the *at_end*
        invariants are evaluated here, on the target as it stands)."""
        return ChaosReport(
            violations=self.violations + self._check(self.at_end, self.tti),
            fired=list(self.fired), checks=self.checks)

    def _check(self, invariants: InvariantSet, tti: int) -> List[Violation]:
        found = [Violation(tti, invariant, detail)
                 for invariant, detail in invariants(self.target, tti)]
        ob = _obs.live
        if found and ob is not None:
            for violation in found:
                ob.registry.counter("survive.chaos.violations").inc()
                ob.registry.counter(
                    "survive.chaos.violations." + violation.invariant).inc()
        return found


def simulation_chaos(sim: "Simulation",
                     actions: Sequence[ChaosAction] = (), *,
                     clearance_ttis: int = 1000) -> ChaosHarness:
    """The harness over a simulation, stepped from the clock's POST
    phase; the RIB must have converged *clearance_ttis* after the last
    scripted fault."""
    if sim.master is None:
        raise ValueError("chaos harness requires a master controller")
    quiesce_at = (max((a.end_tti() for a in actions), default=0)
                  + clearance_ttis)
    harness = ChaosHarness(
        sim, actions, each_step=SurvivabilityInvariants(quiesce_at))
    sim.clock.register(Phase.POST, harness.step)
    return harness


def cluster_chaos(runtime, actions: Sequence[ChaosAction] = (), *,
                  max_respawns: Optional[int] = None) -> ChaosHarness:
    """The harness over a sharded fleet, stepped from *runtime*'s pump
    with the fleet low-water TTI; attach before ``run()``, read
    ``report()`` after it."""
    harness = ChaosHarness(
        runtime, actions, at_end=FleetInvariants(max_respawns))
    runtime.attach_chaos(harness)
    return harness

"""The sharded cluster runtime: master process + worker fleet.

:class:`ClusterRuntime` hosts the real :class:`MasterController` plus
the TCP transport server, spawns one worker process per shard
(``multiprocessing`` spawn context -- no inherited state), and runs
the credit pump on one thread -- the master's single writer also owns
its sockets:

* accept agents as their TCP connections arrive and adopt them
  (``connect_agent`` + a periodic-stats subscription, the scale-bench
  workload);
* poll the worker control pipes for progress and delivery counts, and
  extend grants from the :class:`~repro.cluster.credits.CreditScheduler`;
* tick the master through every TTI below the fleet low-water mark,
  so its cross-shard RIB view is complete for each TTI it serves;
* hold a shard at the one barrier (:meth:`ClusterRuntime._settled`)
  before its first grant and after its last TTI: both sides have
  handled every frame the other dispatched;
* on shard failure (or deliberate rebalancing), hand the shard's RIB
  subtrees over checkpoint snapshots to the replacement worker's
  adoption path (:meth:`respawn_shard`).

Everything protocol-level rides the TCP data plane; the pipes carry
only scheduler tuples.

Shard failures are the :class:`~repro.cluster.supervise.ShardSupervisor`'s
business: the pump feeds it every detection signal (pipe EOF, worker
errors) and runs its poll each iteration, so a killed or stalled
worker is respawned -- or, past its budget, quarantined into degraded
mode -- instead of aborting or hanging the fleet.
"""

from __future__ import annotations

import logging
import multiprocessing
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import obs as _obs
from repro.cluster.credits import CreditScheduler
from repro.cluster.partition import ShardMap, ShardSpec, plan_shards
from repro.cluster.supervise import (
    FAIL_CONNECTION,
    FAIL_PIPE_EOF,
    FAIL_WORKER_ERROR,
    ShardSupervisionPolicy,
    ShardSupervisor,
)
from repro.cluster.worker import (
    WorkerSpec,
    spawn_worker,
)
from repro.core.controller import MasterController
from repro.core.protocol.messages import ReportType
from repro.core.survive.snapshot import (
    merge_rib_subset,
    snapshot_rib_subset,
)
from repro.net.link import EmulatedLink
from repro.net.tcp import TcpEndpoint, TcpTransportServer, wait_ready

logger = logging.getLogger(__name__)

SUPERVISION_POLL_S = 0.05
"""How long an idle pump sleeps in its readiness wait before it runs
the supervisor's wall-clock detectors (stall, respawn backoff, run
deadline) again.  Every event the pump reacts to -- a pipe tuple, a
frame, a connection, a dead worker's pipe EOF -- ends the wait at
once, so no outcome depends on this value."""


STATS_PERIOD_TTIS = 5
"""Period of the full stats subscription every adopted agent gets (the
scale workload's, as in :func:`repro.sim.scenarios.large_scale`)."""


@dataclass(frozen=True)
class ClusterConfig:
    """Knobs for one sharded run (defaults sized for smoke tests)."""

    workers: int = 2
    n_enbs: int = 8
    ues_per_enb: int = 25
    total_ttis: int = 400
    window: int = 32
    host: str = "127.0.0.1"
    seed: int = 0
    # Supervision knobs (see repro.cluster.supervise).
    stall_timeout_s: float = 10.0
    respawn_budget: int = 3
    respawn_backoff_s: float = 0.05
    run_deadline_s: float = 120.0


@dataclass
class ClusterReport:
    """What a sharded run produced (JSON-able via ``to_dict``)."""

    workers: int
    n_enbs: int
    ues_per_enb: int
    total_ttis: int
    wall_s: float
    us_per_tti: float
    master_ttis: int
    rib_agents: int
    rib_ues: int
    respawns: int
    max_lead_ttis: int
    agents_accepted: int
    worker_busy_s: List[float] = field(default_factory=list)
    fleet_samples_us: List[float] = field(default_factory=list)
    degraded_shards: List[int] = field(default_factory=list)
    failures: List[dict] = field(default_factory=list)
    respawn_latency_s: List[float] = field(default_factory=list)
    stall_seconds: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


class _ShardHandle:
    """Master-side bookkeeping for one worker process.

    ``ready`` and ``done`` are barrier outcomes, not message echoes:
    the shard's set-up exchange has settled (it may spend credit) and
    its last TTI's frames have settled (it may be stopped).
    """

    def __init__(self, spec: ShardSpec, process, pipe) -> None:
        self.spec = spec
        self.process = process
        self.pipe = pipe
        self.done = False
        self.ready = False
        self.quarantined = False
        self.busy_s = 0.0
        #: Latest ``{agent: (frames_dispatched, frames_handled)}`` the
        #: idle worker reported; None until it has reported once.
        self.counts: Optional[Dict[int, Tuple[int, int]]] = None


class ClusterRuntime:
    """Master-side orchestration of a sharded TCP deployment."""

    def __init__(self, config: ClusterConfig, *,
                 master: Optional[MasterController] = None) -> None:
        self.config = config
        self.master = master or MasterController()
        self.shard_map = ShardMap(plan_shards(
            config.n_enbs, config.workers,
            ues_per_enb=config.ues_per_enb, seed=config.seed))
        self.credits = CreditScheduler(
            config.total_ttis, config.window,
            [s.shard_id for s in self.shard_map.shards])
        self.server: Optional[TcpTransportServer] = None
        self.master_tti = 0
        self.respawns = 0
        self.max_lead_ttis = 0
        self._ctx = multiprocessing.get_context("spawn")
        self._handles: Dict[int, _ShardHandle] = {}
        self._fleet_samples_us: List[float] = []
        self._low_water_mark = 0
        self._started: Optional[float] = None
        self._low_water_stamp: Optional[float] = None
        self.supervisor = ShardSupervisor(self, ShardSupervisionPolicy(
            stall_timeout_s=config.stall_timeout_s,
            respawn_budget=config.respawn_budget,
            backoff_base_s=config.respawn_backoff_s,
            run_deadline_s=config.run_deadline_s))
        self._chaos = None

    def attach_chaos(self, harness) -> None:
        """Ride a :class:`~repro.sim.chaos.ChaosHarness` on the pump:
        it is stepped once per pump iteration with the fleet low-water
        mark, on the pump thread, so its actions are safe against the
        master's single-writer discipline."""
        self._chaos = harness

    # -- transport-side callbacks (pump thread) ----------------------------

    def _endpoint_factory(self, agent_id: int) -> TcpEndpoint:
        self.shard_map.owner(agent_id)  # KeyError: not this fleet's agent
        return TcpEndpoint(
            EmulatedLink(name=f"master->agent{agent_id}"),
            EmulatedLink(name=f"agent{agent_id}->master"),
            peer=f"agent{agent_id}", tx_direction="dl",
            rx_direction="ul", streaming=True)

    def _adopt(self, agent_id: int, endpoint: TcpEndpoint) -> None:
        """Connect an agent whose TCP session the server just bound."""
        owner = self.shard_map.owner(agent_id)
        if self._handles[owner.shard_id].quarantined:
            # A quarantined shard's straggler connection (e.g. its
            # worker died between dialing and the quarantine
            # decision) must not re-enter the census.
            endpoint.close()
            return
        self._drop_agent(agent_id)  # a reconnect replaces the session
        self.master.connect_agent(agent_id, endpoint)
        # The scale workload: subscribe each agent to periodic
        # full stats as soon as it is adopted (idempotent per
        # connection; a reconnect re-subscribes the fresh agent).
        self.master.northbound.request_stats(
            agent_id, report_type=ReportType.PERIODIC,
            period_ttis=STATS_PERIOD_TTIS)

    def _drop_agent(self, agent_id: int) -> None:
        """Detach an agent's connection from the master and close it."""
        endpoint = self.master.agent_endpoints().get(agent_id)
        if endpoint is not None:
            self.master.disconnect_agent(agent_id)
            endpoint.close()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ClusterRuntime":
        """Bind the transport server and spawn the worker fleet."""
        self.server = TcpTransportServer(
            host=self.config.host,
            endpoint_factory=self._endpoint_factory,
            on_agent=self._adopt)
        host, port = self.server.start()
        for spec in self.shard_map.shards:
            self._spawn(spec, host, port)
        return self

    def _spawn(self, spec: ShardSpec, host: str, port: int) -> None:
        worker_spec = WorkerSpec(
            shard=spec, host=host, port=port,
            total_ttis=self.config.total_ttis)
        process, pipe = spawn_worker(self._ctx, worker_spec)
        self._handles[spec.shard_id] = _ShardHandle(spec, process, pipe)
        self.supervisor.note_activity(spec.shard_id)

    def close(self) -> None:
        for handle in self._handles.values():
            try:
                handle.pipe.send(("stop",))
            except (OSError, BrokenPipeError):
                pass
        for handle in self._handles.values():
            handle.process.join(5.0)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(5.0)
            handle.pipe.close()
        if self.server is not None:
            self.server.stop()

    def __enter__(self) -> "ClusterRuntime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the pump ----------------------------------------------------------

    def run(self) -> ClusterReport:
        """Drive the fleet to completion; returns the run report.

        The timed window starts once every worker has built its shard
        and the whole fleet's set-up exchange has settled, so
        ``us_per_tti`` measures steady-state fleet throughput, not
        process-spawn cost.  It ends when every shard's last frame has
        been applied: the master ticks exactly ``total_ttis`` TTIs.
        """
        config = self.config
        self.supervisor.start_run()
        while not all(h.done for h in self._handles.values()):
            worked = self.server.pump()
            worked |= self._poll_workers()
            worked |= self._pump_connections()
            worked |= self.supervisor.poll()
            if self._chaos is not None and self._started is not None:
                self._chaos.step(self.credits.low_water())
            target = self.credits.low_water()
            while self.master_tti < target:
                self.master.tick(self.master_tti)
                self.master_tti += 1
                worked = True
            worked |= self._settle()
            for shard_id, grant in self.credits.grants():
                if self._handles[shard_id].ready:
                    self._send_grant(shard_id, grant)
            if not worked:
                self._idle_wait()
        ended = time.perf_counter()
        wall_s = ended - (self._started or ended)
        return ClusterReport(
            workers=config.workers, n_enbs=config.n_enbs,
            ues_per_enb=config.ues_per_enb,
            total_ttis=config.total_ttis, wall_s=wall_s,
            us_per_tti=wall_s * 1e6 / config.total_ttis,
            master_ttis=self.master_tti,
            rib_agents=len(self.master.rib.agent_ids()),
            rib_ues=self.master.rib.ue_count(),
            respawns=self.respawns, max_lead_ttis=self.max_lead_ttis,
            agents_accepted=(self.server.agents_accepted
                             if self.server else 0),
            worker_busy_s=[self._handles[s].busy_s
                           for s in sorted(self._handles)],
            fleet_samples_us=list(self._fleet_samples_us),
            degraded_shards=sorted(self.supervisor.quarantined),
            failures=[f.to_dict() for f in self.supervisor.failures],
            respawn_latency_s=list(self.supervisor.respawn_latency_s),
            stall_seconds=round(self.supervisor.stall_seconds, 3))

    def _idle_wait(self) -> None:
        """Sleep until a pipe, the listener or a connection has work."""
        # A dead worker's pipe stays readable (EOF) until its respawn
        # is due: leave it out, or the wait would spin through the
        # backoff.
        healing = self.supervisor.pending_respawns()
        wait_ready(
            [e.sock for e in self.master.agent_endpoints().values()],
            [h.pipe for s, h in self._handles.items()
             if not h.quarantined and s not in healing]
            + self.server.waitables(),
            timeout=SUPERVISION_POLL_S)

    def _pump_connections(self) -> bool:
        """Move every connection's bytes; a closed one is a classified
        failure of the shard that owns it."""
        moved = False
        for agent_id, endpoint in self.master.agent_endpoints().items():
            moved |= endpoint.sock.pump()
            if not endpoint.connected:
                moved |= self.supervisor.note_failure(
                    self.shard_map.owner(agent_id).shard_id,
                    FAIL_CONNECTION,
                    f"master<-agent{agent_id}: connection closed")
        return moved

    def _settled(self, handle: _ShardHandle) -> bool:
        """The one barrier: for each of the shard's connections, both
        sides have handled every frame the other dispatched.

        The worker reports its half only while idle, after serving its
        control plane, and sends nothing but reactions there -- so a
        match against the master's live counters means nothing is in
        flight and nothing more will be sent until someone acts.
        """
        if handle.counts is None:
            return False
        endpoints = self.master.agent_endpoints()
        for agent_id in handle.spec.agent_ids:
            endpoint = endpoints.get(agent_id)
            dispatched, handled = handle.counts.get(agent_id, (-1, -1))
            if (endpoint is None
                    or endpoint.frames_handled != dispatched
                    or endpoint.frames_dispatched != handled):
                return False
        return True

    def _settle(self) -> bool:
        """Start, heal and done: serve the shards waiting at the
        barrier and release the ones that have passed it."""
        finished = self.master_tti >= self.config.total_ttis
        waiting = [
            (shard_id, h) for shard_id, h in self._handles.items()
            if not h.done and (not h.ready or (
                finished and self.credits.progress(shard_id)
                >= self.config.total_ttis))]
        if not waiting:
            return False
        # The RIB-updater slot at the TTI the master is holding: the
        # set-up (or last) frames are applied and answered without
        # advancing the clock or re-running the apps.
        self.master.drain_agents()
        passed = [(s, h) for s, h in waiting if self._settled(h)]
        if self._started is None:
            # The fleet's first grants go out together, so the timed
            # window opens with every shard set up.
            if len(passed) < len(waiting):
                return False
            self._started = self._low_water_stamp = time.perf_counter()
        for shard_id, handle in passed:
            if handle.ready:
                handle.done = True
            else:
                handle.ready = True
                self.supervisor.note_activity(shard_id)
                self._send_grant(shard_id, self.credits.granted(shard_id))
        return bool(passed)

    def _send_grant(self, shard_id: int, grant: int) -> None:
        handle = self._handles[shard_id]
        if handle.quarantined:
            return
        try:
            handle.pipe.send(("grant", grant))
        except (OSError, BrokenPipeError):
            # A broken grant pipe is a failure signal, not log noise:
            # feed the supervisor so the shard is healed or quarantined.
            self.supervisor.note_failure(
                shard_id, FAIL_PIPE_EOF,
                f"grant pipe broken (grant={grant})")

    def _poll_workers(self) -> bool:
        worked = False
        for shard_id, handle in list(self._handles.items()):
            if handle.quarantined:
                continue
            while True:
                try:
                    if not handle.pipe.poll():
                        break
                    message = handle.pipe.recv()
                except (EOFError, OSError, BrokenPipeError):
                    # A vanished worker (SIGKILL sends no error message)
                    # must NOT mark the shard done: its credits would
                    # never complete and the pump would spin forever.
                    # Classify the EOF and let the supervisor heal it.
                    worked |= self.supervisor.note_failure(
                        shard_id, FAIL_PIPE_EOF,
                        "control pipe EOF (worker vanished)")
                    break
                worked = True
                kind = message[0]
                if kind == "error":
                    self.supervisor.note_failure(
                        shard_id, FAIL_WORKER_ERROR, str(message[1]))
                    break
                self.credits.report(shard_id, int(message[1]))
                if kind == "progress":
                    handle.busy_s += float(message[2])
                else:
                    # "ready" / "done": the worker is idle at one end
                    # of its run and has served its control plane --
                    # its half of the barrier.
                    handle.counts = message[2]
                self.supervisor.note_activity(shard_id)
                self._note_low_water()
        return worked

    def _note_low_water(self) -> None:
        """Sample fleet throughput each time the low-water advances."""
        self.max_lead_ttis = max(self.max_lead_ttis,
                                 self.credits.max_lead())
        low = self.credits.low_water()
        if low <= self._low_water_mark:
            return
        now = time.perf_counter()
        if self._low_water_stamp is not None:
            delta_ttis = low - self._low_water_mark
            delta_s = now - self._low_water_stamp
            self._fleet_samples_us.append(delta_s * 1e6 / delta_ttis)
        self._low_water_mark = low
        self._low_water_stamp = now

    # -- shard handoff -----------------------------------------------------

    def respawn_shard(self, shard_id: int) -> List[int]:
        """Kill one worker and hand its state to a replacement.

        The handoff reuses the checkpoint primitives end to end: the
        shard's RIB subtrees are snapshotted
        (:func:`snapshot_rib_subset`), the worker process is
        terminated and its connections closed, and the subtrees are
        merged back (:func:`merge_rib_subset`) so the master keeps
        serving a warm view of the shard while the replacement worker
        reconnects and the normal Hello -> config-request resync path
        refreshes it.  The replacement restarts its TTI range from
        zero and is granted nothing until that exchange has settled;
        the credit scheduler resets only this shard, so the rest of
        the fleet keeps running through its existing grants.

        Returns the agent ids handed over.
        """
        if self.server is None:
            # Not an assert: those vanish under ``python -O`` and this
            # is a real runtime precondition, not a debugging aid.
            raise RuntimeError(
                "cluster transport server is not running; start() the "
                "runtime before respawning shards")
        handle = self._handles[shard_id]
        if handle.quarantined:
            raise RuntimeError(
                f"shard {shard_id} is quarantined; it cannot respawn")
        spec = handle.spec
        subset = snapshot_rib_subset(self.master.rib, spec.agent_ids)
        handle.process.terminate()
        handle.process.join(5.0)
        handle.pipe.close()
        for agent_id in spec.agent_ids:
            self._drop_agent(agent_id)
            self.master.rib.remove_agent(agent_id)
        merged = merge_rib_subset(self.master.rib, subset)
        self.credits.reset_shard(shard_id)
        self._spawn(spec, self.server.host, self.server.port)
        self.respawns += 1
        ob = _obs.live
        if ob is not None:
            ob.registry.counter("cluster.respawns").inc()
        logger.warning("cluster: respawned shard %d (agents %s)",
                       shard_id, list(spec.agent_ids))
        return merged

    def quarantine_shard(self, shard_id: int) -> List[int]:
        """Degraded mode: give up on one shard so the rest can finish.

        The worker process is reaped, the shard leaves the credit
        scheduler (the low-water mark -- and with it every grant and
        the master's tick target -- is computed over the survivors),
        and its agents are disconnected and dropped from the RIB so the
        post-run census reflects exactly the fleet that completed.
        Idempotent.  Returns the agent ids removed.
        """
        handle = self._handles[shard_id]
        if handle.quarantined:
            return []
        handle.quarantined = True
        handle.done = True
        try:
            handle.process.terminate()
            handle.process.join(5.0)
        except (OSError, ValueError):
            pass  # already dead or reaped
        try:
            handle.pipe.close()
        except OSError:
            pass
        removed: List[int] = []
        for agent_id in handle.spec.agent_ids:
            self._drop_agent(agent_id)
            self.master.rib.remove_agent(agent_id)
            removed.append(agent_id)
        self.credits.remove_shard(shard_id)
        logger.error(
            "cluster: shard %d quarantined; fleet degraded to shards "
            "%s (agents %s dropped)", shard_id,
            self.credits.shard_ids(), removed)
        return removed


def run_cluster(config: ClusterConfig) -> ClusterReport:
    """Convenience wrapper: start, run, close, return the report."""
    with ClusterRuntime(config).start() as runtime:
        return runtime.run()

"""Cluster worker process: one shard's agents + eNodeBs over TCP.

``worker_main`` is the spawn target.  It builds a master-less
:class:`~repro.sim.simulation.Simulation` holding the shard's slice of
the scale deployment, dials the master's transport server once per
agent (streaming :class:`~repro.net.tcp.TcpEndpoint`), and then runs
the credit loop on its one thread: run TTIs up to the latest grant and
report progress over the control pipe; with no credit to spend, serve
the agents' control plane and wait on pipe + sockets.

The control pipe (``multiprocessing.Pipe``) carries only tiny
scheduler tuples -- grants down; progress and, whenever the worker is
idle at either end of its run, its per-agent delivery counts up.  All
protocol traffic (reports, stats, commands) travels over the TCP data
plane, exactly as the paper's deployment does.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Tuple

from repro.cluster.partition import ShardSpec

PROGRESS_CHUNK_TTIS = 8
"""How many TTIs a worker runs between progress reports."""


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a spawned worker needs (must stay picklable)."""

    shard: ShardSpec
    host: str
    port: int
    total_ttis: int
    report_chunk: int = PROGRESS_CHUNK_TTIS


def build_shard_sim(spec: WorkerSpec):
    """Assemble the shard's slice of the scale deployment.

    Each eNodeB is populated by the same
    :func:`~repro.sim.scenarios.populate_scale_cell` as
    :func:`~repro.sim.scenarios.large_scale` -- mixed-CQI UEs under
    phase-spread CBR downlink load with the local scheduler -- so a
    sharded run is the single-process scale deployment's work, split
    across processes.  Returns ``(sim, endpoints)``.
    """
    from repro.net.link import EmulatedLink
    from repro.net.tcp import TcpEndpoint, connect_endpoint
    from repro.sim.scenarios import populate_scale_cell
    from repro.sim.simulation import Simulation

    shard = spec.shard
    sim = Simulation(with_master=False)
    endpoints = []
    for agent_id in shard.agent_ids:
        enb = sim.add_enb(agent_id, seed=shard.seed + agent_id)
        endpoint = TcpEndpoint(
            EmulatedLink(name=f"agent{agent_id}.ul"),
            EmulatedLink(name=f"agent{agent_id}.dl"),
            peer=f"agent{agent_id}", tx_direction="ul",
            rx_direction="dl", streaming=True)
        connect_endpoint(spec.host, spec.port, agent_id=agent_id,
                         endpoint=endpoint)
        sim.add_agent(enb, agent_id=agent_id, endpoint=endpoint)
        endpoints.append(endpoint)
        # Fleet agent ids run 1..n_enbs (plan_shards), so the
        # deployment-wide ordinal is the id less one.
        populate_scale_cell(
            sim, enb, label=agent_id, ordinal=agent_id - 1,
            ues_per_enb=shard.ues_per_enb,
            load_factor=shard.load_factor)
    return sim, endpoints


def worker_main(spec: WorkerSpec, pipe) -> None:
    """Spawn target: build the shard, then run the credit loop."""
    from repro.net.tcp import TransportClosed, wait_ready

    endpoints = []
    try:
        sim, endpoints = build_shard_sim(spec)
        agents = [sim.agents[a] for a in spec.shard.agent_ids]
        socks = [endpoint.sock for endpoint in endpoints]
        granted = 0
        done = 0
        stop = False
        reported = None

        def take(message) -> None:
            """Apply one scheduler tuple from the master."""
            nonlocal granted, stop
            if message[0] == "grant":
                granted = max(granted, int(message[1]))
            elif message[0] == "stall":
                # Chaos hook: go silent (no progress reports) for
                # the scripted window -- exercises the master-side
                # stall watchdog against a live-but-wedged worker.
                time.sleep(float(message[1]))
            elif message[0] == "stop":
                stop = True

        # The set-up exchange opens here: Hello and the attach events
        # the populator queued.  Everything after it is a reaction.
        for agent in agents:
            agent.tick_tx(0)
        while not stop:
            credit = min(granted, spec.total_ttis) - done
            if credit > 0:
                step = min(credit, spec.report_chunk)
                started = time.perf_counter()
                sim.run(step)
                elapsed = time.perf_counter() - started
                done += step
                pipe.send(("progress", done, elapsed))
            else:
                # No credit to spend -- not started, window exhausted,
                # or finished: serve the control plane at the last TTI
                # run, tell the master what has been delivered, sleep
                # until the pipe or a socket has something.
                for agent in agents:
                    agent.tick_rx(max(done - 1, 0))
                for endpoint in endpoints:
                    if not endpoint.connected:
                        raise TransportClosed(
                            f"{endpoint.peer}: connection closed")
                if done == 0 or done >= spec.total_ttis:
                    report = ("done" if done else "ready", done, {
                        agent.agent_id: (endpoint.frames_dispatched,
                                         endpoint.frames_handled)
                        for agent, endpoint in zip(agents, endpoints)})
                    if report != reported:
                        pipe.send(report)
                        reported = report
                wait_ready(socks, (pipe,))
            while pipe.poll():
                take(pipe.recv())
    except EOFError:
        pass  # master went away; nothing left to coordinate with
    except Exception as exc:  # noqa: BLE001 - report, then exit nonzero
        try:
            pipe.send(("error", f"{type(exc).__name__}: {exc}"))
        except (OSError, BrokenPipeError):
            pass
        raise
    finally:
        for endpoint in endpoints:
            endpoint.close()


def spawn_worker(ctx, spec: WorkerSpec) -> Tuple[object, object]:
    """Start one worker process; returns ``(process, master_pipe_end)``."""
    parent, child = ctx.Pipe()
    process = ctx.Process(target=worker_main, args=(spec, child),
                          name=f"repro-shard{spec.shard.shard_id}",
                          daemon=True)
    process.start()
    child.close()
    return process, parent

"""Cluster worker process: one shard's agents + eNodeBs over TCP.

``worker_main`` is the spawn target.  It builds a master-less
:class:`~repro.sim.simulation.Simulation` holding the shard's slice of
the scale deployment, dials the master's transport server once per
agent (streaming :class:`~repro.net.tcp.TcpEndpoint`), and then runs
the credit loop: run TTIs up to the latest grant, report progress over
the control pipe, block when out of credit.

The control pipe (``multiprocessing.Pipe``) carries only tiny
scheduler tuples -- grants down, progress up.  All protocol traffic
(reports, stats, commands) travels over the TCP data plane, exactly as
the paper's deployment does.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Tuple

from repro.cluster.partition import ShardSpec

PROGRESS_CHUNK_TTIS = 8
"""How many TTIs a worker runs between progress reports."""

SWITCH_INTERVAL_S = 0.0005
"""Interpreter thread switch interval inside a worker process.  The
sim thread is CPU-bound and the hub thread moves every frame; at the
default 5 ms each asyncio loop iteration queues a full interval behind
the sim thread, so an 80-TTI shard (about 30 ms) could finish before
the master's answer to its agents' ``Hello`` had been read."""


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a spawned worker needs (must stay picklable)."""

    shard: ShardSpec
    host: str
    port: int
    total_ttis: int
    report_chunk: int = PROGRESS_CHUNK_TTIS
    queue_frames: int = 1024


def build_shard_sim(spec: WorkerSpec, hub=None):
    """Assemble the shard's slice of the scale deployment.

    Each eNodeB is populated by the same
    :func:`~repro.sim.scenarios.populate_scale_cell` as
    :func:`~repro.sim.scenarios.large_scale` -- mixed-CQI UEs under
    phase-spread CBR downlink load with the local scheduler -- so a
    sharded run is the single-process scale deployment's work, split
    across processes.  Returns ``(sim, hub, endpoints)``.
    """
    from repro.net.link import EmulatedLink
    from repro.net.tcp import TcpEndpoint, TcpHub, connect_endpoint
    from repro.sim.scenarios import populate_scale_cell
    from repro.sim.simulation import Simulation

    shard = spec.shard
    if hub is None:
        hub = TcpHub(name=f"worker{shard.shard_id}-hub").start()
    sim = Simulation(with_master=False)
    endpoints = []
    for agent_id in shard.agent_ids:
        enb = sim.add_enb(agent_id, seed=shard.seed + agent_id)
        endpoint = TcpEndpoint(
            EmulatedLink(name=f"agent{agent_id}.ul"),
            EmulatedLink(name=f"agent{agent_id}.dl"),
            peer=f"agent{agent_id}", tx_direction="ul",
            rx_direction="dl", streaming=True)
        connect_endpoint(hub, spec.host, spec.port, agent_id=agent_id,
                         endpoint=endpoint,
                         queue_frames=spec.queue_frames)
        sim.add_agent(enb, agent_id=agent_id, endpoint=endpoint)
        endpoints.append(endpoint)
        # Fleet agent ids run 1..n_enbs (plan_shards), so the
        # deployment-wide ordinal is the id less one.
        populate_scale_cell(
            sim, enb, label=agent_id, ordinal=agent_id - 1,
            ues_per_enb=shard.ues_per_enb,
            load_factor=shard.load_factor)
    return sim, hub, endpoints


def worker_main(spec: WorkerSpec, pipe) -> None:
    """Spawn target: build the shard, then run the credit loop."""
    hub = None
    sys.setswitchinterval(SWITCH_INTERVAL_S)
    try:
        sim, hub, endpoints = build_shard_sim(spec)
        pipe.send(("ready", spec.shard.shard_id))
        granted = 0
        done = 0
        stop = False

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

        while done < spec.total_ttis and not stop:
            while granted <= done and not stop:
                take(pipe.recv())  # blocks: out of credit
            if stop:
                break
            step = min(granted, spec.total_ttis) - done
            step = min(step, spec.report_chunk)
            started = time.perf_counter()
            sim.run(step)
            elapsed = time.perf_counter() - started
            done += step
            while pipe.poll():  # drain grants that arrived meanwhile
                take(pipe.recv())
            pipe.send(("progress", done, elapsed))
        if not stop:
            pipe.send(("done", done))
            # Keep the TCP connections open until the master has
            # drained everything in flight and says stop.
            while not stop:
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
        if hub is not None:
            hub.stop()


def spawn_worker(ctx, spec: WorkerSpec) -> Tuple[object, object]:
    """Start one worker process; returns ``(process, master_pipe_end)``."""
    parent, child = ctx.Pipe()
    process = ctx.Process(target=worker_main, args=(spec, child),
                          name=f"repro-shard{spec.shard.shard_id}",
                          daemon=True)
    process.start()
    child.close()
    return process, parent

"""Northbound fan-out bench: 1000+ concurrent subscribers, TTI budget.

Two promises of the service plane (docs/NORTHBOUND.md), measured:

* **Fan-out scales.**  A thousand concurrent JSONL/SSE stream
  subscribers all receive items while the simulation keeps ticking,
  and the obs-measured publish-to-write fan-out latency (p50/p99) is
  reported per stream kind.
* **The TTI loop doesn't pay for it.**  The scale scenario's per-TTI
  median with the server attached (and live subscribers draining)
  stays within 10 % of a same-run control measured with the service
  plane's controller hooks detached.

The server has no thread of its own: the service's cycle hook pumps
its sockets, so whichever thread ticks the simulation serves them.

The subscriber swarm is plain asyncio on raw sockets -- the bench
process is its own load generator, so ``RLIMIT_NOFILE`` is raised to
cover the socket pairs.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

from conftest import print_table, run_once, sample_tti_walltime

from repro import obs
from repro.lte.phy.channel import FixedCqi
from repro.lte.ue import Ue
from repro.nb.server import NorthboundServer
from repro.nb.service import NorthboundService
from repro.sim.scenarios import large_scale
from repro.sim.simulation import Simulation

N_SUBSCRIBERS = 1000
ITEMS_PER_SUBSCRIBER = 2
STREAM_PERIOD_TTIS = 20
OPEN_CONCURRENCY = 64  # stay under the listener backlog


def _raise_fd_limit(minimum: int = 4096) -> int:
    """1000 client + 1000 server sockets need headroom over the
    default 1024 soft limit."""
    import resource

    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft < minimum:
        soft = min(max(minimum, soft), hard if hard > 0 else minimum)
        resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
    return soft


class TickingSim:
    """Background thread advancing a simulation until stopped."""

    def __init__(self, sim) -> None:
        self.sim = sim
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._drive, daemon=True)

    def _drive(self) -> None:
        while not self._stop.is_set():
            self.sim.run(20)

    def __enter__(self) -> "TickingSim":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(10.0)


async def _subscriber(host: str, port: int, path: str, sse: bool,
                      gate: asyncio.Semaphore, n_items: int) -> int:
    """One streaming client: connect, read *n_items* data records."""
    async with gate:
        reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n"
                     .encode("latin-1"))
        await writer.drain()
        await reader.readuntil(b"\r\n\r\n")  # response headers
        got = 0
        while got < n_items:
            line = await asyncio.wait_for(reader.readline(), timeout=60.0)
            if not line:
                break
            line = line.strip()
            if not line:
                continue
            if sse:
                if not line.startswith(b"data: "):
                    continue
                line = line[len(b"data: "):]
            json.loads(line)
            got += 1
        return got
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass


async def _swarm(host: str, port: int, cell_ids, n: int) -> list:
    """Open *n* concurrent subscribers across kinds and framings."""
    gate = asyncio.Semaphore(OPEN_CONCURRENCY)
    tasks = []
    for i in range(n):
        sse = i % 2 == 1
        mode = "sse" if sse else "jsonl"
        if i % 4 < 3:  # 3/4 TTI heartbeat streams
            path = (f"/v1/stream/tti?period={STREAM_PERIOD_TTIS}"
                    f"&mode={mode}")
        else:  # 1/4 per-cell telemetry
            agent_id, cell_id = cell_ids[i % len(cell_ids)]
            path = (f"/v1/stream/cell/{agent_id}/{cell_id}"
                    f"?period={STREAM_PERIOD_TTIS}&mode={mode}")
        tasks.append(_subscriber(host, port, path, sse, gate,
                                 ITEMS_PER_SUBSCRIBER))
    return await asyncio.gather(*tasks, return_exceptions=True)


def build_fanout_sim() -> Simulation:
    """A small RAN: the bench stresses fan-out, not the scheduler."""
    sim = Simulation(with_master=True)
    for e in range(4):
        enb = sim.add_enb(seed=e)
        sim.add_agent(enb, rtt_ms=2.0)
        sim.add_ue(enb, Ue(f"90{e:04d}", FixedCqi(12)))
    return sim


def run_fanout_case():
    _raise_fd_limit()
    ob = obs.enable(trace=False)
    sim = build_fanout_sim()
    service = NorthboundService(sim.master)
    service.attach()
    server = NorthboundServer(service)
    host, port = server.start()
    try:
        with TickingSim(sim):
            deadline = time.monotonic() + 10.0
            while not sim.master.rib.agent_ids():
                assert time.monotonic() < deadline, "agents never joined"
                time.sleep(0.01)
            cell_ids = [(a, c)
                        for a in sim.master.rib.agent_ids()
                        for c in sorted(sim.master.rib.agent(a).cells)]
            start = time.perf_counter()
            results = asyncio.run(_swarm(host, port, cell_ids,
                                         N_SUBSCRIBERS))
            elapsed = time.perf_counter() - start
        failures = [r for r in results if isinstance(r, BaseException)]
        assert not failures, f"subscriber errors: {failures[:3]!r}"
        starved = sum(1 for r in results if r < ITEMS_PER_SUBSCRIBER)
        latency = {}
        for kind in ("tti", "cell"):
            h = ob.registry.histogram(f"nb.fanout.latency_ms.{kind}")
            latency[kind] = (
                h.count, ob.registry.counter(f"nb.fanout.dropped.{kind}").value,
                h.percentile(50), h.percentile(99))
        dropped = sum(
            ob.registry.counter(f"nb.fanout.dropped.{kind}").value
            for kind in ("tti", "cell", "events", "ue"))
        return (results, starved, elapsed, latency, dropped,
                sim.now, server.connections_accepted)
    finally:
        server.stop()
        service.detach()
        obs.disable()


def test_thousand_subscriber_fanout(benchmark):
    (results, starved, elapsed, latency, dropped, final_tti,
     accepted) = run_once(benchmark, run_fanout_case)
    delivered = sum(r for r in results if not isinstance(r, BaseException))
    rows = [[kind, written, drops, f"{p50:.3f}", f"{p99:.3f}"]
            for kind, (written, drops, p50, p99) in sorted(latency.items())]
    print_table(
        f"Northbound fan-out -- {N_SUBSCRIBERS} concurrent JSONL/SSE "
        f"subscribers, {delivered} items delivered in {elapsed:.1f}s "
        f"(sim reached TTI {final_tti}, {dropped} drops)",
        ["stream kind", "written", "dropped", "p50 ms", "p99 ms"], rows)
    assert accepted >= N_SUBSCRIBERS
    assert starved == 0, f"{starved} subscribers starved"
    for kind, (written, _drops, _p50, _p99) in latency.items():
        assert written > 0, f"no fan-out latency samples for {kind!r}"


# -- TTI budget with the server attached ------------------------------------

SCALE_WARMUP_TTIS = 40
SCALE_BLOCK_TTIS = 15
SCALE_ROUNDS = 16  # rounds of two blocks each; order alternates
SCALE_RUN_TTIS = SCALE_BLOCK_TTIS * SCALE_ROUNDS  # per condition
SCALE_SUBSCRIBERS = 32
ATTACHED_MEDIAN_ALLOWANCE = 0.10  # over the same-run detached control


def run_scale_case():
    """Fine-interleaved A/B on one warmed-up scale sim.

    Benchmark hosts drift over a run (load, frequency scaling, cgroup
    throttling) on a timescale of seconds, and the drift dwarfs the
    effect under test -- so neither a recorded absolute median nor a
    naive before/after split is a sound control
    (an A/A experiment with before/after halves disagrees by 20%+;
    the same experiment interleaved lands within 2%).  Instead the
    server and its live subscribers stay up for the whole run, and the
    service plane's controller hooks toggle on and off in short
    alternating blocks, flipping the within-round order each round so
    correlated drift cancels between the two pooled conditions.  The
    toggle isolates exactly the per-TTI cost the design promises to
    bound: the event tap, and the pump -- the socket poll, stream
    sampling and writing frames to the subscribers' sockets.  Detached,
    nothing serves the server's sockets, so the subscribers' frames
    wait in their subscriptions until the next attached block.
    """
    _raise_fd_limit()
    from repro.nb.client import NorthboundClient

    sc = large_scale(n_enbs=32, ues_per_enb=100)
    sc.sim.run(SCALE_WARMUP_TTIS)
    service = NorthboundService(sc.sim.master)
    server = NorthboundServer(service)
    host, port = server.start()
    client = NorthboundClient(host, port)
    streams = []
    opened = threading.Event()

    def drain(handle) -> None:
        try:
            for _ in handle:
                pass
        except Exception:
            pass

    plain = []
    attached = []
    def open_streams() -> None:
        try:
            for i in range(SCALE_SUBSCRIBERS):
                handle = client.stream(
                    f"/v1/stream/tti?period=50&mode="
                    f"{'sse' if i % 2 else 'jsonl'}")
                streams.append(handle)
                threading.Thread(target=drain, args=(handle,),
                                 daemon=True).start()
        finally:
            opened.set()

    try:
        # The ticking simulation serves the stream requests.
        service.attach()
        threading.Thread(target=open_streams, daemon=True).start()
        while not opened.is_set():
            sc.sim.run(1)
        service.detach()
        assert len(streams) == SCALE_SUBSCRIBERS, "streams failed to open"

        def block(pool: list) -> None:
            if pool is attached:
                service.attach()
            pool.extend(sample_tti_walltime(
                sc.sim, warmup_ttis=0, run_ttis=SCALE_BLOCK_TTIS))
            if pool is attached:
                service.detach()

        for round_index in range(SCALE_ROUNDS):
            first, second = ((plain, attached) if round_index % 2 == 0
                             else (attached, plain))
            block(first)
            block(second)
    finally:
        for handle in streams:
            try:
                handle.close()
            except Exception:
                pass
        server.stop()
        service.detach()
    return plain, attached


def test_scale_median_with_server_attached(benchmark):
    plain, attached = run_once(benchmark, run_scale_case)
    plain_median = obs.percentile(plain, 50)
    median = obs.percentile(attached, 50)
    p95 = obs.percentile(attached, 95)
    allowed = plain_median * (1.0 + ATTACHED_MEDIAN_ALLOWANCE)
    print_table(
        "Scale scenario TTI budget with northbound server attached, "
        f"{SCALE_SUBSCRIBERS} live stream subscribers "
        f"(same-run control median {plain_median:.0f} us)",
        ["agents", "UEs", "subscribers", "TTIs", "median us", "p95 us",
         "allowed us"],
        [[32, 3200, SCALE_SUBSCRIBERS, SCALE_RUN_TTIS,
          f"{median:.0f}", f"{p95:.0f}", f"{allowed:.0f}"]])
    assert median <= allowed, (
        f"scale median {median:.0f} us with server attached exceeds the "
        f"same-run control {plain_median:.0f} us "
        f"+{ATTACHED_MEDIAN_ALLOWANCE:.0%}")

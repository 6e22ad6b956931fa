"""Command-line entry point: ``python -m repro``.

Small, self-contained demos over the canonical scenarios so a new user
can see the platform working without writing code:

    python -m repro info                 # what is installed
    python -m repro demo quickstart      # one cell, one UE, monitoring
    python -m repro demo latency         # Fig 9's feasibility boundary
    python -m repro demo slicing         # live MVNO reallocation
    python -m repro demo eicic           # the three Fig 10 modes
    python -m repro demo dash            # assisted vs default streaming
    python -m repro demo wifi            # the beyond-LTE agent

Observability (the ``repro.obs`` subsystem):

    python -m repro trace --scenario quickstart --out trace.json
    python -m repro stats --scenario quickstart

Survivability (the ``repro.core.survive`` subsystem):

    python -m repro chaos                # scripted faults + invariants

Northbound service plane (the ``repro.nb`` subsystem):

    python -m repro serve                          # HTTP server, Ctrl-C to stop
    python -m repro serve --smoke --report nb.json # scripted smoke + report

Sharded runtime (the ``repro.cluster`` subsystem):

    python -m repro cluster --workers 2            # 2-worker TCP fleet
    python -m repro cluster --sweep 1,2 --report cluster.json
    python -m repro cluster --chaos                # kill+stall a worker,
                                                   # assert self-healing

``trace`` runs a scenario with full instrumentation and writes a
Chrome trace-event file (open in chrome://tracing or
https://ui.perfetto.dev) that also embeds the xid-correlated
control-latency CDF; ``stats`` prints a Prometheus-style metrics
snapshot.  Heavier, figure-accurate runs live in the benchmark suite
(``pytest benchmarks/ --benchmark-only``); per-TTI cost is measured by
``benchmarks/ttibudget/run.py`` (docs/BENCHMARKS.md).
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, Tuple


def _demo_quickstart() -> None:
    sim = _scenario_quickstart()
    sim.run(2000)
    (agent,) = sim.agents.values()
    ((_, ue),) = agent.enb.attached_ues()
    print(f"UE goodput over 2 s: {ue.throughput_mbps(sim.now):.2f} Mb/s "
          "(paper ceiling: ~25)")
    print(f"RIB knows {sim.master.rib.ue_count()} UE(s); active VSF: "
          f"{agent.mac.active_name('dl_scheduling')}")


def _demo_latency() -> None:
    from repro.sim.scenarios import centralized_scheduling

    print("Centralized scheduling: ahead must cover the RTT (Fig 9).")
    for rtt, ahead in [(0, 0), (20, 8), (20, 24), (60, 64)]:
        sc = centralized_scheduling(ues_per_enb=1, rtt_ms=rtt,
                                    schedule_ahead=ahead, load_factor=1.3)
        sc.sim.run(3000)
        mbps = sc.ues_per_enb[0][0].meter.mean_mbps(3000)
        state = "OK" if mbps > 1 else "deadline misses -> starved"
        print(f"  RTT {rtt:>2} ms, ahead {ahead:>2}: {mbps:6.2f} Mb/s  {state}")


def _demo_slicing() -> None:
    from repro.core.apps.ran_sharing import ShareChange
    from repro.sim.scenarios import ran_sharing

    sc = ran_sharing(initial_fractions={"mno": 0.7, "mvno": 0.3},
                     changes=[ShareChange(at_tti=4000,
                                          fractions={"mno": 0.4,
                                                     "mvno": 0.6})])
    sc.sim.run(4000)
    snap = {op: sum(u.meter.total_bytes for u in ues)
            for op, ues in sc.ues_by_operator.items()}
    sc.sim.run(4000)
    print("MNO/MVNO throughput, phase 1 (70/30) -> phase 2 (40/60):")
    for op in ("mno", "mvno"):
        total = sum(u.meter.total_bytes for u in sc.ues_by_operator[op])
        p1 = snap[op] * 8 / 4000 / 1000
        p2 = (total - snap[op]) * 8 / 4000 / 1000
        print(f"  {op:>4}: {p1:5.2f} -> {p2:5.2f} Mb/s")


def _demo_eicic() -> None:
    from repro.sim.scenarios import EICIC_MODES, hetnet_eicic

    print("HetNet interference management (Fig 10):")
    for mode in EICIC_MODES:
        sc = hetnet_eicic(mode)
        sc.sim.run(6000)
        total = (sum(u.meter.mean_mbps(6000) for u in sc.macro_ues)
                 + sc.small_ue.meter.mean_mbps(6000))
        print(f"  {mode:<14} network throughput: {total:5.2f} Mb/s")


def _demo_dash() -> None:
    from repro.sim.scenarios import dash_streaming

    print("4K DASH under drastic channel swings (Fig 11b), 60 s:")
    for assisted in (False, True):
        sc = dash_streaming("high", assisted=assisted)
        sc.sim.run(60_000)
        label = "assisted" if assisted else "default "
        c = sc.client
        print(f"  {label}: {c.segments_completed * 2:>3d} s downloaded, "
              f"{c.freeze_count()} freezes "
              f"({c.total_freeze_ms()} ms frozen)")


def _demo_wifi() -> None:
    from repro.core.controller import MasterController
    from repro.net.transport import ControlConnection
    from repro.wifi.agent import WifiAgent
    from repro.wifi.ap import Station, WifiAp

    ap = WifiAp(1)
    fast = Station(mac="02::01", snr_db=60.0)
    slow = Station(mac="02::02", snr_db=15.0)
    for s in (fast, slow):
        ap.associate(s)
    conn = ControlConnection()
    master = MasterController()
    master.connect_agent(1, conn.master_side)
    agent = WifiAgent(1, ap, endpoint=conn.agent_side)

    def run(slots, offset):
        for t in range(offset, offset + slots):
            for s in (fast, slow):
                ap.enqueue(s.aid, 6000, t)
            agent.tick_tx(t)
            master.tick(t)
            agent.tick_rx(t)
            ap.tick(t)

    run(2000, 0)
    print("Wi-Fi AP under the same FlexRAN machinery (Sec 7.2):")
    print(f"  fair airtime: fast {fast.meter.total_bytes * 8 / 2e6:.1f}, "
          f"slow {slow.meter.total_bytes * 8 / 2e6:.1f} Mb/s")
    master.northbound.reconfigure_vsf(
        1, "wifi_mac", "station_scheduling", behavior="max_rate")
    f0, s0 = fast.meter.total_bytes, slow.meter.total_bytes
    run(2000, 2000)
    print(f"  max-rate VSF (swapped by policy message): "
          f"fast {(fast.meter.total_bytes - f0) * 8 / 2e6:.1f}, "
          f"slow {(slow.meter.total_bytes - s0) * 8 / 2e6:.1f} Mb/s")


DEMOS: Dict[str, Callable[[], None]] = {
    "quickstart": _demo_quickstart,
    "latency": _demo_latency,
    "slicing": _demo_slicing,
    "eicic": _demo_eicic,
    "dash": _demo_dash,
    "wifi": _demo_wifi,
}


# -- observability scenarios ------------------------------------------------


def _scenario_quickstart():
    """The quickstart topology: one cell, one UE, monitoring app."""
    from repro.core.apps.monitoring import MonitoringApp
    from repro.core.protocol.messages import ReportType
    from repro.lte.phy.channel import FixedCqi
    from repro.lte.ue import Ue
    from repro.net.clock import Phase
    from repro.sim.simulation import Simulation
    from repro.traffic.generators import SaturatingSource

    sim = Simulation(with_master=True)
    enb = sim.add_enb()
    agent = sim.add_agent(enb, rtt_ms=2.0)
    ue = Ue("208930000000001", FixedCqi(15))
    sim.add_ue(enb, ue)
    sim.add_downlink_traffic(enb, ue, SaturatingSource(start_tti=20))
    sim.master.add_app(MonitoringApp())

    def subscribe(tti: int) -> None:
        # Periodic stats reporting gives the correlator a steady
        # uplink command/report stream to measure.
        if tti == 50:
            sim.master.northbound.request_stats(
                agent.agent_id, report_type=ReportType.PERIODIC,
                period_ttis=10)
    sim.clock.register(Phase.POST, subscribe)
    return sim


def _scenario_centralized():
    """Centralized remote scheduling over a 20 ms-RTT control channel."""
    from repro.sim.scenarios import centralized_scheduling

    sc = centralized_scheduling(ues_per_enb=2, rtt_ms=20.0,
                                schedule_ahead=24, load_factor=1.2)
    return sc.sim


OBS_SCENARIOS: Dict[str, Tuple[Callable[[], object], int]] = {
    # name -> (builder, default TTIs)
    "quickstart": (_scenario_quickstart, 2000),
    "centralized": (_scenario_centralized, 2000),
}


def _run_observed(scenario: str, ttis: int, *, trace: bool):
    """Build *scenario*, run it *ttis* TTIs under a fresh obs backend."""
    from repro import obs

    builder, default_ttis = OBS_SCENARIOS[scenario]
    ob = obs.enable(trace=trace)
    try:
        sim = builder()
        sim.run(ttis if ttis > 0 else default_ttis)
    except BaseException:
        obs.disable()
        raise
    return ob, sim


def _cmd_trace(args) -> int:
    import json

    from repro import obs
    from repro.obs.export import (
        chrome_trace,
        trace_components,
        validate_chrome_trace,
    )

    ob, _sim = _run_observed(args.scenario, args.ttis, trace=True)
    try:
        doc = chrome_trace(ob)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    finally:
        obs.disable()
    errors = validate_chrome_trace(doc)
    if errors:
        print("trace schema errors:")
        for error in errors[:10]:
            print(f"  {error}")
        return 1
    components = trace_components(doc)
    summary = ob.correlator.summary()
    print(f"wrote {args.out}: {len(doc['traceEvents'])} events from "
          f"{len(components)} components ({', '.join(components)})")
    for direction, label in (("ul", "agent->master"),
                             ("dl", "master->agent")):
        stats = summary[direction]
        print(f"  control latency {label}: n={stats['count']} "
              f"p50={stats['p50']:.0f} p95={stats['p95']:.0f} "
              f"p99={stats['p99']:.0f} TTIs")
    print("open in chrome://tracing or https://ui.perfetto.dev")
    return 0


def _cmd_stats(args) -> int:
    from repro import obs
    from repro.obs.export import metrics_jsonl, prometheus_text

    ob, _sim = _run_observed(args.scenario, args.ttis, trace=False)
    try:
        if args.format == "jsonl":
            text = metrics_jsonl(ob.registry)
        else:
            text = prometheus_text(ob.registry)
    finally:
        obs.disable()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out} ({len(ob.registry)} metrics)")
    else:
        print(text, end="")
    return 0


def _cmd_chaos(args) -> int:
    """Run the survivability chaos scenario; exit 1 on any violation."""
    from repro.sim.scenarios import chaos_survivability

    sc = chaos_survivability(
        crash_window=(args.crash_start, args.crash_end),
        poison_at=args.poison_at or None,
        restart_at=args.restart_at or None)
    sc.sim.run(args.ttis)
    report = sc.harness.report()
    print(f"chaos run: {args.ttis} TTIs, {report.checks} invariant "
          f"checks, {len(report.fired)} fault actions fired")
    for tti, desc in report.fired:
        print(f"  tti {tti:>5}: {desc}")
    sup = sc.sim.master.supervisor
    if sup is not None:
        h = sup.health(sc.probe.name)
        print(f"probe app (since last restart): {h.crashes} crashes "
              f"contained, {h.quarantines} quarantine(s), "
              f"{h.readmissions} re-admission(s), final state "
              f"{h.state.value}")
    agent = sc.agents[0]
    print(f"agent {agent.agent_id} active dl scheduler: "
          f"{agent.mac.active_name('dl_scheduling')}")
    if report.violations:
        print(f"INVARIANT VIOLATIONS ({len(report.violations)}):")
        for v in report.violations[:20]:
            print(f"  tti {v.tti:>5} [{v.invariant}] {v.detail}")
        return 1
    print("all invariants held")
    return 0


def _smoke_client(host: str, port: int, *,
                  min_items: int, token: str = "") -> dict:
    """The scripted northbound smoke: two streams + one policy push.

    Returns a plain-data report; raises AssertionError on failure.
    """
    import time

    from repro.core.policy import build_policy
    from repro.nb.client import NorthboundClient

    client = NorthboundClient(host, port, token=token or None)
    deadline = time.monotonic() + 10.0
    while True:  # agents appear in the RIB after the hello handshake
        info = client.info()
        if info["agents"]:
            break
        assert time.monotonic() < deadline, "no agent joined the RIB"
        time.sleep(0.05)
    agent_id = info["agents"][0]
    tti_stream = client.stream("/v1/stream/tti?period=10")
    event_stream = client.stream("/v1/stream/events")
    subs = client.subscriptions()["subscriptions"]
    assert len(subs) >= 2, f"expected 2 open subscriptions, saw {len(subs)}"
    policy = build_policy("mac", "dl_scheduling", behavior="local_fair")
    xid = client.send_policy(agent_id, policy)["xid"]
    assert isinstance(xid, int) and xid > 0, f"bad policy xid: {xid!r}"
    ticks = tti_stream.read(min_items)
    assert len(ticks) >= min_items, (
        f"tti stream delivered {len(ticks)}/{min_items} items")
    tti_stream.close()
    event_stream.close()
    metrics = client.metrics()["metrics"]
    fanout = {name: value for name, value in sorted(metrics.items())
              if name.startswith("nb.")}
    return {
        "agents": info["agents"],
        "policy_xid": xid,
        "tti_items": len(ticks),
        "last_tti": ticks[-1]["tti"],
        "fanout_metrics": fanout,
    }


def _cmd_serve(args) -> int:
    """Boot a scenario with the northbound server attached."""
    import json
    import threading
    import time

    from repro import obs
    from repro.nb.auth import build_auth
    from repro.nb.server import NorthboundServer
    from repro.nb.service import NorthboundService

    builder, default_ttis = OBS_SCENARIOS[args.scenario]
    obs.enable(trace=False)
    try:
        sim = builder()
        service = NorthboundService(sim.master)
        service.attach()
        server = NorthboundServer(service, host=args.host, port=args.port,
                                  auth=build_auth(args.token or None))
        host, port = server.start()
        print(f"northbound server on http://{host}:{port} "
              f"(scenario {args.scenario}); try:")
        print(f"  curl http://{host}:{port}/v1/info")
        print(f"  curl -N http://{host}:{port}/v1/stream/tti?period=100")

        failure: list = []
        report: dict = {}
        smoke_thread = None
        if args.smoke:
            def smoke() -> None:
                try:
                    report.update(_smoke_client(
                        host, port,
                        min_items=args.smoke_items, token=args.token))
                except BaseException as exc:  # noqa: BLE001 - report it
                    failure.append(exc)
            smoke_thread = threading.Thread(target=smoke, daemon=True)
            smoke_thread.start()

        ttis = args.ttis if args.ttis > 0 else (
            default_ttis if args.smoke else 0)
        try:
            if ttis:
                step = 0
                while step < ttis and not (args.smoke and not
                                           smoke_thread.is_alive()):
                    sim.run(min(50, ttis - step))
                    step += 50
                    time.sleep(0.001)
                # Keep ticking until the smoke client wraps up.
                while smoke_thread is not None and smoke_thread.is_alive():
                    sim.run(50)
                    time.sleep(0.001)
            else:
                while True:  # Ctrl-C to stop
                    sim.run(50)
                    time.sleep(0.02)
        except KeyboardInterrupt:
            print("\nstopping")
        if smoke_thread is not None:
            smoke_thread.join(10.0)
        server.stop()
        service.detach()
        if args.smoke:
            if failure:
                print(f"SMOKE FAILED: {failure[0]!r}")
                return 1
            report["scenario"] = args.scenario
            if args.report:
                with open(args.report, "w", encoding="utf-8") as fh:
                    json.dump(report, fh, indent=2)
                print(f"wrote {args.report}")
            latency = {k: v for k, v in report["fanout_metrics"].items()
                       if k.startswith("nb.fanout.latency_ms.")}
            print(f"smoke OK: policy xid {report['policy_xid']}, "
                  f"{report['tti_items']} stream items through "
                  f"tti {report['last_tti']}")
            for name, h in latency.items():
                print(f"  {name}: n={h['count']} p50={h['p50']:.3f} "
                      f"p95={h['p95']:.3f} p99={h['p99']:.3f} ms")
        return 0
    finally:
        obs.disable()


def _cluster_config(args, workers: int):
    from repro.cluster import ClusterConfig

    return ClusterConfig(
        workers=workers, n_enbs=args.enbs,
        ues_per_enb=args.ues_per_enb, total_ttis=args.ttis,
        window=args.window, stall_timeout_s=args.stall_timeout,
        respawn_budget=args.respawn_budget,
        run_deadline_s=args.run_deadline)


def _cmd_cluster_chaos(args) -> int:
    """Scripted worker-kill + stall scenario against a live fleet;
    exit 1 on any cluster invariant violation."""
    import json

    from repro import obs
    from repro.cluster import ClusterRuntime
    from repro.obs.export import environment_stamp
    from repro.sim.chaos import (
        WorkerKillAt,
        WorkerStallWindow,
        cluster_chaos,
    )

    if args.workers < 2:
        print("--chaos needs at least 2 workers (one to fail, one to "
              "keep the fleet honest)", file=sys.stderr)
        return 2
    config = _cluster_config(args, args.workers)
    kill_at = max(1, args.ttis // 4)
    stall_at = max(kill_at + 1, args.ttis // 2)
    actions = [
        WorkerKillAt(kill_at, config.workers - 1),
        WorkerStallWindow(stall_at, 0,
                          stall_s=config.stall_timeout_s * 3),
    ]
    ob = obs.enable(trace=False)
    try:
        with ClusterRuntime(config).start() as runtime:
            harness = cluster_chaos(runtime, actions)
            report = runtime.run()
            chaos = harness.report()
        metrics = {name: values for name, values
                   in sorted(ob.registry.snapshot().items())
                   if name.startswith(("cluster.", "survive.chaos."))}
    finally:
        obs.disable()

    print(f"cluster chaos run: {config.workers} workers, "
          f"{report.total_ttis} TTIs, {len(chaos.fired)} fault "
          f"action(s) fired, {report.respawns} respawn(s), "
          f"degraded shards {report.degraded_shards or 'none'}")
    for low, desc in chaos.fired:
        print(f"  low-water {low:>5}: {desc}")
    for failure in report.failures:
        print(f"  t+{failure['at_s']:.3f}s shard "
              f"{failure['shard_id']} [{failure['cause']}] "
              f"-> {failure['action']}")
    if report.respawn_latency_s:
        worst = max(report.respawn_latency_s) * 1e3
        print(f"  respawn latency: worst {worst:.0f} ms over "
              f"{len(report.respawn_latency_s)} respawn(s)")

    if args.report:
        doc = {"schema": "repro.cluster.chaos/1",
               "env": environment_stamp(),
               "enbs": args.enbs, "ues_per_enb": args.ues_per_enb,
               "total_ttis": args.ttis,
               "stall_timeout_s": config.stall_timeout_s,
               "respawn_budget": config.respawn_budget,
               "cluster": report.to_dict(),
               "chaos": chaos.to_dict(),
               "metrics": metrics}
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.report}")

    if chaos.violations:
        print(f"CLUSTER INVARIANT VIOLATIONS "
              f"({len(chaos.violations)}):", file=sys.stderr)
        for v in chaos.violations[:20]:
            print(f"  [{v.invariant}] {v.detail}", file=sys.stderr)
        return 1
    print("all cluster invariants held")
    return 0


def _cmd_cluster(args) -> int:
    """Run the sharded multi-process runtime, optionally sweeping
    worker counts and gating on scaling speedups."""
    import json
    import os

    from repro.cluster import run_cluster
    from repro.obs.export import environment_stamp

    if args.chaos:
        return _cmd_cluster_chaos(args)
    worker_counts = ([int(w) for w in args.sweep.split(",")]
                     if args.sweep else [args.workers])
    gates = {}
    for part in (p for p in args.min_speedup.split(",") if p):
        workers_s, speedup_s = part.split(":")
        gates[int(workers_s)] = float(speedup_s)
    if gates and worker_counts[0] != 1:
        print("--min-speedup needs a 1-worker baseline first in the "
              "sweep (e.g. --sweep 1,2)", file=sys.stderr)
        return 2

    runs = []
    for workers in worker_counts:
        config = _cluster_config(args, workers)
        report = run_cluster(config)
        entry = report.to_dict()
        entry["speedup"] = round(
            runs[0]["us_per_tti"] / report.us_per_tti, 2) if runs else 1.0
        runs.append(entry)
        print(f"workers={workers}: {report.us_per_tti:.0f} us/TTI "
              f"(wall {report.wall_s:.2f}s, speedup "
              f"{entry['speedup']:.2f}x, rib {report.rib_agents} agents"
              f"/{report.rib_ues} UEs, max lead "
              f"{report.max_lead_ttis} TTIs)")
        expected = (report.rib_agents == args.enbs
                    and report.rib_ues == args.enbs * args.ues_per_enb)
        if not expected:
            print(f"workers={workers}: RIB did not converge "
                  f"({report.rib_agents} agents, {report.rib_ues} UEs)",
                  file=sys.stderr)
            return 1

    if args.report:
        doc = {"schema": "repro.cluster/1", "env": environment_stamp(),
               "enbs": args.enbs, "ues_per_enb": args.ues_per_enb,
               "total_ttis": args.ttis, "runs": runs}
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.report}")

    cores = os.cpu_count() or 1
    failed = []
    for entry in runs:
        gate = gates.get(entry["workers"])
        if gate is None:
            continue
        if cores < entry["workers"]:
            print(f"workers={entry['workers']}: speedup gate skipped "
                  f"(only {cores} cores -- the shards time-share)")
            continue
        if entry["speedup"] < gate:
            failed.append((entry["workers"], entry["speedup"], gate))
    for workers, speedup, gate in failed:
        print(f"workers={workers}: speedup {speedup:.2f}x below the "
              f"{gate:.2f}x gate", file=sys.stderr)
    return 1 if failed else 0


def _cmd_info() -> None:
    import repro
    from repro.core.protocol.messages import MESSAGE_TYPES

    print(f"repro {repro.__version__} -- FlexRAN (CoNEXT 2016) "
          "reproduction")
    print(f"protocol message types: {len(MESSAGE_TYPES)}")
    print(f"demos: {', '.join(sorted(DEMOS))}")
    print("docs: README.md, DESIGN.md, EXPERIMENTS.md, docs/PROTOCOL.md")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("info", help="show version and capabilities")
    demo = sub.add_parser("demo", help="run a small demo scenario")
    demo.add_argument("name", choices=sorted(DEMOS))

    trace = sub.add_parser(
        "trace", help="run a scenario and write a Chrome trace")
    trace.add_argument("--scenario", choices=sorted(OBS_SCENARIOS),
                       default="quickstart")
    trace.add_argument("--ttis", type=int, default=0,
                       help="run length (default: scenario-specific)")
    trace.add_argument("--out", default="trace.json",
                       help="output path (Chrome trace-event JSON)")

    stats = sub.add_parser(
        "stats", help="run a scenario and print a metrics snapshot")
    stats.add_argument("--scenario", choices=sorted(OBS_SCENARIOS),
                       default="quickstart")
    stats.add_argument("--ttis", type=int, default=0,
                       help="run length (default: scenario-specific)")
    stats.add_argument("--format", choices=("prom", "jsonl"),
                       default="prom")
    stats.add_argument("--out", default="",
                       help="write to a file instead of stdout")

    chaos = sub.add_parser(
        "chaos", help="run the survivability chaos scenario")
    chaos.add_argument("--ttis", type=int, default=4000)
    chaos.add_argument("--crash-start", type=int, default=500)
    chaos.add_argument("--crash-end", type=int, default=900)
    chaos.add_argument("--poison-at", type=int, default=1500,
                       help="TTI of the poisoned VSF push (0 disables)")
    chaos.add_argument("--restart-at", type=int, default=2500,
                       help="TTI of the controller restart (0 disables)")

    serve = sub.add_parser(
        "serve", help="run a scenario with the northbound HTTP server")
    serve.add_argument("--scenario", choices=sorted(OBS_SCENARIOS),
                       default="quickstart")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="listen port (default: ephemeral, printed)")
    serve.add_argument("--ttis", type=int, default=0,
                       help="stop after this many TTIs (default: run "
                            "until Ctrl-C, or the scenario default "
                            "with --smoke)")
    serve.add_argument("--token", default="",
                       help="require this bearer token on every request")
    serve.add_argument("--smoke", action="store_true",
                       help="run the scripted smoke client and exit")
    serve.add_argument("--smoke-items", type=int, default=20,
                       help="stream items the smoke client must receive")
    serve.add_argument("--report", default="",
                       help="with --smoke: write the fan-out report here")

    cluster = sub.add_parser(
        "cluster", help="run the sharded multi-process TCP runtime")
    cluster.add_argument("--workers", type=int, default=2,
                         help="worker processes (ignored with --sweep)")
    cluster.add_argument("--enbs", type=int, default=8,
                         help="eNodeBs across the fleet")
    cluster.add_argument("--ues-per-enb", type=int, default=25)
    cluster.add_argument("--ttis", type=int, default=400,
                         help="TTIs each shard simulates")
    cluster.add_argument("--window", type=int, default=32,
                         help="credit window (max TTIs a shard may lead)")
    cluster.add_argument("--sweep", default="",
                         help="comma-separated worker counts to sweep, "
                              "e.g. 1,2,4")
    cluster.add_argument("--min-speedup", default="",
                         help="gates like 2:1.6,4:2.5 (workers:speedup "
                              "vs the 1-worker run; skipped when the "
                              "machine has fewer cores than workers)")
    cluster.add_argument("--report", default="",
                         help="write the scaling (or chaos) report "
                              "JSON here")
    cluster.add_argument("--chaos", action="store_true",
                         help="scripted worker-kill + stall scenario; "
                              "exit 1 on any cluster invariant "
                              "violation")
    cluster.add_argument("--stall-timeout", type=float, default=10.0,
                         help="seconds of silence (with unspent "
                              "credit) before the stall watchdog "
                              "fires")
    cluster.add_argument("--respawn-budget", type=int, default=3,
                         help="respawns per shard before it is "
                              "quarantined (degraded mode)")
    cluster.add_argument("--run-deadline", type=float, default=120.0,
                         help="fail-fast run deadline in seconds "
                              "(0 disables)")
    args = parser.parse_args(argv)

    if args.command == "info":
        _cmd_info()
    elif args.command == "demo":
        DEMOS[args.name]()
    elif args.command == "trace":
        return _cmd_trace(args)
    elif args.command == "stats":
        return _cmd_stats(args)
    elif args.command == "chaos":
        return _cmd_chaos(args)
    elif args.command == "serve":
        return _cmd_serve(args)
    elif args.command == "cluster":
        return _cmd_cluster(args)
    else:
        parser.print_help()
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

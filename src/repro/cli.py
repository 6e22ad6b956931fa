"""Command-line entry point: ``python -m repro``.

Every ``--scenario`` is a name in ``repro.sim.scenarios.CATALOGUE``,
the one table of deployments (``info`` lists them).  To see one
working without writing code, run the script under ``examples/`` that
narrates it:

    python -m repro info                      # version, catalogue names
    python examples/quickstart.py             # one cell, one UE, monitoring
    python examples/centralized_scheduling.py # Fig 9's feasibility boundary
    python examples/ran_slicing.py            # live MVNO reallocation
    python examples/hetnet_eicic.py           # the three Fig 10 modes
    python examples/video_streaming_mec.py    # assisted vs default streaming
    python examples/mobility_handover.py      # controller-driven handover
    python examples/wifi_sdran.py             # the beyond-LTE agent

Observability (the ``repro.obs`` subsystem):

    python -m repro trace --scenario quickstart --out trace.json
    python -m repro stats --scenario wifi_sdran --ttis 500

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

from repro.sim.scenarios import CATALOGUE


def _run_observed(scenario: str, ttis: int, *, trace: bool):
    """Build *scenario*, run it *ttis* TTIs (0: its catalogue default)
    under a fresh obs backend."""
    from repro import obs

    build, default_ttis = CATALOGUE[scenario]
    ob = obs.enable(trace=trace)
    try:
        sim = build().sim
        sim.run(ttis or default_ttis)
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
    h = sc.sim.master.supervisor.health(sc.probe.name)
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

    build, default_ttis = CATALOGUE[args.scenario]
    obs.enable(trace=False)
    try:
        sim = build().sim
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

        # One paced loop: 50 TTIs, then a pause that hands the
        # interpreter to the clients' threads (the smoke client's among
        # them).  It ends once the TTIs are spent (never for --ttis 0:
        # Ctrl-C stops it) and the smoke client, if any, has finished.
        ttis = args.ttis or (default_ttis if args.smoke else 0)
        step = 0
        try:
            while (not ttis or step < ttis
                   or (smoke_thread is not None
                       and smoke_thread.is_alive())):
                batch = min(50, ttis - step) if step < ttis else 50
                sim.run(batch)
                step += batch
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
    print(f"scenarios: {', '.join(sorted(CATALOGUE))}")
    print("docs: README.md, DESIGN.md, EXPERIMENTS.md, docs/PROTOCOL.md")


def _run_length(text: str) -> int:
    """``--ttis``: a run length in TTIs, 0 for the default."""
    ttis = int(text)
    if ttis < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {ttis}")
    return ttis


def main(argv=None) -> int:
    scenarios = sorted(CATALOGUE)
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("info", help="show version and capabilities")

    trace = sub.add_parser(
        "trace", help="run a scenario and write a Chrome trace")
    trace.add_argument("--scenario", choices=scenarios,
                       default="quickstart")
    trace.add_argument("--ttis", type=_run_length, default=0,
                       help="run length (default: scenario-specific)")
    trace.add_argument("--out", default="trace.json",
                       help="output path (Chrome trace-event JSON)")

    stats = sub.add_parser(
        "stats", help="run a scenario and print a metrics snapshot")
    stats.add_argument("--scenario", choices=scenarios,
                       default="quickstart")
    stats.add_argument("--ttis", type=_run_length, default=0,
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
    serve.add_argument("--scenario", choices=scenarios,
                       default="quickstart")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="listen port (default: ephemeral, printed)")
    serve.add_argument("--ttis", type=_run_length, default=0,
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

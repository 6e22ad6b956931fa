"""Sharded scale benches: the scale deployment's shape over TCP workers.

Two cases over the ``repro.cluster`` runtime (8 agents x 25 UEs/cell,
2 worker processes, real sockets): steady-state fleet us/TTI with the
RIB census and credit-window invariants, and respawn recovery after a
SIGKILL.  The single-process 32 x 100 deployment's per-TTI cost is
``ttibudget``'s ``scale_steady`` workload (docs/BENCHMARKS.md), not
measured here.
"""

from __future__ import annotations

from conftest import print_table, run_once

from repro.cluster import ClusterConfig, ClusterRuntime, run_cluster
from repro.obs import percentile
from repro.sim.chaos import WorkerKillAt, cluster_chaos

CLUSTER_ENBS = 8
CLUSTER_UES_PER_ENB = 25
CLUSTER_TTIS = 300


def run_cluster_case():
    """The scale deployment's shape, sharded over 2 TCP worker processes."""
    config = ClusterConfig(
        workers=2, n_enbs=CLUSTER_ENBS, ues_per_enb=CLUSTER_UES_PER_ENB,
        total_ttis=CLUSTER_TTIS, window=32)
    return run_cluster(config)


def test_scale_cluster_per_tti_walltime(benchmark):
    report = run_once(benchmark, run_cluster_case)
    samples = report.fleet_samples_us or [report.us_per_tti]
    print_table(
        "Sharded scale -- fleet us/TTI at 8 agents x 25 UEs/cell over "
        "2 worker processes (real TCP transport; speedup numbers come "
        "from `repro cluster --sweep`, which needs >= 2 cores to mean "
        "anything)",
        ["workers", "agents", "UEs", "TTIs", "median us", "p95 us",
         "max lead"],
        [[report.workers, report.rib_agents, report.rib_ues,
          report.total_ttis, percentile(samples, 50),
          percentile(samples, 95), report.max_lead_ttis]])

    # The master's cross-shard RIB converged to the full deployment.
    assert report.rib_agents == CLUSTER_ENBS
    assert report.rib_ues == CLUSTER_ENBS * CLUSTER_UES_PER_ENB
    # The credit scheme bounded shard skew to the window.
    assert report.max_lead_ttis <= 32


def run_respawn_case():
    """SIGKILL one worker mid-run; time the supervisor's recovery."""
    config = ClusterConfig(
        workers=2, n_enbs=CLUSTER_ENBS, ues_per_enb=CLUSTER_UES_PER_ENB,
        total_ttis=CLUSTER_TTIS, window=32, respawn_backoff_s=0.01)
    with ClusterRuntime(config).start() as runtime:
        harness = cluster_chaos(
            runtime, [WorkerKillAt(CLUSTER_TTIS // 3, 1)], max_respawns=1)
        report = runtime.run()
        chaos = harness.report()
    return report, chaos


def test_scale_cluster_respawn_recovery(benchmark):
    report, chaos = run_once(benchmark, run_respawn_case)
    latency_ms = [s * 1e3 for s in report.respawn_latency_s]
    print_table(
        "Sharded scale -- respawn recovery: one worker SIGKILLed a "
        "third of the way in; the supervisor's snapshot handoff must "
        "put the fleet back on the air (latency = detect-to-respawned, "
        "excluding the replacement's rebuild)",
        ["workers", "TTIs", "respawns", "respawn ms", "degraded",
         "wall s"],
        [[report.workers, report.total_ttis, report.respawns,
          percentile(latency_ms, 50) if latency_ms else 0.0,
          len(report.degraded_shards), report.wall_s]])

    # Self-healing, not degradation: one respawn, full census.
    assert report.respawns == 1
    assert report.degraded_shards == []
    assert report.rib_agents == CLUSTER_ENBS
    assert report.rib_ues == CLUSTER_ENBS * CLUSTER_UES_PER_ENB
    assert chaos.ok, [v.detail for v in chaos.violations]

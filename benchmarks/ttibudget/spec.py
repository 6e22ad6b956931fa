"""The benchmark's metric tables: names, units, directions, bounds.

``BENCHMARK.json`` at the repository root mirrors these tables (the
self-test checks that it does).  An end-to-end metric carries two
bounds, each the share by which it may get worse before a change counts
as a regression; per-layer metrics explain a change and carry none.

``bound`` is the one ``BENCHMARK.json`` carries.  Its driver compares
runs made on ten different seeds, so it has to absorb the spread across
seeds and across minutes on a shared box: about 2.5 times the widest
interquartile range over median seen in three sets of ten runs on the
sizing box, or the largest the contract allows; see README.md.

``same_seed_bound`` is the one the suite's noise guard and ``compare``
judge with.  They see runs of one seed, interleaved round by round, on
which counts repeat exactly and two sets agreed within 3 % on ``tti_us``
and 8 % on the other times, so this is the bound a performance or
simplicity change is held to.

``pick`` is how the suite reduces one value per round to the reported
one: ``tti_us`` and ``tti_p95_us`` take the best round, because noise
on a shared box only ever adds time; the rest take the median --
``setup_s`` too, so that it is the median over the set-ups of a run in
the suite exactly as it is in a driver run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

SCHEMA = "ttibudget/1"

RUN_SECONDS = 10
SETUP_REPEATS = 3
"""Set-ups per driver run; ``setup_s`` is their median.  A suite round
sets up once, so the default three rounds give the same estimator."""

PROFILE_TTIS = 200
"""TTIs run under cProfile for the exact call counts."""
SMOKE_PROFILE_TTIS = 40

BLOCK_TTIS = 20
"""TTIs timed between two reference-kernel readings.  ``tti_us`` is the
median of the block means: a block spans whole reporting periods, is
short against the seconds over which the host's speed moves, and one
GC pause moves one block mean, not the median."""


WORKLOADS = {
    "scale_steady":
        "32x100 large_scale as is: every layer works and every steady-"
        "state cache hits (about a fifth of UE records re-sent)",
    "scale_churn":
        "8x100 with fading channels, Poisson traffic and PF: per-UE state "
        "changes every period, so deltas are full and caches are bypassed",
    "central_tti":
        "paper Fig. 8: 4x16 centrally scheduled every TTI; controller app, "
        "command path and codec dominate, the local scheduler is bypassed",
    "ran_only":
        "scale_steady's RAN with no agents and no master (Fig. 6 vanilla): "
        "control-plane changes predict no change, RAN gains show undiluted",
}
"""Workload name -> why it exists.  ``workloads.py`` has the builders;
the names live here so that ``run.py`` can list them without loading
the simulator into the parent process."""


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: Optional[float] = None
    same_seed_bound: Optional[float] = None
    pick: str = "median"


END_TO_END: Tuple[Metric, ...] = (
    Metric("tti_us", "us", "lower", 0.25, 0.10, "min"),
    Metric("tti_p95_us", "us", "lower", 0.25, 0.15, "min"),
    Metric("pycalls_per_tti", "calls", "lower", 0.02, 0.005),
    Metric("setup_s", "s", "lower", 0.25, 0.15),
    Metric("peak_rss_mb", "MiB", "lower", 0.10, 0.05),
    Metric("dl_goodput_mbps", "Mb/s", "higher", 0.03, 0.01),
)

CTRL_MBPS = Metric("ctrl_mbps", "Mb/s", "lower", same_seed_bound=0.01)
FAILED_RATIO = Metric("failed_ratio", "ratio", "lower", same_seed_bound=0.0)
SUITE_ONLY: Tuple[Metric, ...] = (CTRL_MBPS, FAILED_RATIO)
"""End-to-end metrics the suite prints and ``compare`` judges but that
``BENCHMARK.json`` cannot list under ``end_to_end``, where a metric may
never read 0: ``ctrl_mbps`` is 0 without a control plane (the driver
sees it as the per-layer ``net.ctrl_mbps``) and ``failed_ratio`` is 0
on a healthy commit (the driver sees ``failed`` / ``attempted``)."""

PROFILE_LAYERS = ("protocol", "agent", "controller", "apps", "net", "lte",
                  "traffic", "sim", "other")

PHASES = ("TRAFFIC", "AGENT_TX", "MASTER", "AGENT_RX", "RAN")

SPAN_US = {
    "protocol.encode_us": "protocol.encode",
    "protocol.decode_us": "protocol.decode",
    "agent.report_build_us": "agent.report_build",
    "agent.tick_tx_us": "agent.tick_tx",
    "agent.tick_rx_us": "agent.tick_rx",
    "controller.tick_us": "controller.tick",
    "controller.rib_apply_us": "controller.rib_apply",
    "apps.run_us": "apps.run",
    "lte.plan_us": "lte.plan",
    "lte.build_context_us": "lte.build_context",
    "lte.dl_sched_us": "lte.dl_sched",
    "lte.refresh_cqi_us": "lte.refresh_cqi",
    "lte.transmit_us": "lte.transmit",
    "traffic.epc_tick_us": "traffic.epc_tick",
    "net.endpoint_send_us": "net.endpoint_send",
    "net.endpoint_recv_us": "net.endpoint_recv",
}
"""Per-layer timing metric -> the span whose self time per TTI it is."""

_LOWER = "lower"
_HIGHER = "higher"

PER_LAYER: Tuple[Metric, ...] = (
    *(Metric(name, "us", _LOWER) for name in SPAN_US),
    Metric("protocol.encode_calls_per_tti", "calls", _LOWER),
    Metric("protocol.decode_calls_per_tti", "calls", _LOWER),
    Metric("protocol.encode_ns_per_byte", "ns/B", _LOWER),
    Metric("protocol.decode_ns_per_byte", "ns/B", _LOWER),
    Metric("protocol.bytes_per_msg", "B", _LOWER),
    Metric("agent.reports_per_tti", "count", _LOWER),
    Metric("agent.ue_records_per_tti", "count", _LOWER),
    Metric("agent.delta_fill_ratio", "ratio", _LOWER),
    Metric("controller.rib_ue_updates_per_tti", "count", _LOWER),
    Metric("controller.core_slot_ms_p95", "ms", _LOWER),
    Metric("controller.apps_deferred", "count", _LOWER),
    Metric("controller.apps_quarantined", "count", _LOWER),
    Metric("apps.runs_per_tti", "count", _HIGHER),
    Metric("apps.commands_per_tti", "count", _HIGHER),
    Metric("lte.assignments_per_tti", "count", _HIGHER),
    Metric("lte.prb_utilisation", "ratio", _HIGHER),
    Metric("lte.harq_retx_ratio", "ratio", _LOWER),
    Metric("lte.ue_changes_per_tti", "count", _LOWER),
    Metric("traffic.packets_per_tti", "count", _HIGHER),
    Metric("net.ctrl_mbps", "Mb/s", _LOWER),
    Metric("net.ul_bytes_per_tti", "B", _LOWER),
    Metric("net.dl_bytes_per_tti", "B", _LOWER),
    Metric("net.msgs_per_tti", "count", _LOWER),
    Metric("net.in_flight_max", "count", _LOWER),
    Metric("net.dropped_msgs", "count", _LOWER),
    *(Metric(f"sim.phase_us.{phase}", "us", _LOWER) for phase in PHASES),
    Metric("sim.phase_us.other", "us", _LOWER),
    Metric("sim.untraced_share", "ratio", _LOWER),
    Metric("sim.tti_p99_us", "us", _LOWER),
    Metric("runtime.gc_pause_us_per_tti", "us", _LOWER),
    Metric("runtime.gc_pause_max_us", "us", _LOWER),
    Metric("runtime.gc_gen2_collections", "count", _LOWER),
    Metric("runtime.tracked_objects", "count", _LOWER),
    *(Metric(f"runtime.pycalls_per_tti.{layer}", "calls", _LOWER)
      for layer in PROFILE_LAYERS),
    Metric("trace.overhead_ratio", "ratio", _LOWER),
    Metric("trace.tti_us", "us", _LOWER),
    Metric("trace.spans_per_tti", "count", _LOWER),
    Metric("trace.targets_missing", "count", _LOWER),
)

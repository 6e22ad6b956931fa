"""One measured run of one workload, in an interpreter of its own.

``run.py`` starts this file once per set-up and once per measured
window, one process at a time.  The run is: build the deployment, warm
it up (attach storm and control-plane convergence; ``setup_s`` ends
here), count calls over a fixed stretch of TTIs under cProfile, collect
garbage, then sample ``Simulation.run(1)`` per TTI for the requested
wall time and check the outputs.  With ``--trace 1`` the first third of
the window runs as it is and the rest runs with the layers' entry
points wrapped in spans.  Every time is host time scaled to nominal
reference-kernel speed (see ``refclock.py``).  The last line printed is
one JSON object.
"""

from __future__ import annotations

import time

START = time.perf_counter()  # before the imports that set-up time includes

import argparse  # noqa: E402
import cProfile  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable, Dict, List, Optional, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE)]

from repro.obs.registry import percentile  # noqa: E402
from repro.sim.metrics import goodput_mbps  # noqa: E402

import checks  # noqa: E402
import refclock  # noqa: E402
import spec  # noqa: E402
from tracer import PHASE_PREFIX, Tracer  # noqa: E402
from workloads import SEED_STRIDE, WORKLOADS, Deployment  # noqa: E402

IMPORTED = time.perf_counter()

_LAYER_PATHS = (  # first match wins
    ("repro/core/protocol/", "protocol"),
    ("repro/core/agent/", "agent"),
    ("repro/core/controller/", "controller"),
    ("repro/core/survive/", "controller"),
    ("repro/core/apps/", "apps"),
    ("repro/net/clock.py", "sim"),
    ("repro/net/", "net"),
    ("repro/lte/", "lte"),
    ("repro/traffic/", "traffic"),
    ("repro/sim/", "sim"),
)


def _layer_of(filename: str) -> str:
    for fragment, layer in _LAYER_PATHS:
        if fragment in filename:
            return layer
    return "other"


def profile_calls(sim, ttis: int) -> Dict[str, float]:
    """Calls per TTI by layer over the next *ttis* TTIs.

    A Python function counts for the layer its source file is in; a
    built-in counts for the layer of each caller.  The benchmark's own
    frames are left out, so a traced and an untraced child agree.  With
    ``PYTHONHASHSEED`` fixed the counts repeat exactly across processes.

    The profiler's raw entries are read, not ``pstats``: that keys
    functions by (file, line, name), under which every generated
    dataclass ``__init__`` ("<string>", 2) collides and all but one are
    silently dropped -- which one depends on memory layout.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    sim.run(ttis)
    profiler.disable()
    own = str(HERE)
    calls = dict.fromkeys(spec.PROFILE_LAYERS, 0)
    for entry in profiler.getstats():
        builtin = isinstance(entry.code, str)
        filename = "" if builtin else entry.code.co_filename
        if filename.startswith(own):
            continue
        layer = _layer_of(filename)
        if not builtin:
            calls[layer] += entry.callcount
        for callee in entry.calls or ():
            if isinstance(callee.code, str):
                calls[layer] += callee.callcount
    return {layer: count / ttis for layer, count in calls.items()}


Block = Tuple[float, List[float]]
"""Scale factor and raw per-TTI seconds of ``spec.BLOCK_TTIS`` TTIs."""


class Stopwatch:
    """Sums stretches of host time, each scaled by the reference-kernel
    readings taken around it."""

    def __init__(self, clock: refclock.RefClock) -> None:
        self._clock = clock
        self._last = clock.read()
        self.total = 0.0

    def add_unbracketed(self, seconds: float) -> None:
        """A stretch that ended at the first reading (the imports)."""
        self.total += seconds * refclock.scale(self._last, self._last)

    def time(self, fn: Callable[[], object]) -> object:
        start = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - start
        reading = self._clock.read()
        self.total += seconds * refclock.scale(self._last, reading)
        self._last = reading
        return result


def sample_window(sim, seconds: float, clock: refclock.RefClock, *,
                  min_blocks: int = 1,
                  before_block: Optional[Callable[[int], None]] = None,
                  before_tti: Optional[Callable[[], None]] = None
                  ) -> List[Block]:
    """Whole blocks of per-TTI host times for about *seconds* of wall
    time, each with the scale factor of its bracketing kernel readings."""
    perf_counter = time.perf_counter
    blocks: List[Block] = []
    deadline = perf_counter() + seconds
    before = clock.read()
    while len(blocks) < min_blocks or perf_counter() < deadline:
        if before_block is not None:
            before_block(len(blocks))
        samples: List[float] = []
        for _ in range(spec.BLOCK_TTIS):
            if before_tti is not None:
                before_tti()
            start = perf_counter()
            sim.run(1)
            samples.append(perf_counter() - start)
        after = clock.read()
        blocks.append((refclock.scale(before, after), samples))
        before = after
    return blocks


def block_median_us(blocks: List[Block]) -> float:
    """``tti_us``: median over blocks of the scaled block mean."""
    return statistics.median(
        factor * statistics.fmean(samples) for factor, samples in blocks) * 1e6


def block_tail_us(blocks: List[Block]) -> float:
    """``tti_p95_us``: median over blocks of the scaled time that 95 % of
    the block's TTIs stay within (nearest rank).  Taken block by block
    because a percentile over the whole window mixes the host's fast
    and slow stretches into the tail."""
    rank = math.ceil(0.95 * spec.BLOCK_TTIS) - 1
    return statistics.median(
        factor * sorted(samples)[rank] for factor, samples in blocks) * 1e6


def scaled_percentile_us(blocks: List[Block], q: float) -> float:
    return percentile([factor * sample for factor, samples in blocks
                       for sample in samples], q) * 1e6


def end_to_end(blocks: List[Block], before: Dict[str, int],
               after: Dict[str, int], pycalls: Dict[str, float]
               ) -> Dict[str, float]:
    """The end-to-end metrics of an untraced window, bar ``setup_s``,
    which ``run.py`` fills in from all the set-ups of the run."""
    ttis = after["tti"] - before["tti"]
    return {
        "tti_us": block_median_us(blocks),
        "tti_p95_us": block_tail_us(blocks),
        "pycalls_per_tti": sum(pycalls.values()),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "dl_goodput_mbps": goodput_mbps(
            after["delivered_bytes"] - before["delivered_bytes"], ttis),
        "ctrl_mbps": goodput_mbps(after["ul_bytes"] + after["dl_bytes"]
                                  - before["ul_bytes"] - before["dl_bytes"],
                                  ttis),
    }


class WindowSampler:
    """Per-TTI readings a traced window takes between timed TTIs."""

    def __init__(self, dep: Deployment, tracer: Tracer) -> None:
        self._dep = dep
        self._tracer = tracer
        self._links = checks.links(dep)
        self.in_flight_max = 0
        self.prbs_used = 0
        self.prbs_available = 0

    def __call__(self) -> None:
        if self._tracer.on:
            self._tracer.begin_tti(self._dep.sim.now)
        in_flight = sum(link.in_flight() for link in self._links)
        self.in_flight_max = max(self.in_flight_max, in_flight)
        for enb in self._dep.enbs:
            self.prbs_used += sum(enb.last_prbs_dl.values())
            self.prbs_available += sum(c.n_prb for c in enb.cells.values())


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(dep: Deployment, tracer: Tracer, sampler: WindowSampler,
              traced: List[Block], untraced: List[Block],
              before: Dict[str, int], after: Dict[str, int],
              pycalls: Dict[str, float]) -> Dict[str, Optional[float]]:
    """Every per-layer metric of the window ``before..after``, whose
    blocks ran alternately *untraced* and *traced*.

    Simulated counts are taken over the whole window.  Span and pause
    totals cover the traced blocks, so they are scaled by those blocks'
    time-weighted mean factor; the phase sums then add up to the mean
    scaled TTI of the traced blocks, ``trace.tti_us``.
    """
    window_ttis = after["tti"] - before["tti"]
    rate = {key: (after[key] - before[key]) / window_ttis for key in after}
    ttis = len(traced) * spec.BLOCK_TTIS
    factor = refclock.mean_scale(traced)

    def per_tti(value: Optional[float]) -> Optional[float]:
        return None if value is None else value / ttis

    def span_ratio(name: str, scale: float, denominator: float
                   ) -> Optional[float]:
        self_s = tracer.self_time(name)
        return (None if self_s is None
                else _ratio(self_s * factor * scale, denominator))

    out: Dict[str, Optional[float]] = {}
    for metric, span in spec.SPAN_US.items():
        out[metric] = span_ratio(span, 1e6, ttis)
    counts = tracer.counts
    encode_calls = tracer.call_count("protocol.encode")
    out["protocol.encode_calls_per_tti"] = per_tti(encode_calls)
    out["protocol.decode_calls_per_tti"] = per_tti(
        tracer.call_count("protocol.decode"))
    out["protocol.encode_ns_per_byte"] = span_ratio(
        "protocol.encode", 1e9, counts["encode_bytes"])
    out["protocol.decode_ns_per_byte"] = span_ratio(
        "protocol.decode", 1e9, counts["decode_bytes"])
    out["protocol.bytes_per_msg"] = (
        None if encode_calls is None
        else _ratio(counts["encode_bytes"], encode_calls))
    reports_traced = tracer.self_time("agent.report_build") is not None
    out["agent.reports_per_tti"] = rate["reports"]
    out["agent.ue_records_per_tti"] = (
        counts["ue_records"] / ttis if reports_traced else None)
    out["agent.delta_fill_ratio"] = (
        _ratio(counts["ue_records"], counts["full_records"])
        if reports_traced else None)
    out["controller.rib_ue_updates_per_tti"] = (
        None if tracer.self_time("controller.rib_apply") is None
        else counts["rib_ue_updates"] / ttis)
    master = dep.sim.master
    core_ms = (list(master.task_manager.stats.core_ms_samples)[-window_ttis:]
               if master is not None else [])
    out["controller.core_slot_ms_p95"] = (
        percentile(core_ms, 95) * refclock.mean_scale(traced + untraced)
        if core_ms else 0.0)
    # Totals since TTI 0: one deferral during warm-up is one too many.
    out["controller.apps_deferred"] = after["apps_deferred"]
    out["controller.apps_quarantined"] = after["apps_quarantined"]
    out["apps.runs_per_tti"] = per_tti(tracer.call_count("apps.run"))
    out["apps.commands_per_tti"] = rate["commands"]
    out["lte.assignments_per_tti"] = rate["dl_assignments"]
    out["lte.prb_utilisation"] = _ratio(sampler.prbs_used,
                                        sampler.prbs_available)
    out["lte.harq_retx_ratio"] = _ratio(rate["tb_err"],
                                        rate["tb_ok"] + rate["tb_err"])
    out["lte.ue_changes_per_tti"] = rate["change_seq"]
    out["traffic.packets_per_tti"] = rate["packets"]
    out["net.ctrl_mbps"] = goodput_mbps(rate["ul_bytes"] + rate["dl_bytes"], 1)
    out["net.ul_bytes_per_tti"] = rate["ul_bytes"]
    out["net.dl_bytes_per_tti"] = rate["dl_bytes"]
    out["net.msgs_per_tti"] = rate["msgs"]
    out["net.in_flight_max"] = sampler.in_flight_max
    out["net.dropped_msgs"] = after["dropped_msgs"]

    wall_s = sum(sum(samples) for _, samples in traced)
    phases = tracer.phase_totals()
    phases_traced = PHASE_PREFIX + "*" not in tracer.missing
    for phase in spec.PHASES:
        out[f"sim.phase_us.{phase}"] = (
            phases.get(phase, 0.0) * factor * 1e6 / ttis
            if phases_traced else None)
    out["sim.phase_us.other"] = (
        sum(total for phase, total in phases.items()
            if phase not in spec.PHASES) * factor * 1e6 / ttis
        if phases_traced else None)
    out["sim.untraced_share"] = 1.0 - tracer.layer_self_s() / wall_s
    out["sim.tti_p99_us"] = scaled_percentile_us(traced, 99)
    out["runtime.gc_pause_us_per_tti"] = (
        tracer.gc_pause_s * factor * 1e6 / ttis)
    out["runtime.gc_pause_max_us"] = tracer.gc_pause_max_s * factor * 1e6
    out["runtime.gc_gen2_collections"] = tracer.gc_gen2
    out["runtime.tracked_objects"] = len(gc.get_objects())
    for layer, calls in pycalls.items():
        out[f"runtime.pycalls_per_tti.{layer}"] = calls
    out["trace.overhead_ratio"] = (block_median_us(traced)
                                   / block_median_us(untraced))
    out["trace.tti_us"] = wall_s * factor * 1e6 / ttis
    out["trace.spans_per_tti"] = tracer.span_count / ttis
    out["trace.targets_missing"] = len(tracer.missing)
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    size = workload.smoke_size if args.smoke else workload.size
    clock = refclock.RefClock()
    watch = Stopwatch(clock)
    watch.add_unbracketed(IMPORTED - START)
    tracer = Tracer() if args.trace else None
    restore = tracer.trace_phases() if tracer else None
    try:
        dep = watch.time(lambda: workload.build(args.seed * SEED_STRIDE, size))
    finally:
        if restore:
            restore()
    sim = dep.sim
    for done in range(0, size.warmup_ttis, spec.BLOCK_TTIS):
        watch.time(lambda: sim.run(min(spec.BLOCK_TTIS,
                                       size.warmup_ttis - done)))
    result: Dict[str, object] = {
        "setup_s": watch.total,
        "fingerprint": checks.fingerprint(dep),
    }
    if args.setup_only:
        print(json.dumps(result))
        return 0

    pycalls = profile_calls(
        sim, spec.SMOKE_PROFILE_TTIS if args.smoke else spec.PROFILE_TTIS)
    gc.collect()
    window_start = checks.counters(dep)
    if tracer is None:
        blocks = sample_window(sim, args.seconds, clock)
        window_end = checks.counters(dep)
        result["end_to_end"] = end_to_end(
            blocks, window_start, window_end, pycalls)
    else:
        tracer.install(dep)
        sampler = WindowSampler(dep, tracer)
        tracer.start()
        # Tracing alternates block by block, so the traced and the
        # untraced half of the window see the same host and the same
        # stretch of simulated time.
        blocks = sample_window(
            sim, args.seconds, clock, min_blocks=2,
            before_block=lambda index: tracer.switch(index % 2 == 1),
            before_tti=sampler)
        tracer.stop()
        window_end = checks.counters(dep)
        result["per_layer"] = per_layer(
            dep, tracer, sampler, blocks[1::2], blocks[0::2], window_start,
            window_end, pycalls)
        result["targets_missing"] = tracer.missing
        if args.trace_out is not None:
            args.trace_out.parent.mkdir(parents=True, exist_ok=True)
            tracer.write_chrome_trace(args.trace_out)
    result["attempted"], result["failures"] = checks.run_checks(
        dep, window_start, window_end)
    result["sim_ttis"] = window_end["tti"] - window_start["tti"]
    result["host_slowdown"] = 1.0 / refclock.mean_scale(blocks)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Measurement utilities for experiments: probes and series recorders.

Benchmarks sample quantities on a period (throughput, buffer levels,
signaling rates) and summarize runs.  A :class:`Probe` registers on the
simulation clock's POST phase so sampling never perturbs the causal
order of the platform itself.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.net.clock import Phase, SimClock
from repro.obs.registry import percentile as _percentile


@dataclass
class Series:
    """A named (tti, value) time series."""

    name: str
    samples: List[Tuple[int, float]] = field(default_factory=list)

    def add(self, tti: int, value: float) -> None:
        self.samples.append((tti, value))

    def values(self) -> List[float]:
        return [v for _, v in self.samples]

    def last(self) -> Optional[float]:
        return self.samples[-1][1] if self.samples else None

    def mean(self) -> float:
        vals = self.values()
        return statistics.fmean(vals) if vals else 0.0

    def between(self, start_tti: int, end_tti: int) -> List[float]:
        return [v for t, v in self.samples if start_tti <= t <= end_tti]

    def mean_between(self, start_tti: int, end_tti: int) -> float:
        vals = self.between(start_tti, end_tti)
        return statistics.fmean(vals) if vals else 0.0

    def percentile(self, q: float) -> float:
        """Tail percentile of the recorded values (0.0 if empty)."""
        vals = self.values()
        return _percentile(vals, q) if vals else 0.0

    def p50(self) -> float:
        return self.percentile(50)

    def p95(self) -> float:
        return self.percentile(95)

    def p99(self) -> float:
        return self.percentile(99)


class Probe:
    """Samples callables into named series every *period_ttis*."""

    def __init__(self, clock: SimClock, *, period_ttis: int = 100,
                 start_tti: int = 0) -> None:
        if period_ttis <= 0:
            raise ValueError(f"period must be positive, got {period_ttis}")
        self.period_ttis = period_ttis
        self.start_tti = start_tti
        self._sources: Dict[str, Callable[[int], float]] = {}
        self.series: Dict[str, Series] = {}
        clock.register(Phase.POST, self._sample)

    def watch(self, name: str, fn: Callable[[int], float]) -> Series:
        """Record ``fn(tti)`` into a new series; returns the series."""
        if name in self._sources:
            raise ValueError(f"probe already watches {name!r}")
        self._sources[name] = fn
        self.series[name] = Series(name)
        return self.series[name]

    def _sample(self, tti: int) -> None:
        if tti < self.start_tti or tti % self.period_ttis != 0:
            return
        for name, fn in self._sources.items():
            self.series[name].add(tti, float(fn(tti)))


def goodput_mbps(rx_bytes: int, elapsed_ttis: int) -> float:
    """Bytes over TTIs to Mb/s (1 byte/TTI == 8 kb/s)."""
    if elapsed_ttis <= 0:
        return 0.0
    return rx_bytes * 8 / (elapsed_ttis * 1000.0)


def cdf_points(values: Sequence[float]) -> List[Tuple[float, float]]:
    """Empirical CDF as (value, probability) pairs (the Fig. 12b view)."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return []
    return [(v, (i + 1) / n) for i, v in enumerate(ordered)]

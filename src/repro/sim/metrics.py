"""Measurement helpers the benchmarks share: goodput and CDF points."""

from __future__ import annotations

from typing import List, Sequence, Tuple


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

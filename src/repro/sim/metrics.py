"""Bytes to Mb/s: the one conversion every goodput and signaling
figure reads (benches, examples, ttibudget)."""

from __future__ import annotations


def goodput_mbps(rx_bytes: int, elapsed_ttis: int) -> float:
    """Bytes over TTIs to Mb/s (1 byte/TTI == 8 kb/s)."""
    if elapsed_ttis <= 0:
        return 0.0
    return rx_bytes * 8 / (elapsed_ttis * 1000.0)

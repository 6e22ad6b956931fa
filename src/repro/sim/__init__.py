"""Simulation harness: deployment wiring, probes, canonical scenarios."""

from repro.obs.registry import percentile
from repro.sim.metrics import Probe, Series, cdf_points, goodput_mbps
from repro.sim.simulation import Simulation

__all__ = [
    "Probe",
    "Series",
    "cdf_points",
    "goodput_mbps",
    "percentile",
    "Simulation",
]

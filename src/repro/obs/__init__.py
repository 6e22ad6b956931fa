"""``repro.obs`` -- the platform observability subsystem.

One process-wide backend bundles the three measurement surfaces:

* :mod:`repro.obs.registry` -- counters / gauges / histograms,
* :mod:`repro.obs.trace` -- TTI-scoped spans exported as Chrome
  ``trace_event`` JSON,
* :mod:`repro.obs.correlate` -- per-``xid`` control-latency lifecycle
  records.

Whether observability is on is one module attribute, :data:`live`: the
backend while on, ``None`` while off (the default).  Only
:func:`enable`, :func:`disable` and :func:`enabled_scope` set it.  Every
instrumentation site reads it without a call and resolves the registry,
tracer or correlator only inside the branch::

    from repro import obs as _obs

    ob = _obs.live
    if ob is not None:
        ob.registry.counter("layer.component.metric").inc()

so observability off costs one attribute test per site and no call
into this package (``tests/obs/test_off_costs_no_call.py`` holds the
TTI loop to that).

Typical use::

    from repro import obs

    ob = obs.enable()          # or obs.enabled_scope() in tests
    ... run the platform ...
    ob.registry.snapshot()
    ob.correlator.cdf(direction="dl")
    obs.disable()
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Optional

from repro.obs.correlate import XidCorrelator
from repro.obs.registry import MetricsRegistry, percentile
from repro.obs.trace import NullTraceRecorder, TraceRecorder

__all__ = ["Observability", "disable", "enable", "enabled_scope", "live",
           "percentile"]


class Observability:
    """The bundle of measurement backends instrumentation talks to."""

    __slots__ = ("registry", "tracer", "correlator")

    def __init__(self, *, registry, tracer, correlator) -> None:
        self.registry = registry
        self.tracer = tracer
        self.correlator = correlator

    def timed(self, histogram: str, component: str, name: str,
              fn: Callable[[int], None], tti: int, **args: object) -> None:
        """Run ``fn(tti)`` inside span *component*/*name* and observe its
        wall time, in microseconds, on *histogram*."""
        with self.tracer.span(component, name, tti=tti, **args):
            start = perf_counter()
            fn(tti)
            elapsed = perf_counter() - start
        self.registry.histogram(histogram).observe(elapsed * 1e6)


#: The live backend, or ``None`` while observability is off.
live: Optional[Observability] = None


def enable(*, trace: bool = True) -> Observability:
    """Switch on observability with fresh backends; returns them.

    ``trace=False`` keeps metrics and the xid correlator but skips
    span recording -- the cheap mode for long benchmark runs.
    """
    global live
    tracer = TraceRecorder() if trace else NullTraceRecorder()
    live = Observability(registry=MetricsRegistry(), tracer=tracer,
                         correlator=XidCorrelator())
    return live


def disable() -> None:
    """Switch observability off."""
    global live
    live = None


@contextmanager
def enabled_scope(*, trace: bool = True):
    """Enable for a ``with`` block, restoring the previous backend."""
    global live
    previous = live
    ob = enable(trace=trace)
    try:
        yield ob
    finally:
        live = previous

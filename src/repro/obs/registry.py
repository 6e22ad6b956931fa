"""Low-overhead metrics registry: counters, gauges, histograms.

The platform-facing half of the observability subsystem.  Components
grab metric handles by name (``registry.counter("net.tx.bytes")``) and
mutate them on the hot path; exporters walk the registry afterwards.
A registry exists only while observability is on (``repro.obs.live``),
so nothing here runs while it is off.  Instruments are fixed-cost: a
histogram uses fixed buckets plus a bounded sample window for tail
percentiles; nothing allocates per observation beyond the ring buffer.

Metric names are dotted lower-case paths (``layer.component.metric``,
see docs/OBSERVABILITY.md); the Prometheus exporter rewrites dots to
underscores.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)*$")

#: Default histogram bucket upper bounds (inclusive, Prometheus ``le``
#: semantics).  Chosen for millisecond/microsecond-scale timings.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0)

#: Raw observations retained per histogram for percentile queries.
SAMPLE_WINDOW = 8192


def percentile(values: Sequence[float], q: float) -> float:
    """Percentile (q in [0, 100]) with linear interpolation."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0 <= q <= 100:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = q / 100 * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1 - frac) + ordered[hi] * frac


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")
    KIND = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A value that goes up and down; remembers its high-water mark."""

    __slots__ = ("name", "value", "max_value", "updates")
    KIND = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.max_value = 0.0
        self.updates = 0

    def set(self, value: float) -> None:
        self.value = value
        self.updates += 1
        if value > self.max_value:
            self.max_value = value

    def add(self, delta: float) -> None:
        self.set(self.value + delta)


class Histogram:
    """Fixed-bucket histogram with a bounded window for percentiles.

    Bucket bounds follow Prometheus ``le`` semantics: an observation
    lands in the first bucket whose upper bound is >= the value; values
    above the last bound land in the implicit ``+Inf`` bucket.
    ``bucket_counts`` has ``len(bounds) + 1`` entries (the last is the
    overflow bucket).  Percentiles are computed over the last
    ``SAMPLE_WINDOW`` raw observations, which bounds memory while
    keeping tails exact over a recent window.
    """

    __slots__ = ("name", "bounds", "bucket_counts", "count", "sum",
                 "samples")
    KIND = "histogram"

    def __init__(self, name: str,
                 buckets: Optional[Sequence[float]] = None) -> None:
        self.name = name
        bounds = tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError(
                f"histogram buckets must be strictly increasing, "
                f"got {bounds}")
        self.bounds: Tuple[float, ...] = bounds
        self.bucket_counts: List[int] = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.samples: Deque[float] = deque(maxlen=SAMPLE_WINDOW)

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.samples.append(value)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Tail percentile over the retained sample window (0 if empty)."""
        if not self.samples:
            return 0.0
        return percentile(list(self.samples), q)

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p95(self) -> float:
        return self.percentile(95)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """(upper_bound, cumulative_count) pairs, ending with +Inf."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.bounds, self.bucket_counts):
            running += n
            out.append((bound, running))
        out.append((float("inf"), running + self.bucket_counts[-1]))
        return out


class MetricsRegistry:
    """Name-keyed store of metric instruments."""

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}

    def _get(self, name: str, cls, *args):
        metric = self._metrics.get(name)
        if metric is None:
            if not _NAME_RE.match(name):
                raise ValueError(
                    f"invalid metric name {name!r} (want dotted "
                    "lower-case, e.g. 'net.tx.bytes')")
            metric = cls(name, *args)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).KIND}, not {cls.KIND}")
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str,
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        return self._get(name, Histogram, buckets)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def __iter__(self):
        for name in self.names():
            yield self._metrics[name]

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Plain-data dump of every metric (the JSONL export payload)."""
        out: Dict[str, Dict[str, object]] = {}
        for metric in self:
            if isinstance(metric, Counter):
                out[metric.name] = {"kind": "counter",
                                    "value": metric.value}
            elif isinstance(metric, Gauge):
                out[metric.name] = {"kind": "gauge", "value": metric.value,
                                    "max": metric.max_value}
            elif isinstance(metric, Histogram):
                out[metric.name] = {
                    "kind": "histogram", "count": metric.count,
                    "sum": metric.sum, "mean": metric.mean,
                    "p50": metric.p50, "p95": metric.p95,
                    "p99": metric.p99,
                    "buckets": [[b, c] for b, c
                                in metric.cumulative_buckets()],
                }
        return out

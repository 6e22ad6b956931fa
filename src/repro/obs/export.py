"""Exporters: JSONL metrics, Chrome trace JSON, Prometheus text.

Three read-side views over one observability session:

* :func:`metrics_jsonl` -- one JSON object per metric per line, the
  machine-diffable dump ``repro stats --format jsonl`` writes.
* :func:`chrome_trace` -- the Chrome
  ``trace_event`` document (spans plus the xid-correlated
  control-latency CDF in ``otherData``), loadable in
  ``chrome://tracing`` and https://ui.perfetto.dev.
* :func:`prometheus_text` -- a Prometheus exposition-format snapshot
  (dots in metric names become underscores; histograms render
  cumulative ``_bucket{le=...}`` series).

:func:`validate_chrome_trace` is the schema check shared by the test
suite and the CI trace-smoke job; :func:`environment_stamp` is the
host description ``repro cluster`` stamps into its reports.
"""

from __future__ import annotations

import json
import math
import os
import platform
import time
from typing import Dict, List, Optional

from repro.obs import Observability
from repro.obs.registry import Counter, Gauge, Histogram


def environment_stamp() -> Dict[str, object]:
    """Where and when a report was recorded (its ``env`` field)."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 0,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def metrics_jsonl(registry) -> str:
    """One JSON object per metric, one per line, name-sorted."""
    lines = []
    for name, payload in sorted(registry.snapshot().items()):
        lines.append(json.dumps({"name": name, **payload},
                                sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


def _prom_name(name: str) -> str:
    return name.replace(".", "_")


def _prom_value(value: float) -> str:
    if isinstance(value, float) and math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(value) if isinstance(value, float) else str(value)


def prometheus_text(registry) -> str:
    """Prometheus exposition-format snapshot of every metric."""
    out: List[str] = []
    for metric in registry:
        name = _prom_name(metric.name)
        if isinstance(metric, Counter):
            out.append(f"# TYPE {name} counter")
            out.append(f"{name} {metric.value}")
        elif isinstance(metric, Gauge):
            out.append(f"# TYPE {name} gauge")
            out.append(f"{name} {_prom_value(metric.value)}")
        elif isinstance(metric, Histogram):
            out.append(f"# TYPE {name} histogram")
            for bound, cumulative in metric.cumulative_buckets():
                out.append(f'{name}_bucket{{le="{_prom_value(bound)}"}} '
                           f"{cumulative}")
            out.append(f"{name}_sum {_prom_value(metric.sum)}")
            out.append(f"{name}_count {metric.count}")
    return "\n".join(out) + ("\n" if out else "")


def chrome_trace(ob: Observability,
                 extra: Optional[Dict[str, object]] = None
                 ) -> Dict[str, object]:
    """The Chrome trace document for one session, CDF included."""
    other: Dict[str, object] = {
        "control_latency_cdf": {
            direction: ob.correlator.cdf(direction)
            for direction in ("ul", "dl")
        },
        "control_latency_summary": ob.correlator.summary(),
    }
    if extra:
        other.update(extra)
    return ob.tracer.to_chrome(extra=other)


_PHASES_WITH_DUR = {"X"}
_KNOWN_PHASES = {"X", "B", "E", "i", "I", "M", "C"}


def validate_chrome_trace(doc: object) -> List[str]:
    """Schema-check a Chrome trace document; returns error strings.

    Checks the shape Chrome/Perfetto actually require: a
    ``traceEvents`` array of objects each carrying ``name``/``ph``,
    numeric ``ts``/``pid``/``tid`` for non-metadata events, and a
    numeric non-negative ``dur`` for complete ("X") events.
    """
    errors: List[str] = []
    if not isinstance(doc, dict):
        return [f"trace document must be an object, got {type(doc).__name__}"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    if not events:
        errors.append("traceEvents is empty")
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if not isinstance(event.get("name"), str):
            errors.append(f"{where}: missing string 'name'")
        if ph not in _KNOWN_PHASES:
            errors.append(f"{where}: unknown phase {ph!r}")
            continue
        if ph == "M":
            continue  # metadata events carry no timestamp
        for field in ("ts", "pid", "tid"):
            if not isinstance(event.get(field), (int, float)):
                errors.append(f"{where}: missing numeric {field!r}")
        if ph in _PHASES_WITH_DUR:
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"{where}: 'X' event needs dur >= 0")
    return errors


def trace_components(doc: Dict[str, object]) -> List[str]:
    """Distinct component categories recorded in a trace document."""
    cats = {event.get("cat") for event in doc.get("traceEvents", [])
            if isinstance(event, dict) and event.get("ph") != "M"}
    return sorted(c for c in cats if isinstance(c, str))

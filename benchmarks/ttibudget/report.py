"""Reduce runs to a result document, print it, compare two documents."""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence

import spec

_PICK = {"min": min, "median": statistics.median}


def _spread(values: Sequence[float]) -> float:
    """Round-to-round spread: (max - min) over the median."""
    middle = statistics.median(values)
    return (max(values) - min(values)) / middle if middle else 0.0


def reduce_workload(why: str, untraced: List[dict], traced: dict) -> dict:
    """One workload's entry of the result document.

    *untraced* are the rounds measured with tracing off, *traced* the
    one traced round.
    """
    end_to_end: Dict[str, dict] = {}
    for metric in spec.END_TO_END + (spec.CTRL_MBPS,):
        rounds = [run["end_to_end"][metric.name] for run in untraced]
        end_to_end[metric.name] = {
            "value": _PICK[metric.pick](rounds), "unit": metric.unit,
            "rounds": rounds, "spread": _spread(rounds)}
    runs = untraced + [traced]
    attempted = sum(run["attempted"] for run in runs)
    failures = [f for run in runs for f in run["failures"]]
    fingerprints = sorted({run["fingerprint"] for run in runs})
    # One more check: equal seeds must leave equal simulated state.
    attempted += 1
    if len(fingerprints) > 1:
        failures.append(f"fingerprint differs across rounds: {fingerprints}")
    end_to_end[spec.FAILED_RATIO.name] = {
        "value": len(failures) / attempted, "unit": spec.FAILED_RATIO.unit,
        "rounds": [len(failures) / attempted], "spread": 0.0}
    units = {m.name: m.unit for m in spec.PER_LAYER}
    return {
        "why": why,
        "end_to_end": end_to_end,
        "checks": {"attempted": attempted, "failed": len(failures),
                   "failures": failures},
        "fingerprint": fingerprints[0],
        "host_slowdown": [run["host_slowdown"] for run in untraced],
        "per_layer": {name: {"value": value, "unit": units[name]}
                      for name, value in traced["per_layer"].items()},
        "targets_missing": traced["targets_missing"],
    }


def noise_warnings(document: dict) -> List[str]:
    """Metrics whose round spread exceeds their same-seed bound: times,
    as a rule, since counts repeat and sizes and rates nearly do."""
    out = []
    for name, entry in document["workloads"].items():
        for metric in spec.END_TO_END:
            spread = entry["end_to_end"][metric.name]["spread"]
            if spread > metric.same_seed_bound:
                out.append(f"{name}.{metric.name}: round spread "
                           f"{spread:.1%} exceeds the "
                           f"{metric.same_seed_bound:.1%} bound; the box "
                           f"is too noisy to resolve it")
    return out


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "null"
    if float(value).is_integer() and abs(value) < 1e9:
        return f"{int(value)}"
    return f"{value:.4g}" if abs(value) < 1000 else f"{value:.1f}"


def format_document(document: dict) -> str:
    env = document["env"]
    lines = [
        f"ttibudget  commit {env['commit']}  python {env['python']}  "
        f"{env['platform']}  nproc {env['nproc']}  "
        f"load {env['loadavg_start']}  seed {env['seed']}  "
        f"rounds {env['rounds']}  seconds {env['seconds']}"]
    for name, entry in document["workloads"].items():
        lines.append(f"\n== {name}: {entry['why']}")
        lines.append(f"   checks {entry['checks']['failed']} failed of "
                     f"{entry['checks']['attempted']}, fingerprint "
                     f"{entry['fingerprint']}, reference kernel slowdown "
                     + " ".join(f"{s:.2f}" for s in entry["host_slowdown"]))
        for failure in entry["checks"]["failures"]:
            lines.append(f"   FAILED {failure}")
        for metric, cell in entry["end_to_end"].items():
            lines.append(f"   {metric:<36}{_fmt(cell['value']):>12} "
                         f"{cell['unit']:<6} spread {cell['spread']:.1%}")
        for metric, cell in entry["per_layer"].items():
            lines.append(f"   {metric:<36}{_fmt(cell['value']):>12} "
                         f"{cell['unit']}")
    for warning in document["warnings"]:
        lines.append(f"WARNING {warning}")
    return "\n".join(lines)


def compare(a: dict, b: dict) -> List[dict]:
    """One row per (workload, end-to-end metric): is *b* worse than *a*?

    Judged with the same-seed bounds: *a* and *b* are suite documents
    of one seed.  ``worse``: *b* is beyond the bound on the wrong side.
    ``unresolved``: it is not, but one side's round spread is wider
    than the bound, so "unchanged" cannot be claimed either.  ``ok``
    otherwise.
    """
    rows = []
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        same_input = a["env"]["seed"] == b["env"]["seed"]
        for metric in spec.END_TO_END + spec.SUITE_ONLY:
            ca, cb = wa["end_to_end"][metric.name], wb["end_to_end"][metric.name]
            va, vb = ca["value"], cb["value"]
            change = (vb - va) / va if va else (0.0 if vb == va else
                                                float("inf"))
            worse_by = change if metric.better == "lower" else -change
            bound = metric.same_seed_bound
            if worse_by > bound:
                verdict = "worse"
            elif max(ca["spread"], cb["spread"]) > bound > 0:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append({
                "workload": name, "metric": metric.name, "unit": metric.unit,
                "a": va, "b": vb, "change": change, "bound": bound,
                "verdict": verdict,
                "sim_changed": same_input
                and wa["fingerprint"] != wb["fingerprint"]})
    return rows


def format_comparison(rows: List[dict]) -> str:
    lines = [f"{'workload':<14}{'metric':<18}{'A':>12}{'B':>12}"
             f"{'change':>9}{'bound':>7}  verdict"]
    for row in rows:
        flag = "  sim_changed" if row["sim_changed"] else ""
        lines.append(
            f"{row['workload']:<14}{row['metric']:<18}{_fmt(row['a']):>12}"
            f"{_fmt(row['b']):>12}{row['change']:>+9.1%}{row['bound']:>7.1%}"
            f"  {row['verdict']}{flag}")
    return "\n".join(lines)

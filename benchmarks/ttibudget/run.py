"""ttibudget: the layered per-TTI cost benchmark.

Three ways in, one measuring path (``child.py``, one fresh interpreter
per set-up and per measured window, one process at a time)::

    run.py --workload W --seed N --seconds S --trace 0|1
        One run of one workload, the contract ``BENCHMARK.json`` names.
        The last line printed is a JSON object with ``correct``,
        ``attempted``, ``failed`` and ``metrics``: the end-to-end
        metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.

    run.py [--seed N] [--rounds 3] [--seconds S] [--sets 1] [--out PATH]
        The suite: every workload, ``--rounds`` untraced rounds plus one
        traced round, reduced to one result document that is printed and
        written.  Exits 1 when an output check fails.  ``--sets 2`` runs
        two sets interleaved round by round and compares them.

    run.py compare A.json B.json
        One row per (workload, end-to-end metric) of two suite documents
        of one seed, judged with the same-seed bounds; exits 1 on
        ``worse``.

Traced runs leave ``trace_<workload>.json`` in the directory of ``--out``
(default ``out/`` beside this file, git-ignored).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import report  # noqa: E402
import spec  # noqa: E402

RUN_TIMEOUT_S = 170
"""A whole driver run, all its children together, must end within 180 s."""


def spawn_child(cmd: List[str], deadline: float) -> dict:
    """Run a ``child.py`` command to completion, by *deadline* on the
    monotonic clock, and return the object it printed."""
    # A fixed hash seed makes set iteration order, and with it the exact
    # call counts, repeat across processes.
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"child failed ({proc.returncode}): "
                           f"{' '.join(cmd)}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_once(workload: str, seed: int, seconds: float, trace: int, *,
             out_dir: Path, setups: int = 1, smoke: bool = False) -> dict:
    """One measured run: ``setups - 1`` set-up-only children, then the
    child that also measures.  ``setup_s`` is the median over all of
    them, and their fingerprints at the end of warm-up must agree.  A
    traced run leaves its Chrome trace in *out_dir*."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if trace:
        cmd += ["--trace-out", str(out_dir / f"trace_{workload}.json")]
    if smoke:
        cmd.append("--smoke")
    deadline = time.monotonic() + RUN_TIMEOUT_S
    extra = [spawn_child(cmd + ["--setup-only"], deadline)
             for _ in range(setups - 1)]
    run = spawn_child(cmd, deadline)
    if extra:
        run["attempted"] += 1
        if any(e["fingerprint"] != run["fingerprint"] for e in extra):
            run["failures"].append("fingerprint differs across set-ups")
    if not trace:
        run["end_to_end"]["setup_s"] = statistics.median(
            [run["setup_s"]] + [e["setup_s"] for e in extra])
    return run


def contract_line(run: dict, trace: int) -> str:
    """The result object the driver reads from the last line."""
    if trace:
        values = run["per_layer"]
        metrics = spec.PER_LAYER
    else:
        values = run["end_to_end"]
        metrics = spec.END_TO_END
    return json.dumps({
        "correct": not run["failures"],
        "attempted": run["attempted"],
        "failed": len(run["failures"]),
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit}
                    for m in metrics},
    })


def _commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_suite(args: argparse.Namespace) -> int:
    env = {
        "commit": _commit(), "python": platform.python_version(),
        "platform": platform.platform(), "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()), "seed": args.seed,
        "rounds": args.rounds, "seconds": args.seconds, "smoke": args.smoke,
    }
    documents = [{"schema": spec.SCHEMA, "env": env, "workloads": {}}
                 for _ in range(args.sets)]
    for name, why in spec.WORKLOADS.items():
        # Sets are interleaved round by round, so slow drift of the box
        # lands on both sides of the comparison.
        untraced: List[List[dict]] = [[] for _ in documents]
        for _ in range(args.rounds):
            for runs in untraced:
                runs.append(run_once(name, args.seed, args.seconds, 0,
                                     out_dir=args.out.parent,
                                     smoke=args.smoke))
        for document, runs in zip(documents, untraced):
            traced = run_once(name, args.seed, args.seconds, 1,
                              out_dir=args.out.parent, smoke=args.smoke)
            document["workloads"][name] = report.reduce_workload(
                why, runs, traced)
    failed = 0
    for index, document in enumerate(documents):
        document["warnings"] = report.noise_warnings(document)
        print(report.format_document(document))
        path = args.out if args.sets == 1 else args.out.with_suffix(
            f".{'AB'[index]}.json")
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(document, fh, indent=1)
        print(f"\nwrote {path}")
        failed += sum(w["checks"]["failed"]
                      for w in document["workloads"].values())
    worse = 0
    for other in documents[1:]:
        rows = report.compare(documents[0], other)
        print("\n" + report.format_comparison(rows))
        worse += sum(row["verdict"] == "worse" for row in rows)
    return 1 if failed or worse else 0


def run_compare(args: argparse.Namespace) -> int:
    with open(args.a) as fa, open(args.b) as fb:
        rows = report.compare(json.load(fa), json.load(fb))
    print(report.format_comparison(rows))
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not (ROOT / "src" / "repro").is_dir():
        print(f"ttibudget: no simulator under {ROOT / 'src'} to measure",
              file=sys.stderr)
        return 2
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("a", type=Path)
        parser.add_argument("b", type=Path)
        return run_compare(parser.parse_args(argv[1:]))

    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=list(spec.WORKLOADS),
                        help="run this one workload once")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--smoke", action="store_true",
                        help="shrunk topologies, for the self-test")
    parser.add_argument("--out", type=Path, default=OUT / "result.json")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_suite(args)
    run = run_once(args.workload, args.seed, args.seconds, args.trace,
                   out_dir=args.out.parent,
                   setups=1 if args.trace else spec.SETUP_REPEATS,
                   smoke=args.smoke)
    for failure in run["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(contract_line(run, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Every mechanism is reached by a deployment, or it is allowlisted.

The catalogue (``repro.sim.scenarios.CATALOGUE``) and the command line
(``repro.cli.main``) are the measure of what the platform contains.
This script installs a profiler before the first ``repro`` import and
runs the drivers, all in this process:

* every catalogue entry at its default TTIs;
* ``trace`` on one entry, then ``stats`` in both formats (observability
  on, every exporter);
* ``info`` and ``chaos``;
* ``serve --smoke``, then ``serve --smoke --token T`` on
  ``feature_tour``; while the second smoke client runs, one request to
  every route of ``nb.routes.build_router()``'s table, among them a
  malformed policy, an untrusted VSF factory and a handover between the
  eNodeB's two carriers (whose events the event stream reads), then a
  request without the token, one to no route and one with a bad
  ``Content-Length``;
* a 2-worker ``cluster``, ``cluster --chaos``, ``cluster --chaos
  --respawn-budget 0`` (a killed shard is quarantined) and ``cluster
  --run-deadline 0.001`` (the deadline backstop raises).

It then matches the code objects that were called to the ``def``
statements of ``SCOPES`` (every package under ``src/repro`` and
``cli.py``), by file, line and name (a decorated ``def``'s code starts
on its first decorator's line).  A ``def`` that only declares an
interface or a refusal (its body is ``pass``, ``...`` or one
``raise``) is not counted.

It prints, as ``path:qualname`` relative to ``src/repro``:

* every function that no driver called and no line of
  ``tests/reachability_allowlist.txt`` names;
* every allowlist line that names no unreached function (stale),
  except a ``race`` line, whose code a driver reaches in some runs;
* every ``worker`` allowlist line, if the plain ``cluster`` run's RIB
  census did not hold (the line's code runs in the worker processes,
  out of the profiler's sight, so the census is its evidence);
* every driver that failed, and every northbound request answered
  with a server error (5xx).

It exits 1 when it printed anything.  An allowlist line is
``path:qualname  reason``: the reason names the caller outside the
drivers that keeps the code (a paper bench, an example, ...); a line
that names a class or a function covers everything defined inside it.
Being called by tests alone is never a reason: such code is deleted
with its tests.  ``tests/test_reachability_gate.py`` checks the
matching logic on a package of its own.

It is not a pytest module (a full run takes about a minute); CI runs
it::

    PYTHONPATH=src python tests/reachability.py
"""

from __future__ import annotations

import ast
import contextlib
import http.client
import io
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Set, Tuple

HERE = Path(__file__).resolve().parent
PACKAGE = HERE.parent / "src" / "repro"
ALLOWLIST = HERE / "reachability_allowlist.txt"
SCOPES = ("lte", "core", "traffic", "net", "sim", "obs", "nb", "cluster",
          "wifi", "cli.py")
WORKER = "worker"
RACE = "race"
TOKEN = "T"

CALLED: Set = set()


def _profile(frame, event, arg):
    if event == "call":
        CALLED.add(frame.f_code)


def is_declaration(node: ast.FunctionDef) -> bool:
    """Whether *node* only declares an interface or a refusal (its body,
    after a docstring, is ``pass``, ``...`` or one ``raise``): a method
    every concrete class overrides, or a guard that exists to reject a
    call, is no mechanism of its own."""
    body = node.body
    if body and isinstance(body[0], ast.Expr) and isinstance(
            body[0].value, ast.Constant) and isinstance(
            body[0].value.value, str):
        body = body[1:]
    if not body:
        return True
    if len(body) > 1:
        return False
    stmt = body[0]
    if isinstance(stmt, ast.Pass):
        return True
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
        return stmt.value.value is Ellipsis
    return isinstance(stmt, ast.Raise)


def definitions(path: Path) -> Iterator[Tuple[int, int, str, str]]:
    """``(def line, first decorator line, name, qualname)`` of every
    function defined in *path*, nested ones included, that is not an
    interface declaration (:func:`is_declaration`)."""
    tree = ast.parse(path.read_text(), filename=str(path))

    def walk(node, prefix: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in
                                              child.decorator_list])
                if not is_declaration(child):
                    yield child.lineno, first, child.name, qualname
                yield from walk(child, qualname + ".")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, prefix + child.name + ".")
            else:
                yield from walk(child, prefix)

    yield from walk(tree, "")


def read_allowlist(path: Path) -> Dict[str, str]:
    """``{path:qualname: reason}``; a line without a reason is an error."""
    entries: Dict[str, str] = {}
    for number, line in enumerate(path.read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, reason = line.partition(" ")
        if not reason.strip():
            raise SystemExit(f"{path.name}:{number}: {name} has no reason")
        entries[name] = reason.strip()
    return entries


def unreached(called: Iterable, package: Path = PACKAGE,
              scopes: Iterable[str] = SCOPES) -> List[str]:
    """``path:qualname`` of every function under *scopes* (packages or
    modules of *package*) that no code object in *called* is."""
    seen = {(code.co_filename, code.co_firstlineno, code.co_name)
            for code in called}
    missing = []
    for scope in scopes:
        root = package / scope
        paths = [root] if root.is_file() else sorted(root.rglob("*.py"))
        for path in paths:
            filename = str(path.resolve())
            for line, first, name, qualname in definitions(path):
                if ((filename, line, name) in seen
                        or (filename, first, name) in seen):
                    continue
                missing.append(
                    f"{path.relative_to(package).as_posix()}:{qualname}")
    return missing


def covers(entry: str, name: str) -> bool:
    return name == entry or name.startswith(entry + ".")


def findings(missing: List[str], allowlist: Dict[str, str], *,
             census_held: bool = True) -> List[str]:
    """The lines the gate prints: unreached names no allowlist line
    covers, stale allowlist lines (a ``race`` line never is) and, when
    the cluster census did not hold, every ``worker`` line."""
    lines = [name for name in missing
             if not any(covers(entry, name) for entry in allowlist)]
    for entry, reason in allowlist.items():
        kind = reason.split(":")[0]
        if kind == RACE:
            continue
        if not any(covers(entry, name) for name in missing):
            lines.append(f"{entry}  (stale allowlist line: nothing "
                         f"unreached)")
        elif kind == WORKER and not census_held:
            lines.append(f"{entry}  (worker line: the cluster census "
                         f"did not hold)")
    return lines


# -- drivers ------------------------------------------------------------------


def run_catalogue() -> None:
    """Run every entry at its default TTIs."""
    from repro.sim.scenarios import CATALOGUE

    for build, ttis in CATALOGUE.values():
        sim = build(seed=0).sim
        try:
            sim.run(ttis)
        finally:
            sim.close()


# Bodies for the routes that take one and path arguments for the routes
# that do not address an agent, by handler name.  A route missing here
# is still requested, at agent ``{agent}`` with no body.  The policy is
# malformed (the route refuses it) and the VSF factory untrusted (the
# agent refuses it).  The handover moves the UE to another cell of its
# eNodeB (a handover to the serving cell is refused and raises no
# event, and the event stream's read needs one).
ROUTE_BODIES = {
    "post_policy": {"text": "mac:\n\tdl_scheduling: local_fair\n"},
    "post_vsf": {"module": "mac", "operation": "dl_scheduling",
                 "name": "evil", "factory": "os:system"},
    "post_prb_cap": {"cell_id": "{cell}", "cap": 25},
    "post_abs_pattern": {"cell_id": "{cell}", "subframes": [1, 3]},
    "post_handover": {"rnti": "{rnti}", "source_cell": "{cell}",
                      "target_cell": "{target}"},
}
ROUTE_ARGS = {
    "stream_ue": ("{agent}", "{rnti}"),
    "stream_cell": ("{agent}", "{cell}"),
    "delete_subscription": ("{sub}",),
}


def request_every_route(client, fills: Dict[str, int]
                        ) -> List[Tuple[str, int]]:
    """Send one request to every route of ``build_router()``'s table,
    with ``{agent}``, ``{rnti}``, ``{cell}``, ``{target}`` and ``{sub}``
    taken from *fills*.  The streams are opened first and each is read
    for one item and closed once every other request has been answered,
    so the events a command raises reach the event stream.  Returns each
    request's ``METHOD path`` and HTTP status."""
    from repro.nb.client import ClientError
    from repro.nb.routes import build_router

    def fill(value):
        if isinstance(value, str) and value.startswith("{"):
            return fills[value.strip("{}")]
        return value

    sent = []
    streams = []
    routes = sorted(build_router()._routes,
                    key=lambda route: not route[2].__name__.startswith(
                        "stream_"))
    for method, pattern, handler in routes:
        args = iter(ROUTE_ARGS.get(handler.__name__, ("{agent}",)))
        path = "/" + "/".join(str(fill(next(args))) if part == "{int}"
                              else part for part in pattern)
        body = ROUTE_BODIES.get(handler.__name__)
        if body is not None:
            body = {key: fill(value) for key, value in body.items()}
        status = 200
        try:
            if handler.__name__.startswith("stream_"):
                streams.append(client.stream(path + "?period=1&mode=sse"))
            elif method == "DELETE":
                client.delete(path)
            else:
                client.request(method, path, body)
        except ClientError as exc:
            status = exc.status
        sent.append((f"{method} {path}", status))
    for stream in streams:
        with stream:
            stream.read(1)
    return sent


def serve_every_route(smoke: Callable,
                      sent: List[Tuple[str, int]]) -> Callable:
    """Wrap the CLI's smoke client: after the scripted smoke, request
    every route (:func:`request_every_route`), then three requests the
    server refuses (no token, no route, a bad ``Content-Length``), then
    read ten TTIs so the agent meets the refused VSF push."""
    from repro.nb.client import ClientError, NorthboundClient

    def smoke_then_every_route(host, port, *, min_items, token=""):
        report = smoke(host, port, min_items=min_items, token=token)
        client = NorthboundClient(host, port, token=token)
        agent = report["agents"][0]
        ue = client.get(f"/v1/rib/agents/{agent}/ues")["ues"][0]
        target = next(cell for cell
                      in client.get(f"/v1/rib/agents/{agent}")["cells"]
                      if cell != ue["cell"])
        with client.stream("/v1/stream/tti?period=1") as ticks:
            sent.extend(request_every_route(client, {
                "agent": agent, "rnti": ue["rnti"], "cell": ue["cell"],
                "target": target, "sub": int(ticks.subscription_id)}))
        for what, refused in (
                ("GET /v1/info without the token",
                 NorthboundClient(host, port).info),
                ("GET /v1/no/such/route",
                 lambda: client.get("/v1/no/such/route"))):
            try:
                refused()
                sent.append((what, 200))
            except ClientError as exc:
                sent.append((what, exc.status))
        conn = http.client.HTTPConnection(host, port, timeout=10)
        conn.request("GET", "/v1/info", headers={"Content-Length": "x"})
        sent.append(("GET /v1/info with a bad Content-Length",
                     conn.getresponse().status))
        conn.close()
        with client.stream("/v1/stream/tti?period=1") as ticks:
            ticks.read(10)
        return report

    return smoke_then_every_route


def run_drivers(workdir: str) -> Tuple[List[str], bool]:
    """Run every driver; returns a line per failed driver and whether
    the 2-worker ``cluster`` run's RIB census held (``cluster`` exits 1
    unless the RIB holds every agent and UE)."""
    from repro import cli
    from repro.cluster.supervise import ClusterDeadlineError

    failed: List[str] = []

    def drive(*argv: str) -> int:
        start = time.perf_counter()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        print(f"# repro {' '.join(argv)}: exit {code}, "
              f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
        if code:
            print(out.getvalue(), file=sys.stderr)
            failed.append(f"repro {' '.join(argv)}  (driver exited {code})")
        return code

    start = time.perf_counter()
    run_catalogue()
    print(f"# catalogue: {time.perf_counter() - start:.1f} s",
          file=sys.stderr)
    drive("info")
    drive("trace", "--scenario", "partitioned_centralized",
          "--out", f"{workdir}/trace.json")
    drive("stats", "--ttis", "500", "--format", "prom")
    drive("stats", "--format", "jsonl", "--out", f"{workdir}/stats.jsonl")
    drive("chaos")

    drive("serve", "--smoke")
    sent: List[Tuple[str, int]] = []
    smoke = cli._smoke_client
    cli._smoke_client = serve_every_route(smoke, sent)
    try:
        drive("serve", "--smoke", "--token", TOKEN,
              "--scenario", "feature_tour",
              "--report", f"{workdir}/serve.json")
    finally:
        cli._smoke_client = smoke
    for request, status in sent:
        print(f"{request}: HTTP {status}", file=sys.stderr)
        if status >= 500:
            failed.append(f"{request}  (northbound answered {status})")

    fleet = ("--workers", "2", "--enbs", "4", "--ues-per-enb", "2",
             "--ttis", "60", "--stall-timeout", "0.3")
    census = drive("cluster", *fleet) == 0
    drive("cluster", "--chaos", *fleet, "--report",
          f"{workdir}/chaos.json")
    drive("cluster", "--chaos", *fleet, "--respawn-budget", "0")
    try:
        drive("cluster", *fleet, "--run-deadline", "0.001")
        failed.append("repro cluster --run-deadline 0.001  (no "
                      "ClusterDeadlineError)")
    except ClusterDeadlineError:
        pass
    return failed, census


def main() -> int:
    # Before any repro import, so module-level calls are seen too.
    sys.setprofile(_profile)
    threading.setprofile(_profile)
    try:
        with tempfile.TemporaryDirectory() as workdir:
            failed, census_held = run_drivers(workdir)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)

    allowlist = read_allowlist(ALLOWLIST)
    missing = unreached(CALLED)
    lines = failed + findings(missing, allowlist, census_held=census_held)
    for line in lines:
        print(line)
    print(f"# {len(missing)} unreached, {len(allowlist)} allowlist lines, "
          f"{len(lines)} printed", file=sys.stderr)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())

"""Northbound route table: HTTP verbs + paths -> typed commands.

The frontend normalizes every request into the same typed northbound
vocabulary in-process apps use: a route handler either performs a
read/command on the master's :class:`NorthboundApi` directly (the
server dispatches from the master's cycle hook, between TTIs) or
returns a :class:`StreamRequest` telling the transport to open a
subscription stream.  The route layer itself knows nothing about
sockets, so its handlers are unit-testable without a server.

See docs/NORTHBOUND.md for the endpoint catalogue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro import obs as _obs
from repro.core.protocol.errors import EncodeError
from repro.nb import encoders
from repro.nb.service import NorthboundService


class ApiError(Exception):
    """A request error with an HTTP status code."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class StreamRequest:
    """A handler's instruction to open a subscription stream."""

    kind: str
    mode: str  # "jsonl" | "sse"
    event_classes: Optional[frozenset] = None
    key: Optional[Tuple[int, int]] = None
    period_ttis: int = 10


def _require(body: dict, field: str, kind=None):
    if field not in body:
        raise ApiError(400, f"missing field {field!r}")
    value = body[field]
    if kind is not None and not isinstance(value, kind):
        raise ApiError(400, f"field {field!r} has wrong type")
    return value


def _int_query(query: Dict[str, str], name: str, default: int) -> int:
    raw = query.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ApiError(400, f"query parameter {name!r} must be an integer")
    if value < 1:
        raise ApiError(400, f"query parameter {name!r} must be >= 1")
    return value


def _stream_mode(query: Dict[str, str]) -> str:
    mode = query.get("mode", encoders.MODE_JSONL)
    if mode not in encoders.FRAMERS:
        raise ApiError(400, f"unknown stream mode {mode!r} "
                            f"(want jsonl or sse)")
    return mode


class Router:
    """Matches (method, path) and runs the handler.

    Paths are matched segment-wise; ``{int}`` segments capture decimal
    integers.  Handlers have the signature
    ``handler(service, args, body, query) -> object | StreamRequest``.
    """

    def __init__(self) -> None:
        self._routes: List[Tuple[str, Tuple[str, ...], Callable]] = []

    def add(self, method: str, pattern: str, handler: Callable) -> None:
        self._routes.append((method, tuple(pattern.strip("/").split("/")),
                             handler))

    def dispatch(self, service: NorthboundService, method: str, path: str,
                 body: Optional[dict], query: Dict[str, str]):
        segments = tuple(s for s in path.strip("/").split("/") if s)
        matched_path = False
        for route_method, pattern, handler in self._routes:
            args = self._match(pattern, segments)
            if args is None:
                continue
            matched_path = True
            if route_method != method:
                continue
            try:
                return handler(service, args, body or {}, query)
            except EncodeError as exc:
                # A value JSON carries but the wire cannot (a lone
                # surrogate in a string, an out-of-range integer) is
                # the request's fault, whichever command met it.
                raise ApiError(400, f"request cannot be encoded: {exc}") \
                    from None
        if matched_path:
            raise ApiError(405, f"method {method} not allowed on {path}")
        raise ApiError(404, f"no such endpoint: {path}")

    @staticmethod
    def _match(pattern: Tuple[str, ...],
               segments: Tuple[str, ...]) -> Optional[List[int]]:
        if len(pattern) != len(segments):
            return None
        args: List[int] = []
        for expected, got in zip(pattern, segments):
            if expected == "{int}":
                if not got.isdigit():
                    return None
                args.append(int(got))
            elif expected != got:
                return None
        return args


# -- read handlers ----------------------------------------------------------


def get_info(service, args, body, query):
    nb = service.master.northbound
    return {
        "platform": "repro-flexran",
        "tti": nb.now,
        "agents": nb.agent_ids(),
        "live_agents": nb.live_agent_ids(),
        "apps": service.master.registry.names(),
        "service": service.stats(),
    }


def get_apps(service, args, body, query):
    return {"apps": service.master.registry.describe()}


def get_agents(service, args, body, query):
    nb = service.master.northbound
    now = nb.now
    return {"tti": now,
            "agents": [encoders.agent_summary(nb.rib.agent(a), now)
                       for a in nb.agent_ids()]}


def _agent_node(nb, agent_id: int):
    try:
        return nb.rib.agent(agent_id)
    except KeyError:
        raise ApiError(404, f"no agent {agent_id}") from None


def get_agent(service, args, body, query):
    (agent_id,) = args
    nb = service.master.northbound
    return encoders.agent_detail(_agent_node(nb, agent_id), nb.now)


def get_agent_ues(service, args, body, query):
    (agent_id,) = args
    nb = service.master.northbound
    node = _agent_node(nb, agent_id)
    now = nb.now
    return {"tti": now, "agent": agent_id,
            "ues": [encoders.ue_sample(now, agent_id, ue, ue.rnti)
                    for ue in node.all_ues()]}


def get_metrics(service, args, body, query):
    return {"metrics": _obs.get().registry.snapshot()}


def get_subscriptions(service, args, body, query):
    return {"subscriptions": service.table.describe()}


# -- command handlers -------------------------------------------------------


def post_policy(service, args, body, query):
    (agent_id,) = args
    text = _require(body, "text", str)
    xid = service.master.northbound.send_policy(agent_id, text)
    return {"xid": xid}


def post_vsf(service, args, body, query):
    (agent_id,) = args
    module = _require(body, "module", str)
    operation = _require(body, "operation", str)
    name = _require(body, "name", str)
    factory = _require(body, "factory", str)
    params = body.get("params")
    if params is not None and not isinstance(params, dict):
        raise ApiError(400, "field 'params' must be an object")
    xid = service.master.northbound.push_vsf(
        agent_id, module, operation, name, factory, params)
    return {"xid": xid}


def post_prb_cap(service, args, body, query):
    (agent_id,) = args
    cell_id = _require(body, "cell_id", int)
    cap = body.get("cap")
    if cap is not None and not isinstance(cap, int):
        raise ApiError(400, "field 'cap' must be an integer or null")
    xid = service.master.northbound.set_prb_cap(agent_id, cell_id, cap)
    return {"xid": xid}


def post_abs_pattern(service, args, body, query):
    (agent_id,) = args
    cell_id = _require(body, "cell_id", int)
    subframes = _require(body, "subframes", list)
    if not all(isinstance(s, int) for s in subframes):
        raise ApiError(400, "field 'subframes' must be a list of integers")
    xid = service.master.northbound.set_abs_pattern(
        agent_id, cell_id, subframes)
    return {"xid": xid}


def post_handover(service, args, body, query):
    (agent_id,) = args
    rnti = _require(body, "rnti", int)
    source_cell = _require(body, "source_cell", int)
    target_cell = _require(body, "target_cell", int)
    xid = service.master.northbound.send_handover(
        agent_id, rnti, source_cell, target_cell)
    return {"xid": xid}


def delete_subscription(service, args, body, query):
    (sub_id,) = args
    if not service.unsubscribe(sub_id):
        raise ApiError(404, f"no subscription {sub_id}")
    return {"unsubscribed": sub_id}


# -- stream handlers --------------------------------------------------------


def stream_events(service, args, body, query):
    classes = None
    raw = query.get("classes")
    if raw:
        classes = frozenset(c.strip() for c in raw.split(",") if c.strip())
    return StreamRequest(kind="events", mode=_stream_mode(query),
                         event_classes=classes)


def stream_ue(service, args, body, query):
    agent_id, rnti = args
    return StreamRequest(kind="ue", mode=_stream_mode(query),
                         key=(agent_id, rnti),
                         period_ttis=_int_query(query, "period", 10))


def stream_cell(service, args, body, query):
    agent_id, cell_id = args
    return StreamRequest(kind="cell", mode=_stream_mode(query),
                         key=(agent_id, cell_id),
                         period_ttis=_int_query(query, "period", 10))


def stream_tti(service, args, body, query):
    return StreamRequest(kind="tti", mode=_stream_mode(query),
                         period_ttis=_int_query(query, "period", 100))


def build_router() -> Router:
    r = Router()
    r.add("GET", "/v1/info", get_info)
    r.add("GET", "/v1/apps", get_apps)
    r.add("GET", "/v1/rib/agents", get_agents)
    r.add("GET", "/v1/rib/agents/{int}", get_agent)
    r.add("GET", "/v1/rib/agents/{int}/ues", get_agent_ues)
    r.add("GET", "/v1/metrics", get_metrics)
    r.add("GET", "/v1/subscriptions", get_subscriptions)
    r.add("DELETE", "/v1/subscriptions/{int}", delete_subscription)
    r.add("POST", "/v1/agents/{int}/policy", post_policy)
    r.add("POST", "/v1/agents/{int}/vsf", post_vsf)
    r.add("POST", "/v1/agents/{int}/config/prb_cap", post_prb_cap)
    r.add("POST", "/v1/agents/{int}/config/abs_pattern", post_abs_pattern)
    r.add("POST", "/v1/agents/{int}/handover", post_handover)
    r.add("GET", "/v1/stream/events", stream_events)
    r.add("GET", "/v1/stream/ue/{int}/{int}", stream_ue)
    r.add("GET", "/v1/stream/cell/{int}/{int}", stream_cell)
    r.add("GET", "/v1/stream/tti", stream_tti)
    return r

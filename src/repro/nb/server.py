"""HTTP/1.1 frontend for the northbound service plane.

A deliberately small HTTP/1.1 server on non-blocking stdlib sockets
(no new dependencies): unary requests get JSON responses over
keep-alive connections; stream requests (``/v1/stream/...``) subscribe
a row in the routing table and hold the connection open, writing JSONL
or SSE frames as the controller publishes.

One thread owns the sockets, as on the control channel: every
connection is a :class:`~repro.net.tcp.SocketPeer` with a
:class:`RequestParser` as its decoder, and the service's cycle hook
pumps them between TTIs, in this order:

1. :meth:`NorthboundServer.serve` -- one readiness poll, then accept
   what is waiting and read the peers that are ready; each parsed
   request is dispatched right there, on the master's thread;
2. the service samples its streams;
3. :meth:`NorthboundServer.flush` -- hand each stream's queued frames
   to its socket.

No client can block the TTI: the kernel takes what it takes, and a
stream whose out-buffer holds more than ``OUT_BUFFER_BYTES`` leaves its
frames in the subscription's drop-oldest queue.  A request that
arrives while the simulation is not ticking waits in the kernel.
"""

from __future__ import annotations

import json
import logging
import select
import socket
import time
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

from repro import obs as _obs
from repro.nb import encoders
from repro.nb.auth import AuthPolicy
from repro.nb.routes import ApiError, Router, StreamRequest, build_router
from repro.nb.service import NorthboundService
from repro.nb.subscriptions import Subscription
from repro.net import tcp

logger = logging.getLogger(__name__)

MAX_HEADER_BYTES = 16384
MAX_BODY_BYTES = 1 << 20

_REASONS = {200: "OK", 400: "Bad Request", 401: "Unauthorized",
            404: "Not Found", 405: "Method Not Allowed",
            413: "Payload Too Large", 500: "Internal Server Error"}


class HttpError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class RequestParser:
    """Incremental HTTP/1.1 request parser: a ``SocketPeer`` decoder.

    ``feed`` accepts any chunking and returns the requests it
    completed, in order, as ``(method, path, query, headers, body)``.
    Input it cannot accept comes back as an :class:`HttpError` item,
    and the parser ignores everything after it.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._failed = False

    def feed(self, data: bytes) -> list:
        if self._failed:
            return []
        self._buffer += data
        items: list = []
        while True:
            try:
                request = self._parse_one()
            except HttpError as exc:
                self._failed = True
                self._buffer.clear()
                items.append(exc)
                return items
            if request is None:
                return items
            items.append(request)

    def _parse_one(self):
        buf = self._buffer
        end = buf.find(b"\r\n\r\n")
        if end < 0:
            if len(buf) > MAX_HEADER_BYTES:
                raise HttpError(413, "headers too large")
            return None
        head_len = end + 4
        if head_len > MAX_HEADER_BYTES:
            raise HttpError(413, "headers too large")
        lines = buf[:end].decode("latin-1").split("\r\n")
        try:
            method, target, _version = lines[0].split(" ", 2)
            parts = urlsplit(target)
        except ValueError:
            raise HttpError(400, f"malformed request line {lines[0]!r}"
                            ) from None
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        length = headers.get("content-length", "0")
        try:
            n = int(length)
        except ValueError:
            raise HttpError(400, "bad Content-Length") from None
        if n < 0:
            raise HttpError(400, "bad Content-Length")
        if n > MAX_BODY_BYTES:
            raise HttpError(413, "body too large")
        if len(buf) < head_len + n:
            return None  # body not fully arrived yet
        body = bytes(buf[head_len:head_len + n])
        del buf[:head_len + n]
        return (method.upper(), parts.path, dict(parse_qsl(parts.query)),
                headers, body)


class _Client:
    """One accepted connection and, once it asked for one, its stream."""

    __slots__ = ("fd", "peer", "events", "closing", "sub", "frame",
                 "histogram")

    def __init__(self, fd: int) -> None:
        self.fd = fd
        self.peer: Optional[tcp.SocketPeer] = None
        self.events = select.POLLIN
        #: Answered with ``Connection: close``: close once flushed.
        self.closing = False
        self.sub: Optional[Subscription] = None
        self.frame = None
        self.histogram = None


class NorthboundServer:
    """HTTP/1.1 + JSONL/SSE transport over a NorthboundService."""

    def __init__(self, service: NorthboundService, *,
                 host: str = "127.0.0.1", port: int = 0,
                 auth: Optional[AuthPolicy] = None,
                 router: Optional[Router] = None) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.auth = auth or AuthPolicy()
        self.router = router or build_router()
        self._listener: Optional[socket.socket] = None
        self._poller = select.poll()
        #: fd -> client, every open connection.
        self._clients: Dict[int, _Client] = {}
        #: sub_id -> client, the connections carrying a stream.
        self._streams: Dict[int, _Client] = {}
        self.connections_accepted = 0
        self.requests_served = 0
        self.streams_opened = 0

    # -- lifecycle --------------------------------------------------------

    def start(self) -> Tuple[str, int]:
        """Bind and hand the server to the service's pump; returns the
        bound (host, port)."""
        if self._listener is not None:
            raise RuntimeError("server already started")
        self._listener = socket.create_server((self.host, self.port),
                                              backlog=128)
        self._listener.setblocking(False)
        self.host, self.port = self._listener.getsockname()[:2]
        self._poller.register(self._listener, select.POLLIN)
        self.service.server = self
        return self.host, self.port

    def stop(self) -> None:
        """Close every connection (unsubscribing its stream) and the
        listener."""
        if self._listener is None:
            return
        if self.service.server is self:
            self.service.server = None
        for client in list(self._clients.values()):
            client.peer.close()
            self._drop(client)
        self._poller.unregister(self._listener)
        self._listener.close()
        self._listener = None

    # -- step 1: accept, read, dispatch -----------------------------------

    def serve(self) -> None:
        """One readiness poll; accept and read what is ready, answering
        each complete request."""
        for fd, _mask in self._poller.poll(0):
            client = self._clients.get(fd)
            if client is None:  # the listener
                self._accept()
            else:
                client.peer.pump()
                self._settle(client)

    def _accept(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except BlockingIOError:
                return
            except OSError as exc:  # e.g. out of descriptors: next TTI
                logger.warning("northbound accept failed: %s", exc)
                return
            client = _Client(sock.fileno())
            client.peer = tcp.SocketPeer(
                sock, RequestParser(), label="northbound client",
                on_body=lambda item, c=client: self._on_request(c, item))
            self._clients[client.fd] = client
            self._poller.register(client.fd, client.events)
            self.connections_accepted += 1
            # Its request usually rode in with the connect.
            client.peer.pump()
            self._settle(client)

    def _on_request(self, client: _Client, item) -> None:
        """A parsed request (or a parse error) from *client*."""
        if client.sub is not None:
            # A stream client sends nothing more: anything it does send
            # means it hung up.
            client.peer.close()
            return
        if client.closing:
            return  # pipelined behind a request that closes the connection
        if isinstance(item, HttpError):
            self._respond(client, item.status, {"error": item.message},
                          close=True)
            return
        method, path, query, headers, body = item
        self.requests_served += 1
        close = headers.get("connection", "").lower() == "close"
        if not self.auth.authorize(method, path, headers):
            self._respond(client, 401, {"error": "unauthorized"},
                          close=close,
                          extra_headers=[("WWW-Authenticate",
                                          self.auth.challenge())])
            return
        parsed_body: Optional[dict] = None
        if body:
            try:
                parsed_body = json.loads(body)
            except (ValueError, RecursionError):  # bytes, or too deep
                self._respond(client, 400,
                              {"error": "body is not valid JSON"},
                              close=close)
                return
            if not isinstance(parsed_body, dict):
                self._respond(client, 400,
                              {"error": "body must be a JSON object"},
                              close=close)
                return
        try:
            result = self.router.dispatch(self.service, method, path,
                                          parsed_body, query)
            if isinstance(result, StreamRequest):
                self._open_stream(client, result)
                return
        except ApiError as exc:
            self._respond(client, exc.status, {"error": exc.message},
                          close=close)
            return
        except Exception:  # noqa: BLE001 - request boundary
            logger.exception("northbound handler failed for %s %s",
                             method, path)
            self._respond(client, 500, {"error": "internal error"},
                          close=close)
            return
        self._respond(client, 200, result, close=close)

    def _respond(self, client: _Client, status: int, obj: object, *,
                 close: bool, extra_headers=()) -> None:
        payload = json.dumps(obj, default=str).encode("utf-8")
        head = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
                "Content-Type: application/json",
                f"Content-Length: {len(payload)}"]
        for name, value in extra_headers:
            head.append(f"{name}: {value}")
        if close:
            head.append("Connection: close")
            client.closing = True
        client.peer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1")
                          + payload)

    def _open_stream(self, client: _Client, request: StreamRequest) -> None:
        service = self.service
        if request.kind == "events":
            sub = service.subscribe_events(request.event_classes)
        elif request.kind == "ue":
            sub = service.subscribe_ue(*request.key,
                                       period_ttis=request.period_ttis)
        elif request.kind == "cell":
            sub = service.subscribe_cell(*request.key,
                                         period_ttis=request.period_ttis)
        else:
            sub = service.subscribe_tti(period_ttis=request.period_ttis)
        client.sub = sub
        client.frame = encoders.FRAMERS[request.mode]
        ob = _obs.live
        if ob is not None:
            client.histogram = ob.registry.histogram(
                f"nb.fanout.latency_ms.{sub.kind}")
        self._streams[sub.sub_id] = client
        self.streams_opened += 1
        client.peer.write((
            "HTTP/1.1 200 OK\r\n"
            f"Content-Type: {encoders.CONTENT_TYPES[request.mode]}\r\n"
            "Cache-Control: no-store\r\n"
            f"X-Subscription-Id: {sub.sub_id}\r\n"
            "Connection: close\r\n\r\n").encode("latin-1"))

    # -- step 3: frames to sockets ----------------------------------------

    def flush(self) -> None:
        """Hand each stream's queued frames to its socket, up to the
        out-buffer bound; what stays queued is the drop-oldest queue's
        to keep or drop."""
        for client in list(self._streams.values()):
            sub = client.sub
            peer = client.peer
            if sub.closed:  # unsubscribed by a DELETE: end the stream
                peer.close()
            elif sub.queue and peer.out_bytes <= tcp.OUT_BUFFER_BYTES:
                self._write_frames(client)
                peer.flush()
            else:
                continue
            self._settle(client)

    def _write_frames(self, client: _Client) -> None:
        sub = client.sub
        peer = client.peer
        queue = sub.queue
        frame = client.frame
        histogram = client.histogram
        now = time.perf_counter()
        while queue and peer.out_bytes <= tcp.OUT_BUFFER_BYTES:
            payload, stamp = queue.popleft()
            if histogram is not None:
                histogram.observe((now - stamp) * 1000.0)
            peer.write(frame(payload))
            sub.delivered += 1

    # -- bookkeeping ------------------------------------------------------

    def _settle(self, client: _Client) -> None:
        """After bytes moved: close what is done, drop what is closed,
        and watch for what the connection waits on next."""
        peer = client.peer
        if client.closing and not peer.wants_write:
            peer.close()
        if peer.closed:
            self._drop(client)
            return
        # A client that does not read its answers gets no more of them
        # parsed: its requests wait in the kernel.
        events = ((select.POLLIN if peer.out_bytes <= tcp.OUT_BUFFER_BYTES
                   else 0)
                  | (select.POLLOUT if peer.wants_write else 0))
        if events != client.events:
            client.events = events
            self._poller.modify(client.fd, events)

    def _drop(self, client: _Client) -> None:
        del self._clients[client.fd]
        self._poller.unregister(client.fd)
        if client.sub is not None:
            del self._streams[client.sub.sub_id]
            self.service.unsubscribe(client.sub.sub_id)


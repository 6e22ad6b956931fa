"""Real TCP transport for the master--agent control channel.

The paper's deployment speaks the FlexRAN protocol over plain TCP; this
module provides that transport for the reproduction, carrying exactly
the frames :mod:`repro.core.protocol.codec` produces today.  On the
wire every frame travels inside a length-prefixed envelope::

    [varint envelope length][varint deliver TTI][codec frame]

The deliver-TTI stamp is transport metadata (the TTI at which the
sender released the frame); the codec frame is byte-identical to what
the emulated link carries, so signaling accounting and the decode path
are unchanged.

One thread owns a socket.  A connection is a non-blocking
:class:`SocketPeer` that the thread owning its endpoint *pumps*: every
touch (``send``, ``receive``, a blocked wait) moves bytes both ways --
inbound through the :class:`FrameDecoder` into the endpoint's inbox,
outbound from a bounded out-buffer into the kernel.  Delivery is a
counted fact: an endpoint counts the frames it dispatched, parsed and
handled, and whoever must know that a frame arrived compares counts
instead of waiting a while.

Two operating modes share this machinery:

* **Lockstep** (:class:`TcpControlConnection`): agent and master live
  in one process and tick the same :class:`~repro.net.clock.SimClock`.
  An :class:`~repro.net.link.EmulatedLink` pair acts as the *schedule
  shadow*: ``send`` enqueues the encoded frame into the shadow exactly
  as the emulated transport does (same latency, jitter, loss,
  partition and accounting semantics -- the full netem repertoire),
  and a per-TTI flush ships the frames that became deliverable through
  the kernel, pumping both ends until the receiver has parsed as many
  frames as the sender dispatched.  Every existing scenario, fault
  injector and obs instrument therefore runs unchanged on either
  transport.

* **Streaming** (cluster mode): agent and master live in different
  processes with independent clocks.  ``send`` dispatches immediately;
  the master holds arrived uplink frames until its own clock reaches
  the deliver stamp, which keeps RIB application causally ordered even
  when a worker runs ahead of the master's tick point.
"""

from __future__ import annotations

import logging
import select
import socket
from collections import deque
from typing import Callable, Deque, Dict, Iterable, List, Optional, Tuple

from repro.net.link import EmulatedLink
from repro.net.transport import (
    ControlConnection,
    ProtocolEndpoint,
    TransportClosed,
)

logger = logging.getLogger(__name__)

MAX_FRAME_BYTES = 1 << 24
"""Upper bound on one envelope; a peer exceeding it is protocol-broken."""

PREAMBLE_MAGIC = 0x464C52  # "FLR"
"""First varint of a connection's preamble envelope."""

OUT_BUFFER_BYTES = 1 << 18
"""Unsent bytes a connection may hold before a streaming ``send`` blocks
until the kernel has taken the excess (the buffer exceeds the bound by
at most the frame that crossed it)."""

DEAD_PEER_S = 10.0
"""The transport's one wall-clock bound: a *blocked* wait (connect,
handshake, out-buffer relief, lockstep flush) in which no socket
becomes ready for this long declares the peer dead.  It only ever
judges the absence of all progress, never something that arrived."""


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


def encode_varint(value: int) -> bytes:
    """LEB128, the same encoding the protocol codec uses for fields."""
    if value < 0:
        raise ValueError(f"varint cannot encode negative value {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def encode_envelope(deliver_tti: int, frame: bytes) -> bytes:
    """Wrap one codec frame in the length-prefixed wire envelope."""
    body = encode_varint(deliver_tti) + frame
    return encode_varint(len(body)) + body


def decode_envelope(body: bytes) -> Tuple[int, bytes]:
    """Split an envelope body into (deliver_tti, codec frame)."""
    value = 0
    shift = 0
    for i, byte in enumerate(body):
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, bytes(body[i + 1:])
        shift += 7
    raise ValueError("truncated deliver-TTI varint in envelope")


class FrameDecoder:
    """Incremental length-prefix parser over an arbitrary byte stream.

    ``feed`` accepts any chunking the kernel hands us -- a length varint
    split across reads, many envelopes in one read -- and yields
    complete envelope bodies in order.
    """

    def __init__(self, *, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self._buffer = bytearray()
        self._max = max_frame_bytes

    def feed(self, data: bytes) -> List[bytes]:
        self._buffer.extend(data)
        bodies: List[bytes] = []
        while True:
            parsed = self._try_parse_one()
            if parsed is None:
                return bodies
            bodies.append(parsed)

    def _try_parse_one(self) -> Optional[bytes]:
        buf = self._buffer
        length = 0
        shift = 0
        offset = 0
        for offset, byte in enumerate(buf):
            length |= (byte & 0x7F) << shift
            if not byte & 0x80:
                break
            shift += 7
            if shift > 70:
                raise ValueError("oversized length varint in TCP stream")
        else:
            return None  # length varint incomplete (or empty buffer)
        if length > self._max:
            raise ValueError(
                f"envelope of {length} bytes exceeds the "
                f"{self._max}-byte frame limit")
        start = offset + 1
        if len(buf) - start < length:
            return None  # body not fully arrived yet
        body = bytes(buf[start:start + length])
        del buf[:start + length]
        return body


# ---------------------------------------------------------------------------
# The pumped socket
# ---------------------------------------------------------------------------


class SocketPeer:
    """One TCP connection as a non-blocking socket its owner pumps.

    ``pump`` is the only place bytes move: it reads until the kernel
    has nothing more (every complete envelope goes to ``on_body``) and
    writes the out-buffer until the kernel takes no more.  EOF, a reset
    or a protocol-broken stream closes the peer.
    """

    def __init__(self, sock: socket.socket, *, label: str,
                 on_body: Callable[[bytes], None]) -> None:
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock
        self.label = label
        self.on_body = on_body
        self.closed = False
        self.backpressure_waits = 0
        self._decoder = FrameDecoder()
        self._out = bytearray()

    def fileno(self) -> int:
        return self.sock.fileno()

    @property
    def wants_write(self) -> bool:
        return bool(self._out) and not self.closed

    def pump(self) -> bool:
        """One non-blocking pass, both directions; True if bytes moved."""
        if self.closed:
            return False
        moved = False
        try:
            while True:
                data = self.sock.recv(1 << 16)
                if not data:
                    self.close()
                    break
                moved = True
                for body in self._decoder.feed(data):
                    self.on_body(body)
        except BlockingIOError:
            pass
        except ValueError as exc:  # outside input: never trusted
            logger.error("%s: broken TCP stream: %s", self.label, exc)
            self.close()
        except OSError:  # a reset: the peer is gone
            self.close()
        if self.closed:
            return True
        try:
            while self._out:
                del self._out[:self.sock.send(self._out)]
                moved = True
        except BlockingIOError:
            pass
        except OSError:  # EPIPE / ECONNRESET: the peer is gone
            self.close()
        return moved

    def queue(self, blob: bytes) -> None:
        """Append one enveloped blob and push what the kernel takes."""
        self._out += blob
        self.pump()
        if self.closed:
            raise TransportClosed(f"{self.label}: connection closed")

    def relieve(self) -> None:
        """Backpressure: while the out-buffer is over its bound, block
        pumping *both* directions -- a slow peer throttles its producer
        without a second thread, and two peers both blocked here still
        read each other's bytes (no send/send deadlock)."""
        if len(self._out) > OUT_BUFFER_BYTES:
            self.backpressure_waits += 1
            pump_until(lambda: len(self._out) <= OUT_BUFFER_BYTES, (self,))

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self.sock.close()


def wait_ready(peers: Iterable[SocketPeer], readers: Iterable = (), *,
               timeout: Optional[float] = None) -> bool:
    """Block until a peer's socket can move bytes or one of *readers*
    (anything with ``fileno()``: a control pipe, a listener) is
    readable; False when *timeout* seconds passed first."""
    poller = select.poll()
    for reader in readers:
        poller.register(reader, select.POLLIN)
    for peer in peers:
        if not peer.closed:
            poller.register(peer, select.POLLIN | select.POLLOUT
                            if peer.wants_write else select.POLLIN)
    return bool(poller.poll(None if timeout is None else timeout * 1e3))


def pump_until(settled: Callable[[], bool],
               peers: Tuple[SocketPeer, ...]) -> None:
    """Pump *peers* until ``settled()``; :class:`TransportClosed` when
    one closes first or nothing moves for :data:`DEAD_PEER_S`."""
    while not settled():
        moved = False
        for peer in peers:
            moved |= peer.pump()
            if peer.closed:
                raise TransportClosed(f"{peer.label}: connection closed")
        if not moved and not wait_ready(peers, timeout=DEAD_PEER_S):
            raise TransportClosed(
                f"{peers[0].label}: peer made no progress for "
                f"{DEAD_PEER_S:g}s")


# ---------------------------------------------------------------------------
# Endpoints
# ---------------------------------------------------------------------------


class TcpEndpoint(ProtocolEndpoint):
    """A :class:`ProtocolEndpoint` whose frames traverse a real TCP
    connection.

    The *outbound* :class:`EmulatedLink` is retained as the schedule
    shadow -- `send` runs the identical encode/accounting/fault path as
    the emulated transport -- but delivery happens by shipping the
    frames the shadow releases through the socket, and ``receive``
    pumps that socket itself and drains the inbox it fills.

    ``frames_dispatched`` (handed to the socket), ``frames_parsed``
    (read off it) and ``frames_handled`` (returned by ``receive``) are
    the delivery facts: a direction has quiesced when the receiver's
    ``frames_handled`` equals the sender's ``frames_dispatched``.
    """

    def __init__(self, outbound: EmulatedLink, inbound: EmulatedLink, *,
                 peer: str = "", tx_direction: str = "",
                 rx_direction: str = "", streaming: bool = False) -> None:
        super().__init__(outbound, inbound, peer=peer,
                         tx_direction=tx_direction,
                         rx_direction=rx_direction)
        self.streaming = streaming
        self.sock: Optional[SocketPeer] = None
        self._inbox: Deque[Tuple[int, bytes]] = deque()
        self.frames_dispatched = 0
        self.frames_parsed = 0

    def attach_socket(self, sock: SocketPeer) -> None:
        self.sock = sock

    @property
    def connected(self) -> bool:
        return self.sock is not None and not self.sock.closed

    @property
    def frames_handled(self) -> int:
        return self.frames_parsed - len(self._inbox)

    # -- send path ---------------------------------------------------------

    def send(self, message, *, now: int) -> int:
        if not self.connected:
            # A closed connection is a down link: the shadow accounts
            # the frame as dropped, the caller learns the peer is gone.
            self._outbound.set_up(False)
            super().send(message, now=now)
            raise TransportClosed(f"{self.peer}: connection closed")
        size = super().send(message, now=now)
        if self.streaming:
            self.transmit_due(now)
            self.sock.relieve()
        return size

    def transmit_due(self, now: int) -> int:
        """Ship every shadow-released frame through the socket.

        Returns the number of frames dispatched.  Frames the shadow is
        still holding (latency not elapsed), dropped (loss, down link)
        or that it discarded in flight (partition) never touch the
        socket -- identical loss semantics to the emulated transport.
        """
        frames = self._outbound.deliver_due(now)
        for frame in frames:
            self.sock.queue(encode_envelope(now, frame))
        self.frames_dispatched += len(frames)
        return len(frames)

    # -- receive path ------------------------------------------------------

    def on_envelope(self, body: bytes) -> None:
        """Park one parsed envelope in the inbox (the socket's sink)."""
        self._inbox.append(decode_envelope(body))
        self.frames_parsed += 1

    def receive(self, *, now: int) -> list:
        self.sock.pump()
        inbox = self._inbox
        # Only the uplink waits for its stamp: the master's clock is the
        # fleet's and never restarts, whereas a respawned worker is back
        # at TTI 0 and must answer the master's later-stamped requests
        # before it can be granted a single TTI.
        gated = self.rx_direction == "ul"
        frames: List[bytes] = []
        while inbox and (inbox[0][0] <= now or not gated):
            frames.append(inbox.popleft()[1])
        return self._decode_frames(frames, now)

    def pending_frames(self) -> int:
        """Parsed frames still waiting for their deliver TTI."""
        return len(self._inbox)

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()


# ---------------------------------------------------------------------------
# Connection establishment
# ---------------------------------------------------------------------------


def _preamble(agent_id: int) -> bytes:
    body = encode_varint(PREAMBLE_MAGIC) + encode_varint(agent_id)
    return encode_varint(len(body)) + body


def _parse_preamble(body: bytes) -> int:
    magic, rest = decode_envelope(body)  # same [varint][tail] layout
    if magic != PREAMBLE_MAGIC:
        raise ValueError(f"bad preamble magic {magic:#x}")
    agent_id, tail = decode_envelope(rest + b"\x00")  # tolerate empty tail
    if tail not in (b"", b"\x00"):
        raise ValueError("trailing bytes after preamble")
    return agent_id


class TcpTransportServer:
    """Master-side listener, pumped by the thread that owns the master.

    A connecting agent announces itself with one preamble envelope
    (magic + agent id); ``pump`` accepts what is waiting, reads each
    new connection until its preamble is complete, builds the
    master-side endpoint via *endpoint_factory* (``KeyError`` /
    ``ValueError`` reject the id), binds it to the socket and hands it
    to *on_agent* -- all on the caller's thread, so the callbacks may
    touch the master directly.
    """

    def __init__(self, *, host: str = "127.0.0.1", port: int = 0,
                 endpoint_factory: Callable[[int], TcpEndpoint],
                 on_agent: Optional[Callable[[int, TcpEndpoint], None]]
                 = None) -> None:
        self.host = host
        self.port = port
        self._endpoint_factory = endpoint_factory
        self._on_agent = on_agent
        self._listener: Optional[socket.socket] = None
        self._handshakes: List[Tuple[SocketPeer, List[bytes]]] = []
        self._peers: List[SocketPeer] = []
        self.agents_accepted = 0

    def start(self) -> Tuple[str, int]:
        self._listener = socket.create_server((self.host, self.port),
                                              backlog=128)
        self._listener.setblocking(False)
        self.host, self.port = self._listener.getsockname()[:2]
        return self.host, self.port

    def waitables(self) -> list:
        """What a readiness wait must watch for ``pump`` to have work."""
        return [self._listener] + [peer for peer, _ in self._handshakes]

    def open_connections(self) -> int:
        """Identified connections nobody has closed yet."""
        self._peers = [peer for peer in self._peers if not peer.closed]
        return len(self._peers)

    def pump(self) -> bool:
        """Accept and identify waiting connections; True if any moved."""
        moved = False
        while True:
            try:
                sock, _ = self._listener.accept()
            except BlockingIOError:
                break
            bodies: List[bytes] = []
            self._handshakes.append((SocketPeer(
                sock, label="tcp server handshake",
                on_body=bodies.append), bodies))
            moved = True
        for entry in list(self._handshakes):
            peer, bodies = entry
            moved |= peer.pump()
            if bodies or peer.closed:  # closed: EOF or a broken stream
                self._handshakes.remove(entry)
                if bodies:
                    self._bind(peer, bodies)
        return moved

    def _bind(self, peer: SocketPeer, bodies: List[bytes]) -> None:
        try:
            agent_id = _parse_preamble(bodies[0])
            endpoint = self._endpoint_factory(agent_id)
            peer.label = f"master<-agent{agent_id}"
            peer.on_body = endpoint.on_envelope
            # Frames that rode in behind the preamble in the same read.
            for body in bodies[1:]:
                endpoint.on_envelope(body)
        except (KeyError, ValueError) as exc:
            logger.error("tcp server: rejected connection: %r", exc)
            peer.close()
            return
        endpoint.attach_socket(peer)
        self._peers.append(peer)
        self.agents_accepted += 1
        if self._on_agent is not None:
            self._on_agent(agent_id, endpoint)

    def stop(self) -> None:
        for peer in self._peers + [p for p, _ in self._handshakes]:
            peer.close()
        self._peers, self._handshakes = [], []
        if self._listener is not None:
            self._listener.close()
            self._listener = None


def connect_endpoint(host: str, port: int, *, agent_id: int,
                     endpoint: TcpEndpoint) -> TcpEndpoint:
    """Dial the transport server and bind *endpoint* to the connection.

    The connect blocks (the listener's backlog completes it whether or
    not the server is being pumped right now); the identifying preamble
    is queued like any other bytes.  Returns the same endpoint.
    """
    endpoint.attach_socket(SocketPeer(
        socket.create_connection((host, port), timeout=DEAD_PEER_S),
        label=f"agent{agent_id}->master", on_body=endpoint.on_envelope))
    endpoint.sock.queue(_preamble(agent_id))
    return endpoint


# ---------------------------------------------------------------------------
# Lockstep connection (ControlConnection over real sockets)
# ---------------------------------------------------------------------------


class TcpControlConnection(ControlConnection):
    """A full agent<->master connection over real TCP, lockstep flavor.

    A :class:`~repro.net.transport.ControlConnection` with
    :class:`TcpEndpoint` sides: the same ``channel`` (the schedule
    shadow -- all netem fault knobs and the Fig. 7 accounting read
    from it exactly as before), plus the per-TTI ``flush_uplink`` /
    ``flush_downlink`` hooks the simulation clock drives in its LINK
    phases.  Each flush ships the frames that became deliverable this
    TTI through the kernel and pumps both ends until the receiver has
    parsed them, which preserves the emulated transport's causal
    ordering TTI for TTI.
    """

    ENDPOINT = TcpEndpoint

    def __init__(self, server: "TcpConnectionFabric", agent_id: int, *,
                 rtt_ms: float = 0.0, name: str = "conn",
                 seed: int = 0) -> None:
        super().__init__(rtt_ms=rtt_ms, name=name, seed=seed)
        server.establish(agent_id, self)

    def _flush(self, sender: TcpEndpoint, receiver: TcpEndpoint,
               now: int) -> None:
        sender.transmit_due(now)
        pump_until(
            lambda: receiver.frames_parsed == sender.frames_dispatched,
            (sender.sock, receiver.sock))

    def flush_uplink(self, now: int) -> None:
        """LINK_UP phase: ship due agent->master frames, await parse."""
        self._flush(self.agent_side, self.master_side, now)

    def flush_downlink(self, now: int) -> None:
        """LINK_DOWN phase: ship due master->agent frames, await parse."""
        self._flush(self.master_side, self.agent_side, now)

    def close(self) -> None:
        self.agent_side.close()
        self.master_side.close()


class TcpConnectionFabric:
    """In-process TCP wiring: one transport server that pairs each
    :class:`TcpControlConnection`'s two endpoints over loopback.

    ``establish`` dials the server with the agent-id preamble and pumps
    the accept path until it has bound the registered master-side
    endpoint to the accepted socket.  Used by
    :class:`~repro.sim.simulation.Simulation` when ``transport="tcp"``.
    """

    def __init__(self, *, host: str = "127.0.0.1") -> None:
        self._expected: Dict[int, TcpControlConnection] = {}
        self.server = TcpTransportServer(
            host=host, endpoint_factory=lambda agent_id:
            self._expected[agent_id].master_side)
        self.host, self.port = self.server.start()

    def establish(self, agent_id: int,
                  connection: TcpControlConnection) -> None:
        if agent_id in self._expected:
            raise ValueError(f"agent {agent_id} already on TCP fabric")
        self._expected[agent_id] = connection
        dialed = connect_endpoint(self.host, self.port, agent_id=agent_id,
                                  endpoint=connection.agent_side).sock
        while not connection.master_side.connected:
            if not (dialed.pump() | self.server.pump()) and not wait_ready(
                    (dialed,), self.server.waitables(),
                    timeout=DEAD_PEER_S):
                raise TransportClosed(
                    f"TCP fabric: agent {agent_id} handshake made no "
                    f"progress for {DEAD_PEER_S:g}s")

    def close(self) -> None:
        for connection in self._expected.values():
            connection.close()
        self.server.stop()

"""Protocol transport: message endpoints over emulated links.

In the real platform agents talk to the master over TCP; here the two
sides of a connection exchange *encoded frames* over a
:class:`~repro.net.link.DuplexChannel`.  Encoding and decoding happen
on every message, so byte accounting and parse correctness are
exercised continuously, not just in unit tests.

Endpoints are observability hooks: when ``repro.obs`` is enabled they
report every message's ``enqueue`` and ``wire`` (send side) and
``deliver`` (receive side) lifecycle stages to the xid correlator,
trace each send as a ``transport`` span, and count bytes/messages per
direction.  The dispatchers (agent, master) report the final
``handle`` stage.
"""

from __future__ import annotations

from typing import List

from repro import obs as _obs
from repro.core.protocol import codec
from repro.core.protocol.messages import FlexRanMessage
from repro.net.link import DuplexChannel, EmulatedLink


class TransportClosed(RuntimeError):
    """The connection under an endpoint is gone (peer exited, socket
    reset, transport shut down); the frame being sent was accounted as
    dropped by the endpoint's link."""


class ProtocolEndpoint:
    """One side of a control connection (send + receive queues).

    ``peer`` names the connection and ``tx_direction`` /
    ``rx_direction`` its traffic directions (``"ul"`` / ``"dl"``);
    together they key this endpoint's xid-correlator records.
    """

    def __init__(self, outbound: EmulatedLink, inbound: EmulatedLink, *,
                 peer: str = "", tx_direction: str = "",
                 rx_direction: str = "") -> None:
        self._outbound = outbound
        self._inbound = inbound
        self.peer = peer
        self.tx_direction = tx_direction
        self.rx_direction = rx_direction
        self.sent_messages = 0
        self.received_messages = 0

    def send(self, message: FlexRanMessage, *, now: int) -> int:
        """Serialize and transmit; returns the frame size in bytes."""
        ob = _obs.get()
        if not ob.enabled:
            frame = codec.encode(message)
            self._outbound.send(frame, len(frame), now=now,
                                category=message.CATEGORY)
            self.sent_messages += 1
            return len(frame)
        msg_type = type(message).__name__
        with ob.tracer.span("transport", f"send:{msg_type}", tti=now,
                            peer=self.peer, direction=self.tx_direction):
            frame = codec.encode(message)
            deliver_tti = self._outbound.send(frame, len(frame), now=now,
                                              category=message.CATEGORY)
        self.sent_messages += 1
        xid = message.header.xid
        correlator = ob.correlator
        correlator.on_enqueue(self.peer, self.tx_direction, msg_type,
                              xid, now)
        correlator.on_wire(self.peer, self.tx_direction, msg_type, xid,
                           now, dropped=deliver_tti < 0)
        ob.registry.counter("net.tx.messages").inc()
        ob.registry.counter("net.tx.bytes").inc(len(frame))
        return len(frame)

    def receive(self, *, now: int) -> List[FlexRanMessage]:
        """Decode every frame whose link latency has elapsed."""
        return self._decode_frames(self._inbound.deliver_due(now), now)

    def _decode_frames(self, frames: List[bytes],
                       now: int) -> List[FlexRanMessage]:
        """Decode delivered frames with the obs deliver-stage hooks.

        Shared by the emulated receive path above and the TCP
        transport (:mod:`repro.net.tcp`), so both report identical
        lifecycle records to the xid correlator.
        """
        if not frames:
            return []
        messages = [codec.decode(frame) for frame in frames]
        self.received_messages += len(messages)
        ob = _obs.get()
        if ob.enabled:
            correlator = ob.correlator
            for message in messages:
                correlator.on_deliver(self.peer, self.rx_direction,
                                      type(message).__name__,
                                      message.header.xid, now)
            ob.registry.counter("net.rx.messages").inc(len(messages))
            ob.registry.counter("net.rx.bytes").inc(
                sum(len(frame) for frame in frames))
        return messages


class ControlConnection:
    """A full agent<->master connection: duplex link + two endpoints.

    ``uplink`` carries agent-to-master traffic (reports, sync, events);
    ``downlink`` carries master-to-agent traffic (commands, delegation).
    """

    #: Endpoint class for both sides; a transport subclass swaps it.
    ENDPOINT = ProtocolEndpoint

    def __init__(self, *, rtt_ms: float = 0.0, name: str = "conn",
                 seed: int = 0) -> None:
        self.channel = DuplexChannel(rtt_ms=rtt_ms, name=name, seed=seed)
        self.agent_side = self.ENDPOINT(
            self.channel.uplink, self.channel.downlink,
            peer=name, tx_direction="ul", rx_direction="dl")
        self.master_side = self.ENDPOINT(
            self.channel.downlink, self.channel.uplink,
            peer=name, tx_direction="dl", rx_direction="ul")

    @property
    def rtt_ttis(self) -> int:
        return self.channel.rtt_ttis

    def set_rtt_ms(self, rtt_ms: float) -> None:
        """Reconfigure round-trip latency at runtime (the netem knob)."""
        self.channel.set_rtt_ms(rtt_ms)

    # -- fault injection (the netem impairment knobs) ----------------------

    def set_loss(self, probability: float) -> None:
        """Random per-message loss in both directions."""
        self.channel.set_loss(probability)

    def set_jitter_ms(self, jitter_ms: float) -> None:
        """Bounded random extra delay in both directions (FIFO kept)."""
        self.channel.set_jitter_ms(jitter_ms)

    def fail_at(self, tti: int) -> None:
        """Script a two-way link failure at *tti*."""
        self.channel.fail_at(tti)

    def heal_at(self, tti: int) -> None:
        """Script the link healing at *tti*."""
        self.channel.heal_at(tti)

    def partition(self, start_tti: int, end_tti: int) -> None:
        """Script a full partition over ``[start_tti, end_tti)``."""
        self.channel.partition(start_tti, end_tti)

    def dropped_messages(self) -> int:
        """Messages lost to faults, both directions."""
        return self.channel.dropped_messages()

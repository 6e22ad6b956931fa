"""Tests for the real TCP transport (repro.net.tcp)."""

import socket
import threading
import time

import pytest

from repro.core.protocol.messages import (
    EchoReply,
    EchoRequest,
    Header,
    PolicyReconfiguration,
    StatsReply,
    UeStatsReport,
)
from repro.net import tcp
from repro.net.link import EmulatedLink
from repro.net.tcp import (
    MAX_FRAME_BYTES,
    OUT_BUFFER_BYTES,
    FrameDecoder,
    SocketPeer,
    TcpConnectionFabric,
    TcpControlConnection,
    TcpEndpoint,
    TcpTransportServer,
    TransportClosed,
    connect_endpoint,
    decode_envelope,
    encode_envelope,
    encode_varint,
    pump_until,
    wait_ready,
)


class TestFraming:
    def test_envelope_roundtrip(self):
        deliver_tti, frame = decode_envelope(
            encode_envelope(1234, b"\x01payload")[1:])
        assert deliver_tti == 1234
        assert frame == b"\x01payload"

    def test_varint_matches_known_encoding(self):
        assert encode_varint(0) == b"\x00"
        assert encode_varint(127) == b"\x7f"
        assert encode_varint(128) == b"\x80\x01"

    def test_negative_varint_rejected(self):
        with pytest.raises(ValueError):
            encode_varint(-1)

    def test_decoder_whole_stream(self):
        stream = encode_envelope(7, b"aaa") + encode_envelope(8, b"bb")
        bodies = FrameDecoder().feed(stream)
        assert [decode_envelope(b) for b in bodies] == [
            (7, b"aaa"), (8, b"bb")]

    def test_decoder_byte_by_byte(self):
        """Any kernel chunking must parse, even one byte at a time."""
        stream = encode_envelope(300, b"x" * 200) + encode_envelope(301, b"y")
        decoder = FrameDecoder()
        bodies = []
        for i in range(len(stream)):
            bodies.extend(decoder.feed(stream[i:i + 1]))
        assert [decode_envelope(b) for b in bodies] == [
            (300, b"x" * 200), (301, b"y")]

    def test_decoder_split_length_varint(self):
        """A length prefix split across reads must reassemble."""
        envelope = encode_envelope(5, b"z" * 500)  # 2-byte length varint
        decoder = FrameDecoder()
        assert decoder.feed(envelope[:1]) == []
        bodies = decoder.feed(envelope[1:])
        assert decode_envelope(bodies[0]) == (5, b"z" * 500)

    def test_decoder_rejects_oversized_frame(self):
        decoder = FrameDecoder(max_frame_bytes=16)
        with pytest.raises(ValueError, match="frame limit"):
            decoder.feed(encode_envelope(0, b"q" * 64))

    def test_truncated_deliver_tti_rejected(self):
        with pytest.raises(ValueError, match="truncated"):
            decode_envelope(b"\x80")  # continuation bit, no next byte


def wait_parsed(endpoint, target):
    """Pump *endpoint*'s socket until it has parsed *target* frames."""
    pump_until(lambda: endpoint.frames_parsed >= target, (endpoint.sock,))


@pytest.fixture
def fabric():
    fab = TcpConnectionFabric()
    yield fab
    fab.close()


class TestTcpControlConnection:
    """The ControlConnection contract, over a real kernel socket."""

    def test_roundtrip_agent_to_master(self, fabric):
        conn = TcpControlConnection(fabric, 1)
        msg = StatsReply(header=Header(agent_id=1, xid=9, tti=42),
                         ue_reports=[UeStatsReport(rnti=70, wb_cqi=12)])
        size = conn.agent_side.send(msg, now=0)
        assert size > 0
        conn.flush_uplink(0)
        received = conn.master_side.receive(now=0)
        assert received == [msg]

    def test_roundtrip_master_to_agent(self, fabric):
        conn = TcpControlConnection(fabric, 1)
        conn.master_side.send(EchoRequest(header=Header(xid=1)), now=0)
        conn.flush_downlink(0)
        got = conn.agent_side.receive(now=0)
        assert isinstance(got[0], EchoRequest)

    def test_latency_applies_both_ways(self, fabric):
        conn = TcpControlConnection(fabric, 1, rtt_ms=10)
        conn.agent_side.send(EchoReply(), now=0)
        for tti in range(5):
            conn.flush_uplink(tti)
        assert conn.master_side.receive(now=4) == []
        conn.flush_uplink(5)
        assert len(conn.master_side.receive(now=5)) == 1

    def test_fault_injection_drops_frames(self, fabric):
        conn = TcpControlConnection(fabric, 1)
        conn.partition(0, 10)
        conn.agent_side.send(EchoReply(), now=1)
        conn.flush_uplink(1)
        assert conn.master_side.receive(now=1) == []
        assert conn.dropped_messages() == 1

    def test_partition_drops_in_flight(self, fabric):
        conn = TcpControlConnection(fabric, 1, rtt_ms=10)
        conn.agent_side.send(EchoReply(), now=0)  # due at TTI 5
        conn.partition(2, 8)
        for tti in range(10):
            conn.flush_uplink(tti)
        assert conn.master_side.receive(now=9) == []
        assert conn.channel.uplink.dropped_messages == 1

    def test_counters_match_emulated_contract(self, fabric):
        conn = TcpControlConnection(fabric, 1)
        conn.agent_side.send(EchoReply(), now=0)
        conn.flush_uplink(0)
        conn.master_side.receive(now=0)
        assert conn.agent_side.sent_messages == 1
        assert conn.master_side.received_messages == 1
        assert conn.channel.uplink.total_messages == 1
        assert conn.channel.uplink.delivered_messages == 1

    def test_set_rtt_runtime(self, fabric):
        conn = TcpControlConnection(fabric, 1)
        conn.set_rtt_ms(40)
        assert conn.rtt_ttis == 40

    def test_many_frames_preserve_order(self, fabric):
        conn = TcpControlConnection(fabric, 1)
        for i in range(200):
            conn.agent_side.send(
                StatsReply(header=Header(agent_id=1, xid=i, tti=0)),
                now=0)
        conn.flush_uplink(0)
        received = conn.master_side.receive(now=0)
        assert [m.header.xid for m in received] == list(range(200))

    def test_duplicate_agent_id_rejected(self, fabric):
        TcpControlConnection(fabric, 1)
        with pytest.raises(ValueError, match="already"):
            TcpControlConnection(fabric, 1)

    def test_two_connections_are_isolated(self, fabric):
        first = TcpControlConnection(fabric, 1)
        second = TcpControlConnection(fabric, 2)
        first.agent_side.send(EchoReply(header=Header(agent_id=1)), now=0)
        first.flush_uplink(0)
        second.flush_uplink(0)
        assert second.master_side.receive(now=0) == []
        assert len(first.master_side.receive(now=0)) == 1


    def test_two_mib_frame_each_way_in_one_flush(self, fabric):
        """Larger than the loopback socket buffers: a blocking
        ``sendall`` from the thread that also has to read would never
        return.  The flush pumps both ends until the counts match."""
        conn = TcpControlConnection(fabric, 1)
        big = PolicyReconfiguration(header=Header(xid=1),
                                    text="p" * (2 << 20))
        conn.master_side.send(big, now=0)
        conn.flush_downlink(0)
        assert conn.agent_side.receive(now=0) == [big]
        conn.agent_side.send(big, now=0)
        conn.flush_uplink(0)
        assert conn.master_side.receive(now=0) == [big]
        assert conn.master_side.frames_handled == 1 \
            == conn.agent_side.frames_dispatched

    def test_dead_peer_fails_a_blocked_flush(self, fabric, monkeypatch):
        """A receiver that never reads again turns the flush into
        TransportClosed after the one named bound, not a hang."""
        monkeypatch.setattr(tcp, "DEAD_PEER_S", 0.2)
        conn = TcpControlConnection(fabric, 1)
        listener = socket.create_server(("127.0.0.1", 0))
        idle = socket.create_connection(listener.getsockname())
        # The master side now pumps a socket nothing will ever reach.
        conn.master_side.attach_socket(
            SocketPeer(idle, label="deaf", on_body=lambda body: None))
        conn.agent_side.send(EchoReply(), now=0)
        began = time.monotonic()
        with pytest.raises(TransportClosed, match="no progress"):
            conn.flush_uplink(0)
        assert 0.2 <= time.monotonic() - began < 5.0
        idle.close()
        listener.close()


def pump_server(server, done):
    """Pump *server* until ``done()``; fail rather than hang."""
    for _ in range(200):
        server.pump()
        if done():
            return
        wait_ready((), server.waitables(), timeout=0.05)
    raise AssertionError("server never got there")


class TestServerHandshake:
    """The accept path reads outside input: it is checked, and a
    connection that breaks the protocol is closed."""

    @pytest.fixture
    def server(self):
        self.bound = []
        srv = TcpTransportServer(
            endpoint_factory=lambda agent_id: TcpEndpoint(
                EmulatedLink(), EmulatedLink(), rx_direction="ul"),
            on_agent=lambda agent_id, ep: self.bound.append(
                (agent_id, ep)))
        srv.start()
        yield srv
        srv.stop()

    def dial(self, server):
        return socket.create_connection((server.host, server.port))

    def assert_closed_by_server(self, server, raw):
        pump_server(server, lambda: not server._handshakes)
        raw.settimeout(5.0)
        assert raw.recv(16) == b""
        assert server.agents_accepted == 0 and not self.bound
        assert server.open_connections() == 0
        raw.close()

    def test_preamble_split_across_reads(self, server):
        raw = self.dial(server)
        preamble = tcp._preamble(300)  # two-byte agent id varint
        first = encode_envelope(4, b"frame")
        raw.sendall(preamble[:2])
        pump_server(server, lambda: server._handshakes)
        server.pump()
        assert not self.bound  # half a preamble binds nothing
        raw.sendall(preamble[2:] + first)
        pump_server(server, lambda: self.bound)
        agent_id, endpoint = self.bound[0]
        assert agent_id == 300 and endpoint.connected
        # The frame that rode in behind the preamble was not lost.
        wait_parsed(endpoint, 1)
        assert endpoint.pending_frames() == 1
        assert server.open_connections() == 1
        raw.close()

    def test_wrong_magic_rejected(self, server):
        raw = self.dial(server)
        body = encode_varint(0xBAD) + encode_varint(1)
        raw.sendall(encode_varint(len(body)) + body)
        self.assert_closed_by_server(server, raw)

    def test_unplanned_agent_id_rejected(self, fabric):
        """A well-formed preamble for an id nobody registered."""
        raw = socket.create_connection((fabric.host, fabric.port))
        raw.sendall(tcp._preamble(99))
        self.bound = []
        self.assert_closed_by_server(fabric.server, raw)

    def test_garbage_preamble_rejected(self, server):
        raw = self.dial(server)
        raw.sendall(b"\xff" * 32)  # a length varint that never ends
        self.assert_closed_by_server(server, raw)

    def test_oversized_envelope_rejected(self, server):
        raw = self.dial(server)
        raw.sendall(encode_varint(MAX_FRAME_BYTES + 1))
        self.assert_closed_by_server(server, raw)

    def test_oversized_frame_closes_a_bound_connection(self, server):
        endpoint = connect_endpoint(
            server.host, server.port, agent_id=1,
            endpoint=TcpEndpoint(EmulatedLink(), EmulatedLink()))
        pump_server(server, lambda: self.bound)
        endpoint.sock.queue(encode_varint(MAX_FRAME_BYTES + 1))
        master_side = self.bound[0][1]
        with pytest.raises(TransportClosed):
            wait_parsed(master_side, 1)
        assert not master_side.connected
        endpoint.close()


class TestStreamingMode:
    """Cluster-mode endpoints: immediate dispatch, stamp-gated receive."""

    def test_streaming_send_needs_no_flush(self, fabric):
        conn = TcpControlConnection(fabric, 1)
        conn.agent_side.streaming = True
        conn.agent_side.send(EchoReply(), now=3)
        wait_parsed(conn.master_side, 1)
        # Stamp gating: not deliverable before the sender's TTI.
        assert conn.master_side.receive(now=2) == []
        assert len(conn.master_side.receive(now=3)) == 1

    def test_pending_frames_visible(self, fabric):
        conn = TcpControlConnection(fabric, 1)
        conn.agent_side.streaming = True
        conn.agent_side.send(EchoReply(), now=7)
        wait_parsed(conn.master_side, 1)
        assert conn.master_side.pending_frames() == 1
        conn.master_side.receive(now=7)
        assert conn.master_side.pending_frames() == 0

    def test_downlink_is_handled_on_arrival(self, fabric):
        """Only the uplink waits for its stamp: a respawned worker is
        back at TTI 0 and must answer a master that is not."""
        conn = TcpControlConnection(fabric, 1)
        conn.master_side.streaming = True
        conn.master_side.send(EchoRequest(header=Header(xid=1)), now=60)
        wait_parsed(conn.agent_side, 1)
        assert len(conn.agent_side.receive(now=0)) == 1
        assert conn.agent_side.frames_handled == 1

    def test_peer_eof_surfaces_on_the_next_send(self, fabric):
        conn = TcpControlConnection(fabric, 1)
        conn.agent_side.streaming = True
        conn.master_side.close()
        assert wait_ready((conn.agent_side.sock,), timeout=5.0)  # the FIN
        with pytest.raises(TransportClosed):
            conn.agent_side.send(EchoReply(), now=0)
        assert not conn.agent_side.connected
        # From here on the connection is a down link: the frame is
        # offered, accounted as dropped, and the caller is told.
        with pytest.raises(TransportClosed):
            conn.agent_side.send(EchoReply(), now=1)
        uplink = conn.channel.uplink
        assert uplink.dropped_messages == 1
        assert uplink.offered_messages == (
            uplink.delivered_messages + uplink.dropped_messages)

    def test_both_sides_queue_past_the_bound_before_either_reads(
            self, fabric):
        """Send/send: each side offers far more than the socket buffers
        and its out-buffer hold before either calls ``receive``.  A
        blocked sender keeps reading, so neither starves the other; the
        out-buffer never holds more than its bound plus one frame."""
        conn = TcpControlConnection(fabric, 1)
        sides = (conn.agent_side, conn.master_side)
        for side in sides:
            side.streaming = True
            for opt in (socket.SO_SNDBUF, socket.SO_RCVBUF):
                side.sock.sock.setsockopt(socket.SOL_SOCKET, opt, 1 << 14)
        n, text = 96, "q" * (1 << 16)  # 6 MiB each way
        high_water = {}

        def flood(side):
            peak = 0
            for xid in range(n):
                side.send(PolicyReconfiguration(
                    header=Header(xid=xid), text=text), now=0)
                peak = max(peak, len(side.sock._out))
            high_water[side] = peak
            # This half is queued, the tail of it still in the
            # out-buffer: whoever stops pumping stops the flow.
            pump_until(lambda: side.frames_parsed == n
                       and not side.sock.wants_write, (side.sock,))

        helper = threading.Thread(target=flood, args=(sides[1],),
                                  daemon=True)
        helper.start()
        flood(sides[0])
        helper.join(30.0)
        assert not helper.is_alive()
        for side in sides:
            assert [m.header.xid for m in side.receive(now=0)] == list(
                range(n))
            assert side.sock.backpressure_waits > 0
            assert high_water[side] <= OUT_BUFFER_BYTES

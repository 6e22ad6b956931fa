"""The server pumped from the cycle hook, driven on the test thread.

Nothing here runs a second thread: a raw socket sends, ``sim.run``
steps the master (whose cycle hook serves the sockets), and the test
reads what came back.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.nb.server import NorthboundServer, RequestParser
from repro.nb.service import NorthboundService

from tests.nb.conftest import RawHttp, build_sim, http_request


@pytest.fixture
def server(sim, service):
    srv = NorthboundServer(service)
    srv.start()
    sim.run(60)  # the agent joins the RIB
    yield srv
    srv.stop()


def connect(server, **kwargs) -> RawHttp:
    return RawHttp(server.host, server.port, **kwargs)


def first_cell(sim):
    agent = sim.master.rib.agent_ids()[0]
    return agent, sorted(sim.master.rib.agent(agent).cells)[0]


class TestCommandsRunInTheCycle:
    def test_command_is_answered_at_the_next_tti(self, sim, server):
        agent, cell = first_cell(sim)
        client = connect(server)
        client.send(http_request(
            "POST", f"/v1/agents/{agent}/config/prb_cap",
            {"cell_id": cell, "cap": 17}))
        assert not client.answered()
        sim.run(1)
        status, body = client.json()
        assert status == 200
        assert isinstance(body["xid"], int) and body["xid"] > 0
        client.close()

    def test_command_xid_reaches_the_agent(self):
        with obs.enabled_scope(trace=False) as ob:
            sim = build_sim()
            service = NorthboundService(sim.master)
            service.attach()
            srv = NorthboundServer(service)
            srv.start()
            try:
                sim.run(60)
                agent, cell = first_cell(sim)
                client = connect(srv)
                client.send(http_request(
                    "POST", f"/v1/agents/{agent}/config/prb_cap",
                    {"cell_id": cell, "cap": 17}))
                sim.run(1)
                _status, body = client.json()
                sim.run(60)  # let the command cross the control channel
                records = ob.correlator.records(direction="dl",
                                                msg_type="PrbCapConfig")
                assert body["xid"] in [r.xid for r in records], (
                    f"no completed dl PrbCapConfig record for xid "
                    f"{body['xid']}; saw {[r.xid for r in records]}")
                client.close()
            finally:
                srv.stop()
                service.detach()

    def test_handler_error_is_500_and_the_pump_stays_hooked(
            self, sim, server):
        client = connect(server)
        # A command to an agent that does not exist raises KeyError in
        # the handler: not an ApiError.
        client.send(http_request("POST", "/v1/agents/999/config/prb_cap",
                                 {"cell_id": 0, "cap": 1}))
        sim.run(1)
        status, body = client.json()
        assert status == 500
        assert body == {"error": "internal error"}
        # The master unhooks a cycle hook that raises; this one did not,
        # so the same connection is still served.
        client.send(http_request("GET", "/v1/info"))
        sim.run(1)
        status, _body = client.json()
        assert status == 200
        client.close()

    def test_text_the_wire_cannot_carry_is_400(self, sim, server, caplog):
        # "\ud800" is valid JSON and a Python str, but has no UTF-8
        # form: the codec's EncodeError is the request's fault, not a
        # 500 with a logged traceback.
        agent, _cell = first_cell(sim)
        client = connect(server)
        client.send(http_request("POST", f"/v1/agents/{agent}/policy",
                                 {"text": "\ud800"}))
        sim.run(1)
        status, body = client.json()
        assert status == 400
        assert "cannot be encoded" in body["error"]
        assert not [r for r in caplog.records if r.levelname == "ERROR"]
        client.send(http_request("POST", f"/v1/agents/{agent}/policy",
                                 {"text": "cell: 1"}))
        sim.run(1)
        assert client.json()[0] == 200
        client.close()

    def test_rib_read_is_consistent(self, sim, server):
        sim.run(40)
        client = connect(server)
        client.send(http_request("GET", "/v1/info"))
        sim.run(1)
        status, info = client.json()
        assert status == 200
        assert info["agents"] == info["live_agents"] \
            == sim.master.rib.agent_ids()
        assert info["tti"] == sim.master.now >= 100
        client.close()

    def test_pipelined_keep_alive_requests_answered_in_order(
            self, sim, server):
        agent, _cell = first_cell(sim)
        client = connect(server)
        client.send(http_request("GET", "/v1/info"),
                    http_request("GET", f"/v1/rib/agents/{agent}"),
                    http_request("GET", "/v1/nope"))
        sim.run(1)
        status, info = client.json()
        assert status == 200 and info["platform"] == "repro-flexran"
        status, detail = client.json()
        assert status == 200 and detail["agent"] == agent
        assert client.json()[0] == 404
        client.close()


class TestOutsideInput:
    @pytest.mark.parametrize("raw, status", [
        (b"GET /v1/info HTTP/1.1\r\nX-Pad: " + b"a" * 17000
         + b"\r\n\r\n", 413),
        (b"POST /v1/agents/1/policy HTTP/1.1\r\n"
         b"Content-Length: 2000000\r\n\r\n", 413),
        (b"BROKEN\r\n\r\n", 400),
        (b"POST /v1/agents/1/policy HTTP/1.1\r\n"
         b"Content-Length: abc\r\n\r\n", 400),
        (b"POST /v1/agents/1/policy HTTP/1.1\r\n"
         b"Content-Length: 5\r\n\r\n[1,2]", 400),
        (b"POST /v1/agents/1/policy HTTP/1.1\r\n"
         b"Content-Length: 100000\r\n\r\n" + b"[" * 100000, 400),
        (b"GET //[v1 HTTP/1.1\r\n\r\n", 400),
    ], ids=["headers_too_large", "body_too_large", "request_line",
            "content_length", "body_not_object", "body_too_deep",
            "target"])
    def test_rejected_with_status(self, sim, server, raw, status):
        client = connect(server)
        client.send(raw)
        sim.run(1)
        assert client.response()[0] == status
        # Outside input never unhooks the pump.
        sub = server.service.subscribe_tti(period_ttis=1)
        sim.run(2)
        assert sub.published == 2
        client.close()

    def test_request_split_across_reads(self):
        raw = http_request("POST", "/v1/agents/1/policy?x=1",
                           {"text": "a"})
        parser = RequestParser()
        parsed = [item for byte in range(len(raw))
                  for item in parser.feed(raw[byte:byte + 1])]
        assert parsed == [("POST", "/v1/agents/1/policy", {"x": "1"},
                           {"host": "test", "content-length": "13"},
                           b'{"text": "a"}')]


class TestSlowConsumers:
    def test_never_reading_client_costs_drops_not_ttis(self, sim, server):
        agent, cell = first_cell(sim)
        stalled = connect(server, rcvbuf=4096)
        stalled.send(http_request(
            "GET", f"/v1/stream/cell/{agent}/{cell}?period=1"))
        live = connect(server)
        live.send(http_request("GET", "/v1/stream/tti?period=1"))
        sim.run(1)
        stalled_id = int(stalled.response()[1]["x-subscription-id"])
        live_id = int(live.response()[1]["x-subscription-id"])
        stalled_row = server.service.table.get(stalled_id)
        live_row = server.service.table.get(live_id)
        received = []
        with obs.enabled_scope(trace=False) as ob:
            start = sim.now
            ran = 0
            # The stalled client's kernel buffers, then its 256 KiB
            # out-buffer, then its queue fill up; after that it drops.
            while not stalled_row.drops and ran < 100_000:
                sim.run(1000)
                ran += 1000
                received += live.items()
            sim.run(1000)
            ran += 1000
            received += live.items()
            assert sim.now == start + ran, "the TTI loop must keep ticking"
            assert stalled_row.drops > 0
            assert ob.registry.counter("nb.fanout.dropped.cell").value \
                == stalled_row.drops
        assert live_row.drops == 0
        ttis = [item["tti"] for item in received]
        assert ttis == list(range(ttis[0], ttis[0] + len(ttis)))
        assert ttis[-1] == sim.now - 1
        stalled.close()
        live.close()

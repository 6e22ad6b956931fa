"""HTTP frontend tests: framing, lifecycle, auth, fault tolerance."""

from __future__ import annotations

import http.client
import json
import time

import pytest

from repro import obs
from repro.nb.auth import TokenAuth
from repro.nb.client import ClientError
from repro.nb.server import NorthboundServer

from tests.nb.conftest import LiveServer


class TestUnary:
    def test_info_reports_platform_state(self, live):
        live.agent_id()
        info = live.client().info()
        assert info["platform"] == "repro-flexran"
        assert info["agents"]
        assert info["tti"] > 0

    def test_rib_reads(self, live):
        agent = live.agent_id()
        body = live.client().get(f"/v1/rib/agents/{agent}")
        assert body["agent"] == agent
        assert body["cells"]
        ues = live.client().get(f"/v1/rib/agents/{agent}/ues")
        assert ues["agent"] == agent

    def test_unknown_agent_is_404(self, live):
        live.agent_id()
        with pytest.raises(ClientError) as err:
            live.client().get("/v1/rib/agents/999")
        assert err.value.status == 404

    def test_unknown_path_404_wrong_method_405(self, live):
        client = live.client()
        with pytest.raises(ClientError) as err:
            client.get("/v1/nope")
        assert err.value.status == 404
        with pytest.raises(ClientError) as err:
            client.post("/v1/info", {})
        assert err.value.status == 405

    def test_malformed_json_body_is_400(self, live):
        conn = http.client.HTTPConnection(live.host, live.port, timeout=5)
        try:
            conn.request("POST", "/v1/agents/1/policy", body=b"{not json",
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            assert response.status == 400
        finally:
            conn.close()


class TestCommands:
    def test_prb_cap_returns_xid_and_applies(self, live):
        agent = live.agent_id()
        detail = live.client().get(f"/v1/rib/agents/{agent}")
        cell_id = detail["cells"][0]
        path = f"/v1/agents/{agent}/config/prb_cap"
        reply = live.client().post(path, {"cell_id": cell_id, "cap": 11})
        assert isinstance(reply["xid"], int) and reply["xid"] > 0
        # Distinct commands get distinct xids.
        again = live.client().post(path, {"cell_id": cell_id, "cap": None})
        assert again["xid"] != reply["xid"]

    def test_policy_push_returns_xid(self, live):
        from repro.core.policy import build_policy

        agent = live.agent_id()
        text = build_policy("mac", "dl_scheduling", behavior="local_fair")
        reply = live.client().send_policy(agent, text)
        assert reply["xid"] > 0

    def test_malformed_policy_is_400(self, live):
        """The agent would drop it: the client hears so, and no xid is
        spent on it."""
        agent = live.agent_id()
        for text in ("mac:\n\tdl_scheduling: x\n", "just a scalar\n",
                     "mac:\n  - behavior: local_rr\n"):
            with pytest.raises(ClientError) as err:
                live.client().post(f"/v1/agents/{agent}/policy",
                                   {"text": text})
            assert err.value.status == 400
            assert "malformed policy" in err.value.message

    def test_missing_field_is_400(self, live):
        agent = live.agent_id()
        with pytest.raises(ClientError) as err:
            live.client().post(f"/v1/agents/{agent}/policy", {})
        assert err.value.status == 400


class TestStreams:
    def test_jsonl_stream_in_tti_order(self, live):
        with live.client().stream("/v1/stream/tti?period=5") as stream:
            items = stream.read(4)
        ttis = [item["tti"] for item in items]
        assert ttis == sorted(ttis)
        assert all(item["stream"] == "tti" for item in items)

    def test_sse_stream_framing(self, live):
        with live.client().stream(
                "/v1/stream/tti?period=5&mode=sse") as stream:
            items = stream.read(2)
        assert len(items) == 2
        assert items[0]["stream"] == "tti"

    def test_bad_stream_mode_is_400(self, live):
        with pytest.raises(ClientError) as err:
            live.client().stream("/v1/stream/tti?mode=xml")
        assert err.value.status == 400

    def test_delete_subscription_ends_stream(self, live):
        client = live.client()
        stream = client.stream("/v1/stream/tti?period=5")
        sub_id = int(stream.subscription_id)
        rows = client.subscriptions()["subscriptions"]
        assert any(r["id"] == sub_id for r in rows)
        client.delete(f"/v1/subscriptions/{sub_id}")
        # The server notices the closed row and ends the stream.
        leftovers = stream.read(1000)
        stream.close()
        rows = client.subscriptions()["subscriptions"]
        assert not any(r["id"] == sub_id for r in rows)
        assert len(leftovers) < 1000

    def test_client_disconnect_mid_stream_server_survives(self, live):
        client = live.client()
        stream = client.stream("/v1/stream/tti?period=2")
        assert stream.read(2)
        stream.close()  # abrupt: server learns from EOF/write failure
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if not client.subscriptions()["subscriptions"]:
                break
            time.sleep(0.05)
        assert client.subscriptions()["subscriptions"] == []
        # And the server keeps serving both unary and stream requests.
        assert client.info()["tti"] > 0
        with client.stream("/v1/stream/tti?period=5") as stream2:
            assert stream2.read(1)

    def test_fanout_latency_histogram_recorded(self, live):
        with obs.enabled_scope(trace=False) as ob:
            with live.client().stream("/v1/stream/tti?period=2") as stream:
                stream.read(5)
            histogram = ob.registry.histogram("nb.fanout.latency_ms.tti")
            assert histogram.count >= 5
            assert histogram.percentile(99) >= 0.0


class TestAuth:
    def test_token_required_when_configured(self, sim, service):
        server = NorthboundServer(service, auth=TokenAuth("sesame"))
        host, port = server.start()
        live = LiveServer(sim, service, server, host, port)
        try:
            with pytest.raises(ClientError) as err:
                live.client().info()
            assert err.value.status == 401
            info = live.client(token="sesame").info()
            assert info["platform"] == "repro-flexran"
        finally:
            live.shutdown()


class TestLifecycle:
    def test_stop_is_clean_and_restartable_service(self, sim, service):
        server = NorthboundServer(service)
        host, port = server.start()
        live = LiveServer(sim, service, server, host, port)
        stream = live.client().stream("/v1/stream/tti?period=5")
        assert stream.read(1)
        live.shutdown()  # with a stream still open
        # The socket is gone afterwards.
        with pytest.raises(OSError):
            conn = http.client.HTTPConnection(host, port, timeout=1)
            conn.request("GET", "/v1/info")
            conn.getresponse()

    def test_keep_alive_serves_multiple_requests(self, live):
        live.agent_id()
        conn = http.client.HTTPConnection(live.host, live.port, timeout=5)
        try:
            for _ in range(3):
                conn.request("GET", "/v1/info")
                response = conn.getresponse()
                assert response.status == 200
                json.loads(response.read())
        finally:
            conn.close()

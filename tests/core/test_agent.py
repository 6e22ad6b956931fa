"""Tests for the FlexRAN agent: dispatch, reports, delegation."""

import pytest

from repro.core.agent import FlexRanAgent
from repro.core.agent.mac_module import RemoteSchedulingStub
from repro.core.delegation import pack_vsf
from repro.core.policy import build_policy
from repro.core.protocol.messages import (
    ConfigReply,
    ConfigRequest,
    DciSpec,
    DlMacCommand,
    EchoReply,
    EchoRequest,
    EventNotification,
    EventType,
    Header,
    Hello,
    PolicyReconfiguration,
    ReportType,
    SyncConfig,
    AbsPatternConfig,
    StatsReply,
    StatsRequest,
    SubframeTrigger,
    VsfUpdate,
)
from repro.lte.enodeb import EnodeB
from repro.lte.mac.dci import SchedulingContext
from repro.lte.phy.channel import FixedCqi
from repro.lte.ue import Ue
from repro.net.transport import ControlConnection


@pytest.fixture
def wired():
    """An agent wired to a zero-latency connection; returns both ends."""
    enb = EnodeB(1)
    conn = ControlConnection()
    agent = FlexRanAgent(1, enb, endpoint=conn.agent_side)
    return agent, enb, conn


def master_recv(conn, now=0):
    return conn.master_side.receive(now=now)


def master_send(conn, msg, now=0):
    conn.master_side.send(msg, now=now)


class TestHandshake:
    def test_hello_sent_once(self, wired):
        agent, _, conn = wired
        agent.tick_tx(0)
        agent.tick_tx(1)
        hellos = [m for m in master_recv(conn, 1) if isinstance(m, Hello)]
        assert len(hellos) == 1
        assert hellos[0].capabilities == ["mac", "rrc", "pdcp"]
        assert hellos[0].header.agent_id == 1

    def test_config_request_reply(self, wired):
        agent, enb, conn = wired
        enb.attach_ue(Ue("001", FixedCqi(10), labels={"op": "x"}), tti=0)
        master_send(conn, ConfigRequest(header=Header(xid=42), scope="enb"))
        agent.tick_rx(0)
        agent_replies = master_recv(conn)
        reply = next(m for m in agent_replies if isinstance(m, ConfigReply))
        assert reply.header.xid == 42
        assert reply.enb_id == 1
        assert reply.cells[0].n_prb_dl == 50
        assert reply.ues[0].labels == {"op": "x"}

    def test_echo(self, wired):
        agent, _, conn = wired
        master_send(conn, EchoRequest(header=Header(xid=7)))
        agent.tick_rx(0)
        replies = master_recv(conn)
        assert any(isinstance(m, EchoReply) and m.header.xid == 7
                   for m in replies)


class TestSync:
    def test_sync_disabled_by_default(self, wired):
        agent, _, conn = wired
        agent.tick_tx(0)
        assert not any(isinstance(m, SubframeTrigger)
                       for m in master_recv(conn))

    def test_sync_enabled_via_sync_config(self, wired):
        agent, _, conn = wired
        master_send(conn, SyncConfig(enabled=True))
        agent.tick_rx(0)
        agent.tick_tx(1)
        triggers = [m for m in master_recv(conn, 1)
                    if isinstance(m, SubframeTrigger)]
        assert len(triggers) == 1
        assert triggers[0].header.tti == 1
        assert triggers[0].sf == 1


class TestStatsReporting:
    def test_periodic_report(self, wired):
        agent, enb, conn = wired
        enb.attach_ue(Ue("001", FixedCqi(9)), tti=0)
        master_send(conn, StatsRequest(
            header=Header(xid=5), report_type=int(ReportType.PERIODIC),
            period_ttis=2))
        agent.tick_rx(0)
        for t in range(4):
            agent.tick_tx(t)
        replies = [m for m in master_recv(conn, 4)
                   if isinstance(m, StatsReply)]
        assert len(replies) == 2  # t=0 and t=2
        assert replies[0].ue_reports[0].wb_cqi == 9

    def test_one_off_report(self, wired):
        agent, enb, conn = wired
        enb.attach_ue(Ue("001", FixedCqi(9)), tti=0)
        master_send(conn, StatsRequest(
            header=Header(xid=5), report_type=int(ReportType.ONE_OFF)))
        agent.tick_rx(0)
        for t in range(5):
            agent.tick_tx(t)
        replies = [m for m in master_recv(conn, 5)
                   if isinstance(m, StatsReply)]
        assert len(replies) == 1

    def test_triggered_report_fires_on_change(self, wired):
        agent, enb, conn = wired
        rnti = enb.attach_ue(Ue("001", FixedCqi(9)), tti=0)
        master_send(conn, StatsRequest(
            header=Header(xid=5), report_type=int(ReportType.TRIGGERED)))
        agent.tick_rx(0)
        agent.tick_tx(0)   # first: always a change from nothing
        agent.tick_tx(1)   # no change
        enb.enqueue_dl(rnti, 500, 2)  # queue change
        agent.tick_tx(2)
        replies = [m for m in master_recv(conn, 2)
                   if isinstance(m, StatsReply)]
        assert len(replies) == 2

    def test_cancel_subscription(self, wired):
        agent, enb, conn = wired
        enb.attach_ue(Ue("001", FixedCqi(9)), tti=0)
        master_send(conn, StatsRequest(
            header=Header(xid=5), report_type=int(ReportType.PERIODIC),
            period_ttis=1))
        agent.tick_rx(0)
        agent.tick_tx(0)
        master_send(conn, StatsRequest(
            header=Header(xid=5), report_type=int(ReportType.CANCEL)), now=1)
        agent.tick_rx(1)
        agent.tick_tx(1)
        replies = [m for m in master_recv(conn, 1)
                   if isinstance(m, StatsReply)]
        assert len(replies) == 1  # only the pre-cancel report


class TestCommands:
    def test_dl_command_stored_for_target(self, wired):
        agent, enb, conn = wired
        rnti = enb.attach_ue(Ue("001", FixedCqi(12)), tti=0)
        agent.mac.activate("dl_scheduling", "remote_stub")
        master_send(conn, DlMacCommand(
            cell_id=enb.cell().cell_id, target_tti=5,
            assignments=[DciSpec(rnti=rnti, n_prb=50, cqi_used=12)]))
        agent.tick_rx(0)
        assert len(agent.mac.remote_stub._store) == 1

    def test_expired_command_counted(self, wired):
        agent, enb, conn = wired
        rnti = enb.attach_ue(Ue("001", FixedCqi(12)), tti=0)
        master_send(conn, DlMacCommand(
            cell_id=enb.cell().cell_id, target_tti=3,
            assignments=[DciSpec(rnti=rnti, n_prb=50, cqi_used=12)]), now=10)
        agent.tick_rx(10)
        assert agent.mac.remote_stub.stats.expired_on_arrival == 1

    def test_abs_pattern_config(self, wired):
        agent, enb, conn = wired
        master_send(conn, AbsPatternConfig(cell_id=enb.cell().cell_id,
                                           subframes=[1, 3, 5]))
        agent.tick_rx(0)
        assert enb.cell().muted_subframes == {1, 3, 5}


class TestDelegation:
    def test_vsf_update_caches_code(self, wired):
        agent, _, conn = wired
        master_send(conn, VsfUpdate(
            module="mac", operation="dl_scheduling", name="pushed_pf",
            blob=pack_vsf("scheduler:proportional_fair",
                          {"ewma_alpha": 0.2})))
        agent.tick_rx(0)
        assert "pushed_pf" in agent.mac.cached_names("dl_scheduling")
        # Pushed but not active until a policy swaps it in.
        assert agent.mac.active_name("dl_scheduling") == "local_rr"

    def test_policy_swaps_pushed_vsf(self, wired):
        agent, _, conn = wired
        master_send(conn, VsfUpdate(
            module="mac", operation="dl_scheduling", name="pushed_pf",
            blob=pack_vsf("scheduler:proportional_fair")))
        master_send(conn, PolicyReconfiguration(text=build_policy(
            "mac", "dl_scheduling", behavior="pushed_pf")))
        agent.tick_rx(0)
        assert agent.mac.active_name("dl_scheduling") == "pushed_pf"

    def test_policy_reconfigures_parameters(self, wired):
        agent, _, conn = wired
        master_send(conn, PolicyReconfiguration(text=build_policy(
            "mac", "dl_scheduling", behavior="local_pf",
            parameters={"ewma_alpha": 0.42})))
        agent.tick_rx(0)
        vsf = agent.mac.active_vsf("dl_scheduling")
        assert vsf.parameters["ewma_alpha"] == 0.42

    def test_unknown_module_counted_and_dropped(self, wired):
        # The hardened dispatch boundary: a command naming a module
        # this agent does not run is counted and dropped, not raised.
        agent, _, conn = wired
        master_send(conn, VsfUpdate(module="phy", operation="x", name="y",
                                    blob=pack_vsf("scheduler:null")))
        handled_before = agent.messages_handled
        agent.tick_rx(0)
        assert agent.dispatch_errors == 1
        assert agent.messages_handled == handled_before


class TestEvents:
    def test_attach_events_forwarded(self, wired):
        agent, enb, conn = wired
        enb.attach_ue(Ue("001", FixedCqi(15)), tti=0)
        agent.tick_tx(0)
        events = [m for m in master_recv(conn)
                  if isinstance(m, EventNotification)]
        assert any(e.event_type == int(EventType.RANDOM_ACCESS)
                   for e in events)

    def test_ue_attached_event_after_handshake(self, wired):
        agent, enb, conn = wired
        rnti = enb.attach_ue(Ue("001", FixedCqi(15)), tti=0)
        for t in range(60):
            if t >= 20:
                enb.enqueue_dl(rnti, 100, t)
            enb.tick(t)
            agent.tick_tx(t)
        events = [m for m in master_recv(conn, 60)
                  if isinstance(m, EventNotification)]
        assert any(e.event_type == int(EventType.UE_ATTACH) for e in events)


class TestStandalone:
    def test_agent_without_endpoint_runs_locally(self):
        enb = EnodeB(1)
        agent = FlexRanAgent(1, enb)
        ue = Ue("001", FixedCqi(15))
        rnti = enb.attach_ue(ue, tti=0)
        for t in range(500):
            if t >= 20:
                enb.enqueue_dl(rnti, 3000, t)
            agent.tick_tx(t)
            agent.tick_rx(t)
            enb.tick(t)
        assert ue.rx_bytes_total > 0
        assert agent.mac.active_name("dl_scheduling") == "local_rr"


class TestRemoteStub:
    def test_missed_tti_counts(self):
        stub = RemoteSchedulingStub()
        ctx = SchedulingContext(tti=5, n_prb=50, ues=[], cell_id=10)
        assert stub(ctx) == []
        assert stub.stats.missed_ttis == 1

    def test_gc_drops_stale_entries(self):
        stub = RemoteSchedulingStub()
        stub.store(10, 5, [], now=0)
        ctx = SchedulingContext(tti=100, n_prb=50, ues=[], cell_id=10)
        stub(ctx)
        assert len(stub._store) == 0

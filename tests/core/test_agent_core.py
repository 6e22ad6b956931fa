"""The agent-core contract, checked once for every technology binding.

Section 7.2 of the paper claims the agent of Fig. 2 drives another
radio technology without modification.  This suite pins that claim on
the shared loop itself: every test runs against the LTE binding
(:class:`FlexRanAgent` over an eNodeB) and the Wi-Fi binding
(:class:`WifiAgent` over an access point), through nothing but the
agent, its control connection and the binding's data plane.
"""

import inspect

import pytest

from repro.core.agent import FlexRanAgent, connection, reports
from repro.core.agent.connection import ConnectionState
from repro.core.agent.reports import FULL_REFRESH_REPLIES
from repro.core.controller import MasterController
from repro.core.controller.rib import AgentLiveness
from repro.core.delegation import pack_vsf
from repro.core.policy import build_policy
from repro.core.protocol.messages import (
    ConfigReply,
    ConfigRequest,
    EchoReply,
    EchoRequest,
    Header,
    Hello,
    PolicyReconfiguration,
    ReportType,
    StatsReply,
    StatsRequest,
    VsfUpdate,
)
from repro.lte.enodeb import EnodeB
from repro.lte.phy.channel import FixedCqi
from repro.lte.ue import Ue
from repro.net.transport import ControlConnection
from repro.wifi.agent import MaxRateHook, WifiAgent
from repro.wifi.ap import Station, WifiAp


class LteBinding:
    """An eNodeB with two UEs under a :class:`FlexRanAgent`."""

    module, operation = "mac", "dl_scheduling"
    builtin_vsfs = ("local_rr", "local_pf")
    pushed_factory = "scheduler:proportional_fair"

    def __init__(self, conn: ControlConnection) -> None:
        self.enb = EnodeB(1)
        self.agent = FlexRanAgent(1, self.enb, endpoint=conn.agent_side)
        self.rntis = [self.enb.attach_ue(Ue(f"00{i}", FixedCqi(9 + i)), tti=0)
                      for i in range(2)]

    def touch(self, index: int, tti: int) -> int:
        """Change one UE's reportable state; returns its wire id."""
        self.enb.enqueue_dl(self.rntis[index], 100, tti)
        return self.rntis[index]

    def take_remote_control(self) -> None:
        self.agent.mac.activate("dl_scheduling", "remote_stub")


class WifiBinding:
    """An access point with two stations under a :class:`WifiAgent`."""

    module, operation = "wifi_mac", "station_scheduling"
    builtin_vsfs = ("fair_airtime", "max_rate")
    pushed_factory = "wifi:max_rate"

    def __init__(self, conn: ControlConnection) -> None:
        self.ap = WifiAp(1)
        self.agent = WifiAgent(1, self.ap, endpoint=conn.agent_side)
        self.agent.vsf_registry.register("wifi:max_rate", MaxRateHook)
        self.aids = [self.ap.associate(Station(mac=f"02::{i}", snr_db=snr))
                     for i, snr in enumerate((60.0, 20.0))]

    def touch(self, index: int, tti: int) -> int:
        self.ap.enqueue(self.aids[index], 100, tti)
        return self.aids[index]

    def take_remote_control(self) -> None:
        """No Wi-Fi VSF depends on the master (yet)."""


BINDINGS = [LteBinding, WifiBinding]


@pytest.fixture(params=BINDINGS, ids=["lte", "wifi"])
def wired(request):
    """``(binding, agent, connection)`` on a zero-latency channel."""
    conn = ControlConnection()
    binding = request.param(conn)
    return binding, binding.agent, conn


def sent(conn, kind, now):
    """Messages of *kind* the agent has put on the wire by *now*."""
    return [m for m in conn.master_side.receive(now=now)
            if isinstance(m, kind)]


def speak(conn, message, now):
    conn.master_side.send(message, now=now)


def subscribe(conn, agent, report_type, now=0, period=1, xid=9):
    speak(conn, StatsRequest(header=Header(xid=xid),
                             report_type=int(report_type),
                             period_ttis=period), now)
    agent.tick_rx(now)


def active_vsfs(agent):
    return {(m.name, op): m.active_name(op)
            for m in agent.modules.values() for op in m.OPERATIONS}


class TestOneLoop:
    """Structure: there is one loop, and the bindings share it."""

    @pytest.mark.parametrize(
        "name", ["tick_tx", "tick_rx", "_tick_tx", "_tick_rx",
                 "dispatch", "_send", "__init__"])
    def test_loop_functions_are_the_same_objects(self, name):
        assert getattr(WifiAgent, name) is getattr(FlexRanAgent, name)

    def test_wifi_agent_is_only_a_binding(self):
        own = {k for k in vars(WifiAgent) if not k.startswith("__")}
        assert own == {"_attach"}

    def test_capabilities_are_the_module_names(self, wired):
        _, agent, conn = wired
        agent.tick_tx(0)
        (hello,) = sent(conn, Hello, 0)
        assert hello.capabilities == list(agent.modules)
        assert hello.n_cells == len(agent.api.cell_ids) >= 1

    def test_handler_table_is_core_plus_module_declarations(self, wired):
        _, agent, _ = wired
        declared = set()
        for module in agent.modules.values():
            declared |= set(module.message_handlers())
        core = set(agent._handlers) - declared
        assert {k.__name__ for k in core} == {
            "EchoRequest", "EchoReply", "ConfigRequest", "StatsRequest",
            "SyncConfig", "VsfUpdate", "PolicyReconfiguration"}

    def test_reports_manager_never_calls_get_ue_stats(self, wired):
        binding, agent, conn = wired

        def forbidden(*args, **kwargs):
            raise AssertionError("ReportsManager called get_ue_stats")
        agent.api.get_ue_stats = forbidden
        for xid, kind in enumerate((ReportType.ONE_OFF, ReportType.PERIODIC,
                                    ReportType.TRIGGERED), start=1):
            subscribe(conn, agent, kind, xid=xid)
        for t in range(5):
            binding.touch(t % 2, t)
            agent.tick_tx(t)
        assert agent.reports.reports_sent >= 11
        assert agent.dispatch_errors == 0
        assert "get_ue_stats(" not in inspect.getsource(reports)


class TestHandshakeAndLiveness:
    def test_hello_reoffered_until_the_master_speaks(self, wired):
        _, agent, conn = wired
        period = connection.KEEPALIVE_PERIOD_TTIS
        for t in range(2 * period + 1):
            agent.tick_tx(t)
        hellos = sent(conn, Hello, 2 * period)
        assert [h.header.tti for h in hellos] == [0, period, 2 * period]
        # Once the master has spoken the offer is not repeated.
        speak(conn, EchoRequest(header=Header(xid=1)), 2 * period)
        agent.tick_rx(2 * period)
        for t in range(2 * period + 1, 3 * period + 2):
            agent.tick_tx(t)
        assert sent(conn, Hello, 3 * period + 1) == []

    def test_keepalive_probes_a_quiet_master(self, wired):
        _, agent, conn = wired
        speak(conn, EchoRequest(header=Header(xid=1)), 0)
        agent.tick_rx(0)
        period = connection.KEEPALIVE_PERIOD_TTIS
        for t in range(period + 1):
            agent.tick_tx(t)
        probes = sent(conn, EchoRequest, period)
        assert len(probes) == 1 and probes[0].header.agent_id == 1
        assert agent.connection.stats.keepalives_sent == 1

    def test_echo_answered(self, wired):
        _, agent, conn = wired
        speak(conn, EchoRequest(header=Header(xid=7)), 0)
        agent.tick_rx(0)
        (reply,) = sent(conn, EchoReply, 0)
        assert reply.header.xid == 7
        assert agent.messages_handled == 1

    def test_disconnect_falls_back_then_reconnect_restores_and_goes_full(
            self, wired):
        binding, agent, conn = wired
        binding.take_remote_control()
        before = active_vsfs(agent)
        subscribe(conn, agent, ReportType.PERIODIC, period=10)
        timeout = connection.DISCONNECT_TIMEOUT_TTIS
        for t in range(timeout + 50):
            binding.touch(0, t)
            agent.tick_tx(t)
        assert agent.connection.state is ConnectionState.DISCONNECTED
        # Local control: nothing that needs the master stays active...
        for module in agent.modules.values():
            for op in module.OPERATIONS:
                assert module.active_name(op) not in module.REMOTE_VSF_NAMES
        # ...and the report stream stopped at the disconnect.
        replies = sent(conn, StatsReply, timeout + 50)
        assert replies and all(r.header.tti < timeout for r in replies)
        assert replies[-1].full == 0
        # The master comes back: remote control is restored, the agent
        # re-announces itself and the next report is a full snapshot.
        now = timeout + 50
        speak(conn, EchoRequest(header=Header(xid=2)), now)
        agent.tick_rx(now)
        assert agent.connection.state is ConnectionState.CONNECTED
        assert active_vsfs(agent) == before
        for t in range(now, now + 10):
            agent.tick_tx(t)
        after = conn.master_side.receive(now=now + 10)
        assert len([m for m in after if isinstance(m, Hello)]) == 1
        assert [m for m in after if isinstance(m, StatsReply)][0].full == 1

    def test_survives_the_masters_probes_across_a_partition(self, wired):
        """The drift bug: the master's own liveness probe (and a direct
        ``northbound.ping``) reached a Wi-Fi agent that had no
        ``EchoRequest`` handler and unwound its RX tick."""
        binding = wired[0]
        conn = ControlConnection(rtt_ms=4)
        conn.channel.partition(100, 505)
        agent = type(binding)(conn).agent
        master = MasterController()
        master.connect_agent(1, conn.master_side)
        for t in range(1200):
            agent.tick_tx(t)
            master.tick(t)
            agent.tick_rx(t)
            if t == 900:
                master.northbound.ping(1)
        assert agent.dispatch_unknown == agent.dispatch_errors == 0
        assert agent.connection.stats.disconnects == 1
        assert agent.connection.stats.reconnects == 1
        assert master.rib.agent(1).liveness is AgentLiveness.ACTIVE

    def test_one_config_request_in_a_quiet_run(self, wired):
        """The master's config self-heal re-asks an agent whose
        ``ConfigReply`` names no cell -- every echo period, forever."""
        _, agent, conn = wired
        master = MasterController()
        master.connect_agent(1, conn.master_side)
        asked = []
        send = conn.master_side.send

        def spy(message, now):
            if isinstance(message, ConfigRequest):
                asked.append(now)
            send(message, now=now)
        conn.master_side.send = spy
        for t in range(3000):
            agent.tick_tx(t)
            master.tick(t)
            agent.tick_rx(t)
        assert len(asked) == 1
        node = master.rib.agent(1)
        assert sorted(node.cells) == agent.api.cell_ids
        assert all(c.config is not None for c in node.cells.values())


class TestDispatchBoundary:
    def test_unknown_message_type_is_counted(self, wired):
        _, agent, conn = wired
        speak(conn, ConfigReply(header=Header(xid=3)), 0)
        speak(conn, EchoRequest(header=Header(xid=4)), 0)
        agent.tick_rx(0)
        assert agent.dispatch_unknown == 1
        assert agent.dispatch_errors == 0
        # The channel stayed up: the message behind it was served.
        assert [m.header.xid for m in sent(conn, EchoReply, 0)] == [4]

    def test_failing_handler_is_counted(self, wired):
        _, agent, conn = wired
        speak(conn, PolicyReconfiguration(text=build_policy(
            "no_such_module", "x", behavior="y")), 0)
        speak(conn, StatsRequest(header=Header(xid=5),
                                 report_type=int(ReportType.PERIODIC),
                                 period_ttis=0), 0)
        speak(conn, EchoRequest(header=Header(xid=6)), 0)
        agent.tick_rx(0)
        assert agent.dispatch_errors == 2
        assert agent.dispatch_unknown == 0
        assert agent.messages_handled == 1
        assert [m.header.xid for m in sent(conn, EchoReply, 0)] == [6]


class TestReportsContract:
    def test_periodic_goes_full_then_delta_then_staggered_refresh(
            self, wired):
        binding, agent, conn = wired
        subscribe(conn, agent, ReportType.PERIODIC)
        touched = None
        for t in range(FULL_REFRESH_REPLIES + 4):
            touched = binding.touch(t % 2, t)
            agent.tick_tx(t)
        replies = sent(conn, StatsReply, FULL_REFRESH_REPLIES + 3)
        fulls = [i for i, r in enumerate(replies) if r.full]
        # The first snapshot, then agent 1's slot in the staggered
        # refresh, once per FULL_REFRESH_REPLIES replies.
        assert fulls == [0, 1, FULL_REFRESH_REPLIES + 1]
        assert all(len(replies[i].ue_reports) == 2 for i in fulls)
        # A delta carries exactly the UE that changed.
        assert [u.rnti for u in replies[-1].ue_reports] == [touched]
        assert len(replies[-1].cell_reports) == 1

    def test_unchanged_ues_leave_deltas_empty(self, wired):
        _, agent, conn = wired
        subscribe(conn, agent, ReportType.PERIODIC)
        for t in range(5):
            agent.tick_tx(t)
        replies = sent(conn, StatsReply, 4)
        assert [len(r.ue_reports) for r in replies] == [2, 2, 0, 0, 0]

    def test_triggered_skips_an_unchanged_sequence(self, wired):
        binding, agent, conn = wired
        subscribe(conn, agent, ReportType.TRIGGERED)
        for t in range(5):
            agent.tick_tx(t)
        assert len(sent(conn, StatsReply, 4)) == 1
        seq = agent.api.change_seq
        touched = binding.touch(1, 5)
        for t in range(5, 10):
            agent.tick_tx(t)
        assert agent.api.change_seq > seq
        (reply,) = sent(conn, StatsReply, 9)
        assert reply.full == 1 and reply.header.tti == 5
        assert touched in [u.rnti for u in reply.ue_reports]


class TestDelegation:
    def test_vsf_push_and_policy_swap(self, wired):
        binding, agent, conn = wired
        module = agent.modules[binding.module]
        default, other = binding.builtin_vsfs
        assert module.active_name(binding.operation) == default
        # Policy reconfiguration swaps between cached VSFs...
        speak(conn, PolicyReconfiguration(text=build_policy(
            binding.module, binding.operation, behavior=other)), 0)
        agent.tick_rx(0)
        assert module.active_name(binding.operation) == other
        # ...and a pushed implementation lands in the same cache.
        speak(conn, VsfUpdate(
            module=binding.module, operation=binding.operation,
            name="pushed", blob=pack_vsf(binding.pushed_factory)), 1)
        speak(conn, PolicyReconfiguration(text=build_policy(
            binding.module, binding.operation, behavior="pushed")), 1)
        agent.tick_rx(1)
        assert "pushed" in module.cached_names(binding.operation)
        assert module.active_name(binding.operation) == "pushed"
        assert agent.messages_handled == 3
        assert agent.dispatch_errors == 0

    def test_untrusted_factory_is_a_counted_failure(self, wired):
        binding, agent, conn = wired
        speak(conn, VsfUpdate(
            module=binding.module, operation=binding.operation,
            name="evil", blob=pack_vsf("no:such_factory")), 0)
        agent.tick_rx(0)
        assert agent.dispatch_errors == 1
        assert "evil" not in agent.modules[binding.module].cached_names(
            binding.operation)

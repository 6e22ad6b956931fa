"""End-to-end sharded runs: master + worker fleet over real TCP.

Small deployments so the tests stay fast on a single core -- the
correctness claims (full RIB convergence, windowed lead, snapshot
handoff on respawn) are size-independent; scaling numbers live in the
cluster benchmark, not here.
"""

import pytest

from repro.cluster import ClusterConfig, ClusterRuntime, run_cluster
from repro.sim.chaos import (
    ShardRespawnAt,
    TcpDisconnectAt,
    WorkerKillAt,
    WorkerStallWindow,
    cluster_chaos,
)

pytestmark = pytest.mark.slow


class TestClusterEndToEnd:
    def test_two_worker_run_converges(self):
        config = ClusterConfig(
            workers=2, n_enbs=4, ues_per_enb=10, total_ttis=200,
            window=32)
        report = run_cluster(config)
        # The master saw every shard's full deployment: all four
        # agents in the RIB, every UE attached via stats reports.
        assert report.rib_agents == 4
        assert report.rib_ues == 40
        assert report.agents_accepted == 4
        # It ticked through the whole run, and not one TTI more: the
        # last frames are counted in, not waited for.
        assert report.master_ttis == config.total_ttis
        # The credit scheme held: no shard outran the window.
        assert report.max_lead_ttis <= config.window
        assert report.respawns == 0
        assert len(report.worker_busy_s) == 2
        assert all(b > 0 for b in report.worker_busy_s)

    def test_report_is_json_able(self):
        import json

        config = ClusterConfig(
            workers=1, n_enbs=2, ues_per_enb=4, total_ttis=80,
            window=16)
        report = run_cluster(config)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["workers"] == 1
        assert payload["rib_agents"] == 2
        assert payload["rib_ues"] == 8

    @pytest.mark.parametrize("workers,n_enbs", [(1, 2), (2, 4)])
    @pytest.mark.parametrize("total_ttis", [1, 8])
    def test_short_run_census_is_complete(self, workers, n_enbs,
                                          total_ttis):
        """A run too short to hide a race behind: the census must not
        depend on whether a worker read the master's ConfigRequest
        before it spent its credit.  No shard is granted a TTI until
        its set-up exchange has settled, and none is stopped until its
        last frame is applied."""
        config = ClusterConfig(
            workers=workers, n_enbs=n_enbs, ues_per_enb=4,
            total_ttis=total_ttis, window=16)
        for _ in range(5):
            report = run_cluster(config)
            assert report.rib_agents == n_enbs
            assert report.rib_ues == 4 * n_enbs
            assert report.master_ttis == total_ttis
            assert report.respawns == 0 and not report.failures

    def test_timed_window_excludes_set_up(self):
        """``us_per_tti`` starts at the start barrier: spawning the
        workers, building the shards and the Hello/config exchange
        (well over 100 ms together) stay outside it."""
        import time

        config = ClusterConfig(
            workers=1, n_enbs=2, ues_per_enb=4, total_ttis=8,
            window=16)
        with ClusterRuntime(config).start() as runtime:
            began = time.perf_counter()
            report = runtime.run()
            total_s = time.perf_counter() - began
        assert report.wall_s < total_s / 2
        assert report.us_per_tti == pytest.approx(
            report.wall_s * 1e6 / 8)
        assert sum(report.fleet_samples_us) <= report.wall_s * 1e6

    def test_respawn_hands_shard_over_snapshot(self):
        """Kill one shard mid-run; the replacement reconnects and the
        RIB reconverges to the full deployment."""
        config = ClusterConfig(
            workers=2, n_enbs=4, ues_per_enb=6, total_ttis=160,
            window=24)
        with ClusterRuntime(config).start() as runtime:
            harness = cluster_chaos(runtime, [ShardRespawnAt(60, 1)])
            report = runtime.run()
            chaos = harness.report()
            open_connections = runtime.server.open_connections()
        assert report.respawns == 1
        # Shard 1's two agents reconnected after the respawn.
        assert report.agents_accepted == 6
        assert report.rib_agents == 4
        assert report.rib_ues == 24
        assert report.master_ttis == config.total_ttis
        assert len(chaos.fired) == 1 and chaos.ok, chaos.to_dict()
        # The two connections the respawn replaced were closed, not
        # dropped: one open connection per live agent.
        assert open_connections == 4


def healing_config(**overrides):
    """Small fleet with snappy supervision for the failure tests."""
    defaults = dict(
        workers=2, n_enbs=4, ues_per_enb=6, total_ttis=160,
        window=24, respawn_backoff_s=0.01,
        run_deadline_s=60.0)
    defaults.update(overrides)
    return ClusterConfig(**defaults)


def run_with_chaos(config, actions, **harness_kwargs):
    with ClusterRuntime(config).start() as runtime:
        harness = cluster_chaos(runtime, actions, **harness_kwargs)
        report = runtime.run()
        chaos = harness.report()
    return report, chaos


class TestClusterSelfHealing:
    def test_sigkilled_worker_is_respawned_and_fleet_completes(self):
        """The silent-death case: SIGKILL sends no error tuple, so the
        master sees only a dead process / pipe EOF.  The supervisor
        must classify it and respawn -- previously this deadlocked the
        credit pump forever."""
        config = healing_config()
        report, chaos = run_with_chaos(
            config, [WorkerKillAt(40, 1)], max_respawns=1)
        assert report.respawns == 1
        assert report.degraded_shards == []
        assert not report.degraded
        # SIGKILL races its two detectors; either classification is
        # correct, but there must be exactly one fresh failure.
        assert len(report.failures) == 1
        assert report.failures[0]["cause"] in (
            "pipe_eof", "process_death")
        assert report.failures[0]["action"] == "respawn"
        # Full census: the replacement reconnected all of shard 1.
        assert report.rib_agents == 4
        assert report.rib_ues == 24
        assert report.master_ttis == config.total_ttis
        assert len(report.respawn_latency_s) == 1
        assert chaos.ok, chaos.to_dict()

    def test_budget_exhausted_shard_degrades_instead_of_hanging(self):
        """With a zero respawn budget the killed shard is quarantined:
        the survivors finish, the census shrinks to match, and the run
        terminates well inside its deadline."""
        config = healing_config(respawn_budget=0)
        report, chaos = run_with_chaos(config, [WorkerKillAt(40, 1)])
        assert report.respawns == 0
        assert report.degraded_shards == [1]
        assert report.degraded
        assert report.failures[0]["action"] == "quarantine"
        # Census is the shard map minus the quarantined shard.
        assert report.rib_agents == 2
        assert report.rib_ues == 12
        assert report.master_ttis == config.total_ttis
        assert report.wall_s < config.run_deadline_s
        assert chaos.ok, chaos.to_dict()

    def test_stall_watchdog_respawns_a_wedged_worker(self):
        """A live-but-silent worker (holding unspent credit) trips the
        low-water stall watchdog and is replaced."""
        config = healing_config(stall_timeout_s=0.6)
        report, chaos = run_with_chaos(
            config, [WorkerStallWindow(60, 0, stall_s=30.0)])
        assert any(f["cause"] == "stall" for f in report.failures)
        assert report.respawns >= 1
        assert report.stall_seconds > 0
        assert report.degraded_shards == []
        assert report.rib_agents == 4
        assert report.rib_ues == 24
        assert report.master_ttis == config.total_ttis
        assert chaos.ok, chaos.to_dict()

    def test_tcp_disconnect_heals_through_worker_error_path(self):
        """Dropping a shard's data plane is a classified failure on
        whichever side sees it first: the master finds its endpoint
        closed, the worker reports TransportClosed over its pipe."""
        config = healing_config()
        report, chaos = run_with_chaos(config, [TcpDisconnectAt(40, 1)])
        assert report.respawns >= 1
        assert report.failures[0]["cause"] in (
            "connection_closed", "worker_error", "pipe_eof",
            "process_death")
        assert report.degraded_shards == []
        assert report.rib_agents == 4
        assert report.rib_ues == 24
        assert report.master_ttis == config.total_ttis
        assert chaos.ok, chaos.to_dict()

    def test_send_on_a_dropped_connection_is_a_shard_failure(self):
        """The master keeps talking to a shard whose sockets it just
        lost -- what any keepalive, app or attach event does.  The
        frame is a drop on a down link and the shard a classified
        failure; nothing escapes the pump."""

        class DisconnectThenSend(TcpDisconnectAt):
            def inject(self, runtime):
                fired = super().inject(runtime)
                runtime.master.northbound.request_config(3, scope="ues")
                self.dropped = runtime.master.agent_endpoints()[
                    3]._outbound.dropped_messages
                return fired

        config = healing_config()
        action = DisconnectThenSend(40, 1)
        report, chaos = run_with_chaos(config, [action])
        assert action.dropped == 1
        # Whichever side sees the closed socket first names it.
        assert report.failures[0]["cause"] in (
            "connection_closed", "worker_error")
        assert report.failures[0]["action"] == "respawn"
        assert report.respawns == 1
        assert report.degraded_shards == []
        assert report.rib_agents == 4
        assert report.rib_ues == 24
        assert report.master_ttis == config.total_ttis
        assert chaos.ok, chaos.to_dict()

    def test_chaos_report_is_json_able(self):
        import json

        config = healing_config()
        report, chaos = run_with_chaos(
            config, [WorkerKillAt(30, 0)], max_respawns=2)
        payload = json.loads(json.dumps(chaos.to_dict()))
        assert payload["ok"] is True
        assert payload["checks"] > 0
        assert payload["fired"], "the kill action never fired"

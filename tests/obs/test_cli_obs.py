"""CLI observability subcommands: ``repro trace`` and ``repro stats``."""

import json

from repro import obs
from repro.cli import main
from repro.obs.export import trace_components, validate_chrome_trace

RUN = ["--ttis", "400"]  # short runs keep the suite fast


class TestTraceCommand:
    def test_writes_valid_trace_with_platform_components(self, tmp_path,
                                                         capsys):
        out = tmp_path / "trace.json"
        assert main(["trace", "--scenario", "quickstart", *RUN,
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert validate_chrome_trace(doc) == []
        assert len(trace_components(doc)) >= 4
        cdf = doc["otherData"]["control_latency_cdf"]
        assert cdf["ul"] and cdf["dl"]
        printed = capsys.readouterr().out
        assert "control latency" in printed
        assert "perfetto" in printed

    def test_leaves_obs_disabled(self, tmp_path):
        main(["trace", *RUN, "--out", str(tmp_path / "t.json")])
        assert obs.live is None


class TestStatsCommand:
    def test_prometheus_to_stdout(self, capsys):
        assert main(["stats", "--scenario", "quickstart", *RUN]) == 0
        out = capsys.readouterr().out
        assert "# TYPE net_tx_messages counter" in out
        assert "master_cycle_core_ms_bucket" in out
        assert obs.live is None

    def test_jsonl_to_file(self, tmp_path, capsys):
        out = tmp_path / "metrics.jsonl"
        assert main(["stats", *RUN, "--format", "jsonl",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        names = {json.loads(line)["name"] for line in lines}
        assert "net.tx.messages" in names
        assert "mac.sched.runs" in names
        assert "wrote" in capsys.readouterr().out

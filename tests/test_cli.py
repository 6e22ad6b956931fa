"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestCli:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "FlexRAN" in out
        assert "protocol message types: 20" in out

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "CATALOGUE" in capsys.readouterr().out

    def test_unknown_demo_rejected(self):
        # There is no ``demo`` command: examples/ narrates the
        # catalogue's deployments.
        with pytest.raises(SystemExit) as exc:
            main(["demo", "quickstart"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["trace", "stats", "serve"])
    def test_negative_ttis_rejected(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--ttis", "-1"])
        assert exc.value.code == 2
        assert "--ttis: must be >= 0" in capsys.readouterr().err

    def test_serve_port_zero_binds_ephemeral(self, capsys):
        """Regression: ``--port 0`` must bind an OS-assigned port and
        print the *resolved* port, never the literal 0 -- CI runs
        several servers back to back and must not collide."""
        import re

        assert main(["serve", "--port", "0", "--smoke",
                     "--smoke-items", "2"]) == 0
        out = capsys.readouterr().out
        match = re.search(r"northbound server on http://([\d.]+):(\d+)",
                          out)
        assert match, out
        port = int(match.group(2))
        assert port != 0
        # The curl hints advertise the same resolved port.
        assert f"curl http://{match.group(1)}:{port}/v1/info" in out

    def test_serve_smoke(self, capsys, tmp_path):
        import json

        report = tmp_path / "nb_report.json"
        assert main(["serve", "--smoke", "--smoke-items", "5",
                     "--report", str(report)]) == 0
        out = capsys.readouterr().out
        assert "smoke OK" in out
        assert "nb.fanout.latency_ms" in out
        doc = json.loads(report.read_text())
        assert doc["policy_xid"] > 0
        assert doc["tti_items"] >= 5

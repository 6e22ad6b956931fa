"""Tests that key control-plane events are logged.

Library logging convention: loggers named after the module, no
handlers installed by the library, INFO for lifecycle events and
WARNING for anomalies (dead agents, denied commands).
"""

import logging


from repro.core.agent import FlexRanAgent
from repro.core.controller import MasterController
from repro.core.protocol.messages import DciSpec
from repro.lte.enodeb import EnodeB
from repro.lte.phy.channel import FixedCqi
from repro.lte.ue import Ue
from repro.net.transport import ControlConnection


class TestLogging:
    def test_attach_and_detach_logged(self, caplog):
        enb = EnodeB(1)
        with caplog.at_level(logging.INFO, logger="repro.lte.enodeb"):
            rnti = enb.attach_ue(Ue("001", FixedCqi(10)), tti=0)
            enb.detach_ue(rnti)
        messages = [r.message for r in caplog.records]
        assert any("attached as RNTI" in m for m in messages)
        assert any("detached" in m for m in messages)

    def test_vsf_activation_logged(self, caplog):
        enb = EnodeB(1)
        agent = FlexRanAgent(1, enb)
        with caplog.at_level(logging.INFO, logger="repro.core.agent.cmi"):
            agent.mac.activate("dl_scheduling", "local_pf")
        assert any("activated VSF local_pf" in r.message
                   for r in caplog.records)

    def test_agent_connect_logged(self, caplog):
        master = MasterController()
        conn = ControlConnection()
        with caplog.at_level(logging.INFO,
                             logger="repro.core.controller.master"):
            master.connect_agent(1, conn.master_side)
        assert any("agent 1 connected" in r.message for r in caplog.records)

    def test_dead_agent_logged_as_warning(self, caplog, monkeypatch):
        from repro.core.controller import master as master_module
        monkeypatch.setattr(master_module, "LIVENESS_TIMEOUT_TTIS", 150)
        master = MasterController()
        conn = ControlConnection()
        master.connect_agent(1, conn.master_side)
        enb = EnodeB(1)
        agent = FlexRanAgent(1, enb, endpoint=conn.agent_side)
        agent.tick_tx(0)
        master.tick(0)
        with caplog.at_level(logging.WARNING,
                             logger="repro.core.controller.master"):
            for t in range(1, 300):
                master.tick(t)  # the agent never speaks again
        assert any("declared dead" in r.message for r in caplog.records)

    def test_conflict_denial_logged_as_warning(self, caplog):
        master = MasterController()
        conn = ControlConnection()
        master.connect_agent(1, conn.master_side)
        nb = master.northbound
        dci = [DciSpec(rnti=70, n_prb=50, cqi_used=10)]
        with caplog.at_level(logging.WARNING,
                             logger="repro.core.controller.northbound"):
            nb.send_dl_command(1, 10, 100, dci)
            nb.send_dl_command(1, 10, 100, dci)  # duplicate claim
        assert any("denied a scheduling command" in r.message
                   for r in caplog.records)

    def test_library_installs_no_handlers(self):
        for name in ("repro.lte.enodeb", "repro.core.controller.master",
                     "repro.core.agent.cmi"):
            assert logging.getLogger(name).handlers == []

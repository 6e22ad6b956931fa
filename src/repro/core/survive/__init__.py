"""``repro.core.survive`` -- the platform survivability layer.

Fault containment for the layers above the transport (PR 1 hardened
the links, PR 2 made the platform observable):

* :mod:`repro.core.survive.supervisor` -- per-application fault
  boundaries at the master: crash/deadline counters, a circuit
  breaker that quarantines a misbehaving app, and probation-based
  re-admission.  This is the Task Manager guarantee of Section 4.3.3:
  "the operation of the master controller is not affected" by slow or
  misbehaving applications.
* :mod:`repro.core.survive.snapshot` -- controller checkpoint-restore:
  periodic RIB snapshots (the agent -> cell -> UE forest plus pending
  transaction state) and the cold-restart path that rebuilds the RIB
  from the latest snapshot plus a full agent-driven resync, following
  the controller-failover pattern of ONOS/Onix where the switches
  (here: agents) are the authoritative state source.

The chaos harness that exercises all of this lives in
:mod:`repro.sim.chaos`.
"""

from repro.core.survive.snapshot import (  # noqa: F401  (re-exported API)
    CheckpointStore,
    restore_master,
    restore_rib,
    rib_ground_truth_diff,
    snapshot_master,
    snapshot_rib,
)
from repro.core.survive.supervisor import (  # noqa: F401
    AppHealth,
    AppSupervisor,
    BreakerState,
)

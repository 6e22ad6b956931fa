"""Sharded multi-process controller runtime over the TCP transport.

Partitions the RIB by agent, runs agent+eNodeB groups in worker
processes connected to the master over :mod:`repro.net.tcp`, and
coordinates TTI epochs with a barrier-free credit scheme.  See
``docs/CLUSTER.md``.
"""

from repro.cluster.credits import CreditScheduler
from repro.cluster.partition import ShardMap, ShardSpec, plan_shards
from repro.cluster.runtime import (
    ClusterConfig,
    ClusterReport,
    ClusterRuntime,
    run_cluster,
)
from repro.cluster.supervise import (
    FAILURE_CAUSES,
    ClusterDeadlineError,
    ShardFailure,
    ShardSupervisionPolicy,
    ShardSupervisor,
    backoff_delay,
)
from repro.cluster.worker import WorkerSpec, build_shard_sim, worker_main

__all__ = [
    "FAILURE_CAUSES",
    "ClusterConfig",
    "ClusterDeadlineError",
    "ClusterReport",
    "ClusterRuntime",
    "CreditScheduler",
    "ShardFailure",
    "ShardMap",
    "ShardSpec",
    "ShardSupervisionPolicy",
    "ShardSupervisor",
    "WorkerSpec",
    "backoff_delay",
    "build_shard_sim",
    "plan_shards",
    "run_cluster",
    "worker_main",
]

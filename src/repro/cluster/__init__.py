"""Sharded multi-process controller runtime over the TCP transport.

Partitions the RIB by agent, runs agent+eNodeB groups in worker
processes connected to the master over :mod:`repro.net.tcp`, and
coordinates TTI epochs with a barrier-free credit scheme.  See
``docs/CLUSTER.md``.
"""

from repro.cluster.runtime import ClusterConfig, ClusterRuntime, run_cluster

__all__ = ["ClusterConfig", "ClusterRuntime", "run_cluster"]

"""Every test here runs with ``build_context`` checked against the
reference builder (see tests/sim/context_oracle.py)."""

from tests.sim.context_oracle import build_context_oracle  # noqa: F401

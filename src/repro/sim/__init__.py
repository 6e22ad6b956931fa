"""Simulation harness: deployment wiring (``simulation``), the
deployment catalogue (``scenarios``), fault schedules (``chaos``) and
the benchmarks' measurement helpers (``metrics``).  Import the module
you need; the package re-exports nothing."""

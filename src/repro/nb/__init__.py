"""Northbound service plane: streaming subscription server + client.

Layered per docs/NORTHBOUND.md:

* :mod:`repro.nb.subscriptions` -- the transport-neutral routing table;
* :mod:`repro.nb.service` -- the controller bridge (event tap, RIB
  sampling, the cycle hook that pumps the server) that keeps every
  master/RIB touch on the controller thread;
* :mod:`repro.nb.routes` / :mod:`repro.nb.encoders` -- the HTTP route
  vocabulary and the JSONL/SSE payload encoders;
* :mod:`repro.nb.server` -- the HTTP/1.1 frontend, pumped by the
  service's cycle hook;
* :mod:`repro.nb.client` -- a blocking stdlib client;
* :mod:`repro.nb.auth` -- the authentication seam (allow-all default,
  shared bearer token for CI).
"""

from repro.nb.service import NorthboundService

__all__ = ["NorthboundService"]

"""Fluid TCP model over the simulated radio link.

The MEC use case (Section 6.2) hinges on TCP dynamics: the default
DASH player only sees transport-layer throughput, overshoots when the
radio capacity drops, congests, and freezes.  This model reproduces
the mechanisms that matter at TTI resolution:

* window-based sending (slow start / congestion avoidance on cwnd);
* ack clocking -- bytes count as acknowledged one wired-path delay
  after the UE receives them;
* loss on RLC tail drop (the finite eNodeB buffer), halving the
  window;
* spurious-timeout protection via an RTT-tracking RTO.

Data "sent" by the flow is enqueued into the eNodeB bearer like any
other downlink traffic and is delivered to the UE by the normal MAC
machinery, so TCP throughput reflects real scheduler behaviour.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

from repro.lte.enodeb import EnodeB
from repro.lte.mac.queues import DEFAULT_LCID
from repro.lte.ue import METER_WINDOW_TTIS, RateMeter, Ue

MSS_BYTES = 1400
INITIAL_WINDOW_SEGMENTS = 10
MIN_RTO_MS = 200.0


class TcpFlow:
    """One downlink TCP connection toward a UE."""

    def __init__(self, *, base_rtt_ms: float = 20.0,
                 unlimited: bool = False) -> None:
        if base_rtt_ms < 0:
            raise ValueError(f"base RTT must be >= 0, got {base_rtt_ms}")
        self.base_rtt_ms = base_rtt_ms
        self.unlimited = unlimited

        self.cwnd = float(MSS_BYTES * INITIAL_WINDOW_SEGMENTS)
        self.ssthresh = float(10 ** 9)
        self.inflight_bytes = 0
        self._app_backlog = 0
        self._send_times: Deque[Tuple[int, int]] = deque()  # (tti, bytes)
        self._pending_acks: Deque[Tuple[int, int]] = deque()  # (due, bytes)
        self._srtt_ms: Optional[float] = None
        self._last_ack_tti = 0

        self.meter = RateMeter(METER_WINDOW_TTIS)
        self.delivered_bytes = 0
        self.lost_bytes = 0
        self.loss_events = 0
        self.timeouts = 0

        self._transmit: Optional[Callable[[int, int], bool]] = None
        self._app_delivery_cbs: List[Callable[[int, int], None]] = []

    # -- wiring -----------------------------------------------------------

    def wire(self, enb: EnodeB, rnti: int, ue: Ue,
             *, lcid: int = DEFAULT_LCID) -> None:
        """Connect the flow to a UE's default bearer."""
        self._transmit = lambda size, tti: enb.enqueue_dl(rnti, size, tti, lcid)
        ue.on_delivery(self._on_radio_delivery)

    def on_app_delivered(self, fn: Callable[[int, int], None]) -> None:
        """Register an application sink ``(nbytes, tti)`` (e.g. DASH)."""
        self._app_delivery_cbs.append(fn)

    # -- application interface ---------------------------------------------

    def offer(self, nbytes: int) -> None:
        """Application hands *nbytes* to the socket for transmission."""
        if nbytes < 0:
            raise ValueError(f"bytes must be >= 0, got {nbytes}")
        self._app_backlog += nbytes

    # -- per-TTI engine -----------------------------------------------------

    def tick(self, tti: int) -> None:
        """Process acks, check the RTO, send what the window allows."""
        if self._transmit is None:
            raise RuntimeError("TcpFlow used before wire()")
        self._process_acks(tti)
        self._check_timeout(tti)
        self._send(tti)

    def _send(self, tti: int) -> None:
        window_room = int(self.cwnd) - self.inflight_bytes
        available = self._app_backlog if not self.unlimited else window_room
        budget = min(window_room, available)
        while budget >= MSS_BYTES or (0 < budget == available):
            size = min(MSS_BYTES, budget)
            accepted = self._transmit(size, tti)
            if not self.unlimited:
                self._app_backlog -= size
            if accepted:
                self.inflight_bytes += size
                self._send_times.append((tti, size))
            else:
                # Tail drop at the eNodeB buffer: a congestion signal.
                self.lost_bytes += size
                if not self.unlimited:
                    self._app_backlog += size  # sender will retransmit
                self._on_loss()
                break
            budget -= size

    def _on_radio_delivery(self, nbytes: int, tti: int) -> None:
        """UE received payload; the ack returns after the wired path."""
        ack_delay = max(0, int(round(self.base_rtt_ms / 2.0)))
        self._pending_acks.append((tti + ack_delay, nbytes))
        self.meter.add(nbytes, tti)
        self.delivered_bytes += nbytes
        for fn in list(self._app_delivery_cbs):
            fn(nbytes, tti)

    def _process_acks(self, tti: int) -> None:
        while self._pending_acks and self._pending_acks[0][0] <= tti:
            _, acked = self._pending_acks.popleft()
            self._last_ack_tti = tti
            self.inflight_bytes = max(0, self.inflight_bytes - acked)
            self._update_rtt(tti, acked)
            if self.cwnd < self.ssthresh:
                self.cwnd += acked  # slow start
            else:
                self.cwnd += MSS_BYTES * acked / max(self.cwnd, 1.0)

    def _update_rtt(self, tti: int, acked: int) -> None:
        remaining = acked
        while remaining > 0 and self._send_times:
            send_tti, size = self._send_times[0]
            sample = tti - send_tti
            if self._srtt_ms is None:
                self._srtt_ms = float(sample)
            else:
                self._srtt_ms = 0.875 * self._srtt_ms + 0.125 * sample
            if size <= remaining:
                self._send_times.popleft()
                remaining -= size
            else:
                self._send_times[0] = (send_tti, size - remaining)
                remaining = 0

    def _on_loss(self) -> None:
        self.loss_events += 1
        self.ssthresh = max(self.inflight_bytes / 2.0, 2.0 * MSS_BYTES)
        self.cwnd = self.ssthresh

    def _check_timeout(self, tti: int) -> None:
        if self.inflight_bytes <= 0:
            return
        rto = max(MIN_RTO_MS, 3.0 * (self._srtt_ms or self.base_rtt_ms))
        if tti - self._last_ack_tti > rto:
            self.timeouts += 1
            self.ssthresh = max(self.inflight_bytes / 2.0, 2.0 * MSS_BYTES)
            self.cwnd = float(MSS_BYTES)
            self._last_ack_tti = tti  # back off before firing again

    # -- read-out -----------------------------------------------------------

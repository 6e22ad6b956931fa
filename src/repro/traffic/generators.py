"""Traffic generators: the simulated iperf of the evaluation.

The paper's experiments drive the RAN with "uniform downlink UDP
traffic" for the scheduling/scalability studies and saturating
up/downlink flows for the speedtest comparison.  Generators here
produce per-TTI packet batches; the :mod:`repro.traffic.epc` stub
delivers them into eNodeB bearers.

Each source says when it next emits (``next_emission_tti``) and counts
a TTI it is not called for as called, so the EPC calls it only on the
TTIs that carry packets and what it delivers does not change.
"""

from __future__ import annotations

import abc
from bisect import bisect_left
from typing import List

import numpy as np

DEFAULT_PACKET_BYTES = 1400
"""Typical payload of an MTU-sized UDP datagram after headers."""

_NEVER_TTI = 1 << 62
"""Sentinel emission TTI for flows that will never produce a packet."""

_POISSON_BLOCK = 1024  # Poisson counts drawn from the generator at once


class TrafficSource(abc.ABC):
    """Produces downlink (or uplink) packets per TTI.  The rate clock
    starts at the first :meth:`packets` call inside the source's
    window; from then on every TTI counts, called or not."""

    @abc.abstractmethod
    def packets(self, tti: int) -> List[int]:
        """Packet sizes (bytes) generated during this TTI."""

    @abc.abstractmethod
    def next_emission_tti(self, now: int) -> int:
        """Earliest TTI after *now* whose :meth:`packets` call can
        return packets, assuming no calls in between."""


class CbrSource(TrafficSource):
    """Constant bitrate: *rate_mbps* spread over MTU-sized packets.

    A byte accumulator keeps the long-run rate exact even when the
    per-TTI budget is a fraction of one packet.
    """

    def __init__(self, rate_mbps: float,
                 packet_bytes: int = DEFAULT_PACKET_BYTES,
                 *, start_tti: int = 0, stop_tti: int = -1,
                 phase: float = 0.0) -> None:
        if rate_mbps < 0:
            raise ValueError(f"rate must be >= 0, got {rate_mbps}")
        if packet_bytes <= 0:
            raise ValueError(f"packet size must be positive, got {packet_bytes}")
        if not 0.0 <= phase < 1.0:
            raise ValueError(f"phase must be in [0, 1), got {phase}")
        self.rate_mbps = rate_mbps
        self.packet_bytes = packet_bytes
        self.start_tti = start_tti
        self.stop_tti = stop_tti
        # The phase pre-credits a fraction of one packet, offsetting
        # this flow's emission instants within the packet interval.
        # Without it, equal-rate flows created together emit in
        # lockstep -- a fleet of CBR flows then delivers its packets
        # as one synchronized burst instead of a steady stream.
        self._credit_bytes = phase * packet_bytes
        # Last TTI credited; None until the first in-window call, so
        # the rate clock starts at first use (a flow provisioned long
        # before its UE attaches does not burst its backlog).
        self._credited_through: int | None = None

    @property
    def bytes_per_tti(self) -> float:
        return self.rate_mbps * 1000.0 / 8.0

    def packets(self, tti: int) -> List[int]:
        if tti < self.start_tti or (0 <= self.stop_tti <= tti):
            return []
        # Credit by elapsed TTIs rather than per call, so the long-run
        # rate does not depend on which TTIs are called.
        last = self._credited_through
        if last is None:
            elapsed = 1
        elif tti <= last:
            return []
        else:
            elapsed = tti - last
        self._credited_through = tti
        self._credit_bytes += self.bytes_per_tti * elapsed
        out: List[int] = []
        while self._credit_bytes >= self.packet_bytes:
            out.append(self.packet_bytes)
            self._credit_bytes -= self.packet_bytes
        return out

    def next_emission_tti(self, now: int) -> int:
        bpt = self.bytes_per_tti
        if bpt <= 0.0:
            return _NEVER_TTI
        if self._credited_through is None:
            # The rate clock has not started: the first in-window call
            # credits one TTI, whenever it comes, so poll as from then.
            return max(now + 1, self.start_tti)
        deficit = self.packet_bytes - self._credit_bytes
        ttis = max(1, -int(-deficit // bpt))  # ceil for positive bpt
        return max(now + ttis, self.start_tti)


SATURATING_BURST_BYTES = 8000  # what a SaturatingSource offers per TTI


class SaturatingSource(TrafficSource):
    """Backlogged source: always offers :data:`SATURATING_BURST_BYTES`
    per TTI.

    Used for speedtest-style saturation (Fig. 6b): the queue never
    runs dry, so measured goodput equals link capacity.
    """

    def __init__(self, *, packet_bytes: int = DEFAULT_PACKET_BYTES,
                 start_tti: int = 0) -> None:
        if packet_bytes <= 0:
            raise ValueError(f"packet size must be positive, got {packet_bytes}")
        self.packet_bytes = packet_bytes
        self.start_tti = start_tti
        whole, rest = divmod(SATURATING_BURST_BYTES, packet_bytes)
        self._burst = [packet_bytes] * whole + [rest] * (rest > 0)

    def packets(self, tti: int) -> List[int]:
        return self._burst[:] if tti >= self.start_tti else []

    def next_emission_tti(self, now: int) -> int:
        return max(now + 1, self.start_tti)


class PoissonSource(TrafficSource):
    """Poisson packet arrivals at a mean rate (bursty M2M-style load).

    One count per TTI from the first call inside the window, drawn a
    block at a time (from one seed, equal to a scalar draw per TTI).
    Only the non-zero ones are kept: their TTIs ascending, then the
    block's end, which is the hint when the block holds no more.
    """

    def __init__(self, rate_mbps: float,
                 packet_bytes: int = DEFAULT_PACKET_BYTES,
                 *, seed: int = 0, start_tti: int = 0) -> None:
        if rate_mbps < 0:
            raise ValueError(f"rate must be >= 0, got {rate_mbps}")
        if packet_bytes <= 0:
            raise ValueError(f"packet size must be positive, got {packet_bytes}")
        self.rate_mbps = rate_mbps
        self.packet_bytes = packet_bytes
        self.start_tti = start_tti
        self._rng = np.random.default_rng(seed)
        self._lambda = rate_mbps * 1000.0 / 8.0 / packet_bytes
        self._drawn_to: int | None = None  # TTI of the next undrawn count
        self._ttis: List[int] = []  # non-zero count TTIs, then _drawn_to
        self._counts: List[int] = []
        self._pos = 0

    def _seek(self, tti: int) -> int:
        """First TTI at or after *tti* with a non-zero count, or the end
        of the block holding *tti* if none is left in it."""
        if not self._lambda:
            return _NEVER_TTI
        while tti >= self._drawn_to:  # skipped TTIs consume their draws
            counts = self._rng.poisson(self._lambda, _POISSON_BLOCK)
            nonzero = counts.nonzero()[0]
            self._ttis = (nonzero + self._drawn_to).tolist()
            self._drawn_to += _POISSON_BLOCK
            self._ttis.append(self._drawn_to)
            self._counts = counts[nonzero].tolist()
            self._pos = 0
        if self._ttis[self._pos] < tti:
            self._pos = bisect_left(self._ttis, tti, self._pos)
        return self._ttis[self._pos]

    def packets(self, tti: int) -> List[int]:
        if tti < self.start_tti:
            return []
        if self._drawn_to is None:
            self._drawn_to = tti
        if self._seek(tti) != tti:
            return []
        self._pos += 1
        return [self.packet_bytes] * self._counts[self._pos - 1]

    def next_emission_tti(self, now: int) -> int:
        if self._drawn_to is None:
            return max(now + 1, self.start_tti)
        return self._seek(now + 1)


class OnOffSource(TrafficSource):
    """CBR with alternating on/off periods (bursty video/web-ish load).

    The inner CBR's TTI is the count of on-TTIs since ``start_tti``, so
    off periods pause its rate clock (raw TTIs would make the off time
    accrue credit and burst at the start of each on period), and an
    on-TTI not called is credited on the next call.
    """

    def __init__(self, rate_mbps: float, *, on_ttis: int, off_ttis: int,
                 packet_bytes: int = DEFAULT_PACKET_BYTES,
                 start_tti: int = 0) -> None:
        if on_ttis <= 0 or off_ttis < 0:
            raise ValueError("on_ttis must be > 0 and off_ttis >= 0")
        self._inner = CbrSource(rate_mbps, packet_bytes)
        self.on_ttis = on_ttis
        self.off_ttis = off_ttis
        self.start_tti = start_tti

    def packets(self, tti: int) -> List[int]:
        if tti < self.start_tti:
            return []
        cycles, phase = divmod(tti - self.start_tti,
                               self.on_ttis + self.off_ttis)
        if phase >= self.on_ttis:
            return []
        return self._inner.packets(cycles * self.on_ttis + phase)

    def next_emission_tti(self, now: int) -> int:
        on, period = self.on_ttis, self.on_ttis + self.off_ttis
        cycles, phase = divmod(max(now + 1 - self.start_tti, 0), period)
        inner = cycles * on + min(phase, on)  # of the next on-TTI
        last = self._inner._credited_through
        if last is not None:  # the inner clock has started
            inner = max(inner, self._inner.next_emission_tti(last))
        cycles, phase = divmod(inner, on)
        return self.start_tti + cycles * period + phase

"""DASH video streaming: client model and rate-adaptation algorithms.

Models the MPEG-DASH reference client of the paper's MEC experiment
(Section 6.2): a segmented video at several bitrate levels, downloaded
over a :class:`~repro.traffic.tcp.TcpFlow`, with a playout buffer that
drains in real time and freezes when empty.

Two ABR algorithms reproduce the two players of Fig. 11:

* :class:`ThroughputAbr` -- the default player: picks the next bitrate
  from its own transport-layer throughput estimate, with the
  aggressive up-switching the paper observes ("aggressively attempts
  to increase the bitrate ... even though the maximum achievable
  throughput is 15 Mb/s").
* :class:`AssistedAbr` -- the FlexRAN-assisted player: the bitrate
  target arrives out-of-band from the MEC application, which maps RIB
  CQI to the maximum sustainable bitrate.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.traffic.tcp import TcpFlow


class DashVideo:
    """A segmented video available at multiple bitrates.

    Segment sizes vary around the nominal bitrate (VBR encoding),
    which is why sustained playback needs transport throughput well
    above the nominal bitrate -- the effect Table 2 quantifies and the
    paper cites from the literature ("the TCP throughput needs to be
    greater (even double) than the video bitrate").
    """

    def __init__(self, bitrates_mbps: Sequence[float], *,
                 segment_duration_s: float = 2.0,
                 vbr_peak_factor: float = 1.6,
                 seed: int = 0) -> None:
        if not bitrates_mbps:
            raise ValueError("a video needs at least one bitrate level")
        if any(b <= 0 for b in bitrates_mbps):
            raise ValueError("bitrates must be positive")
        if segment_duration_s <= 0:
            raise ValueError("segment duration must be positive")
        if vbr_peak_factor < 1.0:
            raise ValueError("vbr_peak_factor must be >= 1")
        self.bitrates_mbps = sorted(bitrates_mbps)
        self.segment_duration_s = segment_duration_s
        self.vbr_peak_factor = vbr_peak_factor
        self._rng = np.random.default_rng(seed)

    @property
    def lowest(self) -> float:
        return self.bitrates_mbps[0]

    def best_at_most(self, limit_mbps: float) -> float:
        """Highest bitrate not exceeding *limit_mbps* (lowest if none)."""
        eligible = [b for b in self.bitrates_mbps if b <= limit_mbps]
        return eligible[-1] if eligible else self.lowest

    def segment_bytes(self, bitrate_mbps: float) -> int:
        """Size of the next segment at *bitrate_mbps*, with VBR jitter.

        Sizes are drawn uniformly in [2 - peak, peak] x nominal so the
        mean stays at the nominal bitrate while peaks reach
        ``vbr_peak_factor`` x nominal.
        """
        if bitrate_mbps not in self.bitrates_mbps:
            raise ValueError(
                f"{bitrate_mbps} Mb/s is not an encoded level: "
                f"{self.bitrates_mbps}")
        nominal = bitrate_mbps * 1e6 * self.segment_duration_s / 8.0
        low = 2.0 - self.vbr_peak_factor
        factor = float(self._rng.uniform(low, self.vbr_peak_factor))
        return max(1, int(nominal * factor))


class AbrAlgorithm(abc.ABC):
    """Chooses the bitrate of the next segment."""

    @abc.abstractmethod
    def choose(self, client: "DashClient", tti: int) -> float:
        """Return the bitrate (Mb/s) for the next segment request."""

    def observe_segment(self, bitrate_mbps: float, size_bytes: int,
                        download_ttis: int) -> None:
        """Feedback after each completed segment download."""


PANIC_BUFFER_S = 2.0  # below this buffer a throughput player takes the lowest rung
THROUGHPUT_EWMA_ALPHA = 0.4  # ThroughputAbr's per-segment estimate weight
AGGRESSIVENESS = 1.4  # ... and the multiple of its estimate it may pick


class ThroughputAbr(AbrAlgorithm):
    """Default player: transport-layer throughput estimation.

    The estimate is an EWMA over per-segment download rates.  The
    up-switch allows bitrates up to :data:`AGGRESSIVENESS` x estimate
    (matching the reference player's behaviour in the paper's Fig. 11b,
    where it jumps to 19.6 Mb/s on a 15 Mb/s link); a low-buffer guard
    falls back to the lowest level to recover from freezes.
    """

    def __init__(self) -> None:
        self.estimate_mbps: Optional[float] = None

    def observe_segment(self, bitrate_mbps: float, size_bytes: int,
                        download_ttis: int) -> None:
        if download_ttis <= 0:
            return
        sample = size_bytes * 8 / (download_ttis * 1000.0)
        if self.estimate_mbps is None:
            self.estimate_mbps = sample
        else:
            self.estimate_mbps = ((1 - THROUGHPUT_EWMA_ALPHA) * self.estimate_mbps
                                  + THROUGHPUT_EWMA_ALPHA * sample)

    def choose(self, client: "DashClient", tti: int) -> float:
        if client.buffer_s < PANIC_BUFFER_S:
            return client.video.lowest
        if self.estimate_mbps is None:
            return client.video.lowest
        return client.video.best_at_most(self.estimate_mbps * AGGRESSIVENESS)


class _WindowMeter:
    """Trailing-window byte meter (callback-signature compatible)."""

    def __init__(self, window_ttis: int) -> None:
        from repro.lte.ue import RateMeter
        self._meter = RateMeter(window_ttis)

    def add(self, nbytes: int, tti: int) -> None:
        self._meter.add(nbytes, tti)

    def rate_mbps(self, tti: int) -> float:
        return self._meter.rate_mbps(tti)


WINDOW_S = 20.0  # WindowedThroughputAbr's trailing measurement window
WINDOWED_SAFETY = 0.9  # ... and the share of its rate a bitrate may use


class WindowedThroughputAbr(AbrAlgorithm):
    """Default player, app-limited variant: windowed rate measurement.

    Measures delivered bytes over a trailing wall-clock window
    *including idle time between segments*.  While streaming at a low
    bitrate the flow is application-limited, so the measurement never
    exceeds the current bitrate and the player traps itself at the
    bottom rung -- the classic "downward spiral" of throughput-based
    ABR and the behaviour of the paper's Fig. 11a ("the change in
    channel quality did not become apparent to the transport layer").
    """

    def __init__(self, flow: TcpFlow) -> None:
        self._meter = _WindowMeter(int(WINDOW_S * 1000))
        flow.on_app_delivered(self._meter.add)

    def choose(self, client: "DashClient", tti: int) -> float:
        if client.buffer_s < PANIC_BUFFER_S:
            return client.video.lowest
        estimate = self._meter.rate_mbps(tti)
        if estimate <= 0:
            return client.video.lowest
        return client.video.best_at_most(estimate * WINDOWED_SAFETY)


class AssistedAbr(AbrAlgorithm):
    """FlexRAN-assisted player: bitrate target set by the MEC app."""

    def __init__(self) -> None:
        self.target_mbps: Optional[float] = None

    def set_target(self, bitrate_mbps: float) -> None:
        """Out-of-band channel from the MEC application."""
        if bitrate_mbps <= 0:
            raise ValueError(f"target must be positive, got {bitrate_mbps}")
        self.target_mbps = bitrate_mbps

    def choose(self, client: "DashClient", tti: int) -> float:
        if self.target_mbps is None:
            return client.video.lowest
        return client.video.best_at_most(self.target_mbps)


@dataclass
class FreezeRecord:
    """One playback stall."""

    start_tti: int
    duration_ttis: int = 0


class DashClient:
    """Segment-driven streaming client with playout-buffer dynamics."""

    def __init__(self, video: DashVideo, flow: TcpFlow, abr: AbrAlgorithm, *,
                 buffer_cap_s: float = 60.0,
                 startup_buffer_s: float = 2.0,
                 start_tti: int = 0) -> None:
        self.video = video
        self.flow = flow
        self.abr = abr
        self.buffer_cap_s = buffer_cap_s
        self.startup_buffer_s = startup_buffer_s
        self.start_tti = start_tti

        self.buffer_ms = 0.0
        self.playing = False
        self.started = False
        self.segments_completed = 0

        self._downloading = False
        self._segment_remaining = 0
        self._segment_size = 0
        self._segment_bitrate = 0.0
        self._segment_start_tti = 0

        self.bitrate_series: List[Tuple[int, float]] = []
        self.buffer_series: List[Tuple[int, float]] = []
        self.freezes: List[FreezeRecord] = []
        self._current_freeze: Optional[FreezeRecord] = None

        flow.on_app_delivered(self._on_bytes)

    @property
    def buffer_s(self) -> float:
        return self.buffer_ms / 1000.0

    # -- engine -------------------------------------------------------------

    def tick(self, tti: int) -> None:
        """Advance playback and (if idle) request the next segment."""
        if tti < self.start_tti:
            return
        self._playout(tti)
        if not self._downloading and self.buffer_s < self.buffer_cap_s:
            self._request_segment(tti)
        if tti % 100 == 0:
            self.buffer_series.append((tti, self.buffer_s))

    def _playout(self, tti: int) -> None:
        if not self.started:
            if self.buffer_s >= self.startup_buffer_s:
                self.started = True
                self.playing = True
            return
        if self.buffer_ms >= 1.0:
            self.buffer_ms -= 1.0
            self.playing = True
            if self._current_freeze is not None:
                self.freezes.append(self._current_freeze)
                self._current_freeze = None
        else:
            self.playing = False
            if self._current_freeze is None:
                self._current_freeze = FreezeRecord(start_tti=tti)
            self._current_freeze.duration_ttis += 1

    def _request_segment(self, tti: int) -> None:
        bitrate = self.abr.choose(self, tti)
        size = self.video.segment_bytes(bitrate)
        self._downloading = True
        self._segment_remaining = size
        self._segment_size = size
        self._segment_bitrate = bitrate
        self._segment_start_tti = tti
        self.bitrate_series.append((tti, bitrate))
        self.flow.offer(size)

    def _on_bytes(self, nbytes: int, tti: int) -> None:
        if not self._downloading:
            return
        self._segment_remaining -= nbytes
        if self._segment_remaining > 0:
            return
        self._downloading = False
        self.segments_completed += 1
        self.buffer_ms += self.video.segment_duration_s * 1000.0
        self.abr.observe_segment(
            self._segment_bitrate, self._segment_size,
            max(1, tti - self._segment_start_tti))

    # -- read-out -------------------------------------------------------------

    def total_freeze_ms(self) -> int:
        total = sum(f.duration_ttis for f in self.freezes)
        if self._current_freeze is not None:
            total += self._current_freeze.duration_ttis
        return total

    def freeze_count(self) -> int:
        return len(self.freezes) + (1 if self._current_freeze else 0)

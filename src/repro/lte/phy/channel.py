"""Radio channel models producing per-UE SINR over time.

The paper's testbed used either a real RF front-end (Ettus B210 + COTS
UE) or OAI's emulated channels.  Here every UE owns a ``ChannelModel``
that yields its downlink SINR at any TTI; the cell converts SINR to the
CQI the UE would report.  Several models cover the experiments:

* :class:`FixedCqi` / :class:`FixedSinr` -- the fixed-CQI links of
  Table 2 and the saturation tests of Fig. 6.
* :class:`SquareWaveCqi` / :class:`TraceCqi` -- the controlled CQI
  fluctuations of the DASH experiments (Fig. 11: 3<->2 and 10<->4).
* :class:`GaussMarkovSinr` -- mean-reverting random fading for
  scalability scenarios with heterogeneous UEs.
* :class:`PathlossChannel` -- log-distance pathloss for mobility and
  handover scenarios.
* :class:`InterferenceChannel` -- a two-state wrapper giving distinct
  SINR with the dominant interferer active vs muted, the abstraction
  needed by the eICIC use case (Fig. 10).
"""

from __future__ import annotations

import abc
import math
from array import array
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.lte.phy.cqi import cqi_to_sinr_floor, sinr_to_cqi, validate_cqi

THERMAL_NOISE_DBM_PER_HZ = -174.0
UE_NOISE_FIGURE_DB = 7.0

_NOISE_BLOCK = 16
"""Draws :class:`GaussMarkovSinr` takes from its generator at a time:
packed doubles, small enough that 800 channels' blocks do not show in
the resident set."""


class ChannelModel(abc.ABC):
    """Downlink channel between one cell and one UE."""

    #: True when :meth:`sinr_db`/:meth:`cqi` never vary with the TTI.
    #: Consumers (e.g. the agent's stats pass) may then cache
    #: one observation for the lifetime of the channel *object*; a
    #: swapped-in channel instance must be re-observed.
    time_invariant = False

    @abc.abstractmethod
    def sinr_db(self, tti: int, *, interference_active: bool = True) -> float:
        """SINR (dB) seen by the UE at *tti*.

        ``interference_active`` tells the model whether the dominant
        interfering cell is transmitting during this subframe; models
        without an explicit interferer ignore it.
        """

    def cqi(self, tti: int, *, interference_active: bool = True) -> int:
        """CQI the UE would report for the SINR at *tti*."""
        return sinr_to_cqi(self.sinr_db(tti, interference_active=interference_active))


class FixedSinr(ChannelModel):
    """Time-invariant SINR; the simplest possible link."""

    time_invariant = True

    def __init__(self, sinr_db: float) -> None:
        self._sinr_db = float(sinr_db)

    def sinr_db(self, tti: int, *, interference_active: bool = True) -> float:
        return self._sinr_db


class FixedCqi(FixedSinr):
    """Time-invariant link pinned to exactly one CQI value.

    The SINR is set marginally above the CQI's reporting floor so the
    mapping round-trips exactly (used heavily by Table 2 and Fig. 11).
    """

    def __init__(self, cqi: int) -> None:
        validate_cqi(cqi)
        super().__init__(cqi_to_sinr_floor(cqi) + 0.1)
        self.fixed_cqi = cqi

    def cqi(self, tti: int, *, interference_active: bool = True) -> int:
        return self.fixed_cqi


class SquareWaveCqi(ChannelModel):
    """CQI alternating between two levels with a fixed period.

    Reproduces the controlled channel-quality fluctuation of the DASH
    experiment: "we introduced a small variation in the CQI value (from
    3 to 2 and vice versa)" and the drastic 10 <-> 4 case.
    """

    def __init__(self, high_cqi: int, low_cqi: int, period_ttis: int,
                 *, start_high: bool = True, offset_ttis: int = 0) -> None:
        validate_cqi(high_cqi)
        validate_cqi(low_cqi)
        if period_ttis <= 0:
            raise ValueError(f"period must be positive, got {period_ttis}")
        self.high_cqi = high_cqi
        self.low_cqi = low_cqi
        self.period_ttis = period_ttis
        self.start_high = start_high
        self.offset_ttis = offset_ttis

    def _current(self, tti: int) -> int:
        half = (tti + self.offset_ttis) // self.period_ttis
        first, second = ((self.high_cqi, self.low_cqi) if self.start_high
                         else (self.low_cqi, self.high_cqi))
        return first if half % 2 == 0 else second

    def sinr_db(self, tti: int, *, interference_active: bool = True) -> float:
        return cqi_to_sinr_floor(self._current(tti)) + 0.1

    def cqi(self, tti: int, *, interference_active: bool = True) -> int:
        return self._current(tti)


class TraceCqi(ChannelModel):
    """CQI follows an explicit (tti, cqi) step trace.

    The trace is a sequence of change points; the CQI holds its value
    until the next change point.  Times before the first change point
    use the first entry's CQI.
    """

    def __init__(self, trace: Sequence[Tuple[int, int]]) -> None:
        if not trace:
            raise ValueError("trace must contain at least one (tti, cqi) pair")
        self._trace: List[Tuple[int, int]] = sorted(
            (int(t), validate_cqi(c)) for t, c in trace)

    def _current(self, tti: int) -> int:
        current = self._trace[0][1]
        for t, c in self._trace:
            if t <= tti:
                current = c
            else:
                break
        return current

    def sinr_db(self, tti: int, *, interference_active: bool = True) -> float:
        return cqi_to_sinr_floor(self._current(tti)) + 0.1

    def cqi(self, tti: int, *, interference_active: bool = True) -> int:
        return self._current(tti)


class GaussMarkovSinr(ChannelModel):
    """Mean-reverting (Ornstein-Uhlenbeck style) SINR random walk.

    Produces realistic slow fading around a mean SINR.  Values are
    generated lazily per TTI and cached so repeated queries at the same
    TTI are consistent; queries must be (weakly) monotone in time.
    """

    def __init__(self, mean_sinr_db: float, *, sigma_db: float = 2.0,
                 reversion: float = 0.05, seed: int = 0) -> None:
        if not 0.0 < reversion <= 1.0:
            raise ValueError(f"reversion must be in (0, 1], got {reversion}")
        if sigma_db < 0:
            raise ValueError(f"sigma_db must be >= 0, got {sigma_db}")
        self.mean_sinr_db = float(mean_sinr_db)
        self.sigma_db = float(sigma_db)
        self.reversion = float(reversion)
        self._rng = np.random.default_rng(seed)
        self._last_tti = -1
        self._value = float(mean_sinr_db)
        # Standard-normal draws, taken from the generator a block at a
        # time (the stream is the scalar draws', element for element)
        # and scaled at use; ``_noise_next`` indexes the first unused.
        self._noise = array("d")
        self._noise_next = _NOISE_BLOCK

    def sinr_db(self, tti: int, *, interference_active: bool = True) -> float:
        steps = tti - self._last_tti
        if steps > 0:
            scale = self.sigma_db * math.sqrt(self.reversion)
            reversion = self.reversion
            mean = self.mean_sinr_db
            value = self._value
            noise = self._noise
            i = self._noise_next
            for _ in range(steps):
                if i == _NOISE_BLOCK:
                    noise = self._noise = array(
                        "d", self._rng.standard_normal(_NOISE_BLOCK))
                    i = 0
                value += reversion * (mean - value) + noise[i] * scale
                i += 1
            self._value = value
            self._noise_next = i
            self._last_tti = tti
        return self._value


class PathlossChannel(ChannelModel):
    """Log-distance pathloss channel for positioned UEs.

    Uses the 3GPP macro-cell model ``PL = 128.1 + 37.6 log10(d_km)`` and
    a UE position callback so mobility scenarios can move the UE.
    """

    def __init__(self, *, tx_power_dbm: float = 43.0,
                 bandwidth_hz: float = 9e6,
                 position_fn=None,
                 cell_xy: Tuple[float, float] = (0.0, 0.0),
                 ue_xy: Tuple[float, float] = (500.0, 0.0),
                 shadowing_db: float = 0.0, seed: int = 0) -> None:
        self.tx_power_dbm = tx_power_dbm
        self.cell_xy = cell_xy
        self._ue_xy = ue_xy
        self._position_fn = position_fn
        noise_dbm = (THERMAL_NOISE_DBM_PER_HZ + UE_NOISE_FIGURE_DB
                     + 10.0 * math.log10(bandwidth_hz))
        self._noise_dbm = noise_dbm
        self._shadowing_db = shadowing_db
        self._rng = np.random.default_rng(seed)
        self._shadow_cache: Dict[int, float] = {}

    def set_position(self, xy: Tuple[float, float]) -> None:
        """Move the UE (used when no position callback is installed)."""
        self._ue_xy = xy

    def _distance_km(self, tti: int) -> float:
        xy = self._position_fn(tti) if self._position_fn else self._ue_xy
        dx = xy[0] - self.cell_xy[0]
        dy = xy[1] - self.cell_xy[1]
        return max(0.01, math.hypot(dx, dy) / 1000.0)

    def _shadowing(self, tti: int) -> float:
        if self._shadowing_db <= 0:
            return 0.0
        # Shadowing is re-drawn once per 100 ms block (slow process).
        block = tti // 100
        if block not in self._shadow_cache:
            self._shadow_cache[block] = float(
                self._rng.normal(0.0, self._shadowing_db))
        return self._shadow_cache[block]

    def rsrp_dbm(self, tti: int) -> float:
        """Reference signal received power proxy (dBm)."""
        pathloss = 128.1 + 37.6 * math.log10(self._distance_km(tti))
        return self.tx_power_dbm - pathloss - self._shadowing(tti)

    def sinr_db(self, tti: int, *, interference_active: bool = True) -> float:
        return self.rsrp_dbm(tti) - self._noise_dbm


class InterferenceChannel(ChannelModel):
    """Two-state channel: SINR differs with the interferer on or off.

    This is the abstraction the eICIC use case needs: a small-cell UE in
    the range-expanded region sees a poor SINR while the macro transmits
    and a good SINR during Almost-Blank Subframes, and symmetrically for
    victim macro UEs near a small cell.
    """

    def __init__(self, sinr_clear_db: float, sinr_interfered_db: float) -> None:
        if sinr_interfered_db > sinr_clear_db:
            raise ValueError(
                "interfered SINR cannot exceed interference-free SINR "
                f"({sinr_interfered_db} > {sinr_clear_db})")
        self.sinr_clear_db = float(sinr_clear_db)
        self.sinr_interfered_db = float(sinr_interfered_db)

    def sinr_db(self, tti: int, *, interference_active: bool = True) -> float:
        return self.sinr_interfered_db if interference_active else self.sinr_clear_db


def channel_for_cqi(cqi: int) -> ChannelModel:
    """Convenience: a fixed channel that reports exactly *cqi*."""
    return FixedCqi(cqi)

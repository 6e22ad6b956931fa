"""Adaptive modulation and coding: the MCS error model.

Link adaptation uses the CQI the eNodeB *believes* the UE has as the
MCS.  When control is centralized and the control channel is slow,
that belief lags reality -- the mechanism behind the throughput decay
in the paper's Fig. 9 ("higher RTT delays make the information stored
in the RIB more outdated, leading to wrong scheduling decisions, e.g.
due to a bad modulation and coding scheme choice").

The model keeps MCS indexed by CQI (a standard simplification: 36.213's
CQI-to-MCS mapping is close to the identity in spectral-efficiency
terms) and expresses transmission errors as a function of how far the
selected MCS overshoots what the instantaneous channel supports.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lte.constants import CQI_MAX, CQI_MIN
from repro.lte.phy.cqi import validate_cqi

HARQ_COMBINING_GAIN = 0.35
"""Multiplicative error-probability reduction per HARQ retransmission
(chase combining)."""


@dataclass(frozen=True)
class ErrorModel:
    """BLER as a function of MCS overshoot and HARQ attempt.

    ``base_bler`` is the residual error floor when the MCS matches the
    channel (the 10% initial-BLER operating point of real LTE can be
    modelled by setting it to 0.1; the default 0.0 keeps fixed-channel
    experiments deterministic, which is how the paper's controlled
    experiments behave at the application level).
    """

    base_bler: float = 0.0
    one_step_bler: float = 0.55
    two_step_bler: float = 0.9

    def __post_init__(self) -> None:
        for name in ("base_bler", "one_step_bler", "two_step_bler"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")

    def error_probability(self, cqi_used: int, cqi_actual: int,
                          attempt: int = 1) -> float:
        """Probability that a transport block fails decoding.

        *cqi_used* is the MCS proxy the transmission was built with;
        *cqi_actual* is what the channel supports at transmission time;
        *attempt* counts HARQ transmissions (1 = initial).
        """
        if type(cqi_used) is not int or not CQI_MIN <= cqi_used <= CQI_MAX:
            validate_cqi(cqi_used)  # as in DlAssignment
        if type(cqi_actual) is not int or not (
                CQI_MIN <= cqi_actual <= CQI_MAX):
            validate_cqi(cqi_actual)
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        if cqi_used == 0:
            return 1.0
        diff = cqi_used - cqi_actual
        if diff <= 0:
            p = self.base_bler
        elif diff == 1:
            p = self.one_step_bler
        elif diff == 2:
            p = self.two_step_bler
        else:
            p = 1.0
        # HARQ chase combining: each retransmission accumulates energy.
        p *= HARQ_COMBINING_GAIN ** (attempt - 1)
        return p if p < 1.0 else 1.0


DEFAULT_ERROR_MODEL = ErrorModel()

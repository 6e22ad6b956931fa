"""Every CQI check on the transmit path still rejects a bad CQI.

``mac/amc.py`` and ``mac/dci.py`` settle a valid plain ``int`` inline
and hand anything else to ``validate_cqi``; ``phy/tbs.py`` indexes its
table after a range test only.  These cases pin where a bool, a float
and the two out-of-range ints raise ``ValueError``: everywhere except
the two table lookups, which take ``True`` as row 1 and fail a float
index with ``TypeError``.
"""

import pytest

from repro.lte.cell import CellConfig
from repro.lte.enodeb import EnodeB
from repro.lte.mac.amc import ErrorModel
from repro.lte.mac.dci import DlAssignment, UlGrant
from repro.lte.phy.channel import FixedCqi
from repro.lte.phy.tbs import prbs_needed, transport_block_bits
from repro.lte.ue import Ue

BAD = (True, 3.0, -1, 16)

CHECKS = {
    "DlAssignment": lambda cqi: DlAssignment(rnti=70, n_prb=1, cqi_used=cqi),
    "UlGrant": lambda cqi: UlGrant(rnti=70, n_prb=1, cqi_used=cqi),
    "error_probability(used)":
        lambda cqi: ErrorModel().error_probability(cqi, 5),
    "error_probability(actual)":
        lambda cqi: ErrorModel().error_probability(5, cqi),
    "transport_block_bits": lambda cqi: transport_block_bits(cqi, 5),
    "prbs_needed": lambda cqi: prbs_needed(cqi, 1000),
}

# (check, value) pairs that do not raise ValueError.
NOT_VALUE_ERRORS = {("transport_block_bits", True), ("transport_block_bits", 3.0),
                    ("prbs_needed", True), ("prbs_needed", 3.0)}


@pytest.mark.parametrize("cqi", BAD, ids=repr)
@pytest.mark.parametrize("name", CHECKS)
def test_a_bad_cqi_raises_where_it_always_did(name, cqi):
    if (name, cqi) in NOT_VALUE_ERRORS:
        try:
            CHECKS[name](cqi)
        except ValueError:  # pragma: no cover - the failure being tested
            pytest.fail(f"{name}({cqi!r}) raised ValueError")
        except TypeError:
            pass
    else:
        with pytest.raises(ValueError):
            CHECKS[name](cqi)


@pytest.mark.parametrize("name", CHECKS)
def test_every_valid_cqi_passes(name):
    for cqi in range(1, 16):
        CHECKS[name](cqi)


class FlipsTo16(FixedCqi):
    """A channel that reports 16, an impossible CQI, once flipped."""

    time_invariant = False
    flipped = False

    def cqi(self, tti, *, interference_active=True):
        return 16 if self.flipped else super().cqi(tti)


def test_an_impossible_actual_cqi_fails_the_transmit_pass():
    enb = EnodeB(1, [CellConfig(cell_id=10)])
    channel = FlipsTo16(9)
    rnti = enb.attach_ue(Ue("001", channel), 10, tti=0)
    for tti in range(40):
        enb.tick(tti)
    enb.enqueue_dl(rnti, 5000, 40)
    enb.plan(40)
    assert enb._plan_dl[10], "the UE is scheduled"
    channel.flipped = True  # the block meets the channel it was not sized for
    with pytest.raises(ValueError):
        enb.transmit(40)

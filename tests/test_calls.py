"""The call counter every ceiling reads (``tests/calls.py``) counts what
it guards: a built-in counts for its caller's layer, and a draw from a
generator it exposed is a call.  ``tests/obs/test_off_costs_no_call.py``'s
``test_on_enters_obs_frames`` is the control on a whole run."""

import numpy as np

from repro.lte.enodeb import EnodeB
from tests.calls import count, expose_draws


def test_a_builtin_counts_for_its_callers_layer():
    enb = EnodeB(1)
    calls = count(enb.rntis)  # EnodeB.rntis returns sorted(...)
    assert calls.functions() == {"lte/enodeb.py:EnodeB.rntis": 1}
    assert calls.builtins() == {"<built-in method builtins.sorted>": 1}
    assert calls.layers() == {"lte": 2}

    def outside():
        return sorted(enb.rntis())

    assert count(outside).layers() == {"other": 2, "lte": 2}


class Holder:
    def __init__(self) -> None:
        self.draws_from = np.random.default_rng(5)
        self.label = "kept"

    def draw(self) -> float:
        return self.draws_from.random()


def test_a_draw_is_a_call_once_exposed():
    holder, reference = Holder(), np.random.default_rng(5)
    assert count(holder.draw).total == 1  # the Cython draw is not seen
    expose_draws(holder)
    calls = count(holder.draw)
    assert calls.total == 2 and calls.layers() == {"other": 2}
    assert holder.label == "kept"
    # The same stream: the first draw above, then the proxy's.
    assert [holder.draw() for _ in range(3)] == reference.random(5)[2:].tolist()

#!/usr/bin/env python3
"""HetNet interference management: the three Fig. 10 modes.

Section 6.1's two-cell HetNet: a macro cell and a range-expanded small
cell interfere with each other, so every UE is a victim.  The network
throughput is compared across the three modes:

* ``uncoordinated``: both cells schedule locally, no coordination;
* ``eicic``: static almost-blank subframes, configured at each cell
  without central coordination (what an X2 deployment would do);
* ``optimized``: the master's eICIC app pushes the ABS pattern and the
  macro's scheduler over the FlexRAN protocol.

Run:  python examples/hetnet_eicic.py
"""

from repro.sim.metrics import goodput_mbps
from repro.sim.scenarios import EICIC_MODES, hetnet_eicic

RUN_TTIS = 6000


def main() -> None:
    print("HetNet interference management (Fig 10):")
    for mode in EICIC_MODES:
        scenario = hetnet_eicic(mode)
        scenario.sim.run(RUN_TTIS)
        ues = [*scenario.macro_ues, scenario.small_ue]
        total = sum(goodput_mbps(u.meter.total_bytes, RUN_TTIS) for u in ues)
        print(f"  {mode:<14} network throughput: {total:5.2f} Mb/s")


if __name__ == "__main__":
    main()

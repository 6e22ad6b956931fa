"""Reference oracle for ``EnodeB.build_context``.

:func:`reference_context` is the uncached builder: it rebuilds every
``UeView`` from the protocol entities (RLC, DRX, RRC, the cell) on every
call, with no memory between calls, so it cannot go stale.  It is kept
only here, as the definition the eNodeB's view cache is checked
against.  :func:`install` wraps ``EnodeB.build_context`` so that every
context handed to a scheduler is compared with the reference field by
field at the moment it is built; an entity anywhere in ``src/`` that
changes a view's input without recording it then fails the test that
exercised it, naming the UE and the field.
"""

from dataclasses import dataclass, field, fields
from typing import List

import pytest

from repro.lte.constants import SUBFRAMES_PER_FRAME
from repro.lte.enodeb import EnodeB
from repro.lte.mac.dci import SchedulingContext, UeView
from repro.lte.rrc import RrcState

UE_VIEW_FIELDS = tuple(f.name for f in fields(UeView))
"""Every field of the view is compared; a new field is covered the day
it is added."""

_CONTEXT_FIELDS = ("tti", "n_prb", "cell_id", "subframe", "abs_subframe",
                  "pending_retx", "bearer_qos")


def reference_context(enb: EnodeB, cell_id: int, tti: int
                      ) -> SchedulingContext:
    """The scheduling context of *cell_id* at *tti*, built from scratch."""
    cell = enb.cells[cell_id]
    views = []
    for rnti in cell.rntis():
        if enb.rrc.context(rnti).state not in (RrcState.CONNECTING,
                                               RrcState.CONNECTED):
            continue
        if not enb.drx.is_awake(rnti, tti):
            continue  # sleeping UEs cannot be scheduled
        ue = cell.ues[rnti]
        queues = enb.rlc[rnti].queues.sizes()
        views.append(UeView(
            rnti=rnti,
            queue_bytes=sum(queues.values()),
            cqi=cell.scheduling_cqi(rnti, tti),
            labels=ue.labels,
            ul_buffer_bytes=ue.ul_backlog_bytes,
            queues=queues,
        ))
    view_rntis = {v.rnti for v in views}
    return SchedulingContext(
        tti=tti, n_prb=cell.n_prb, ues=views,
        pending_retx=enb.harq[cell_id].all_pending_retx(tti),
        cell_id=cell_id, subframe=tti % SUBFRAMES_PER_FRAME,
        abs_subframe=cell.is_muted(tti),
        bearer_qos={key: profile for key, profile in enb.bearer_qos.items()
                    if key[0] in view_rntis})


def context_mismatches(got: SchedulingContext, want: SchedulingContext
                       ) -> List[str]:
    """Human-readable differences between a context and the reference."""
    where = f"cell {want.cell_id} tti {want.tti}"
    out = []
    for name in _CONTEXT_FIELDS:
        if getattr(got, name) != getattr(want, name):
            out.append(f"{where}: {name} {getattr(got, name)!r} "
                       f"!= reference {getattr(want, name)!r}")
    got_rntis = [v.rnti for v in got.ues]
    want_rntis = [v.rnti for v in want.ues]
    if got_rntis != want_rntis:
        out.append(f"{where}: ues {got_rntis} != reference {want_rntis}")
    want_by_rnti = {v.rnti: v for v in want.ues}
    for view in got.ues:
        ref = want_by_rnti.get(view.rnti)
        if ref is None:
            continue
        for name in UE_VIEW_FIELDS:
            if getattr(view, name) != getattr(ref, name):
                out.append(
                    f"{where}: UE {view.rnti} {name} "
                    f"{getattr(view, name)!r} != reference "
                    f"{getattr(ref, name)!r}")
    for name, got_list, want_list in (
            ("backlogged()", got.backlogged(), want.backlogged()),
            ("candidates()", got.candidates(), want.candidates())):
        if [v.rnti for v in got_list] != [v.rnti for v in want_list]:
            out.append(f"{where}: {name} order "
                       f"{[v.rnti for v in got_list]} != reference "
                       f"{[v.rnti for v in want_list]}")
    return out


@dataclass
class OracleLog:
    """What the installed oracle saw during one test."""

    calls: int = 0
    mismatches: List[str] = field(default_factory=list)


def install(monkeypatch) -> OracleLog:
    """Check every ``build_context`` call of the test against the oracle.

    A mismatch raises at the call; it is also kept in the returned log,
    so a test (or fixture teardown) still sees one that a supervised
    caller swallowed.
    """
    cached_build = EnodeB.build_context
    log = OracleLog()

    def checked_build(enb, cell_id, tti):
        ctx = cached_build(enb, cell_id, tti)
        log.calls += 1
        found = context_mismatches(ctx, reference_context(enb, cell_id, tti))
        if found:
            log.mismatches.extend(found)
            raise AssertionError(
                "build_context disagrees with the reference builder:\n"
                + "\n".join(found))
        return ctx

    monkeypatch.setattr(EnodeB, "build_context", checked_build)
    return log


@pytest.fixture(autouse=True)
def build_context_oracle(monkeypatch):
    """Autouse in ``tests/lte`` and ``tests/sim`` (imported by their
    conftests): every RAN test is a differential test."""
    log = install(monkeypatch)
    yield log
    assert not log.mismatches, "\n".join(log.mismatches)

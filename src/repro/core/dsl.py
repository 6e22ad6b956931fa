"""A declarative scheduling DSL: technology-agnostic VSF definitions.

Section 7.3 of the paper: pushed VSF code must be "compiled against
the processor architecture of the target agent", and "introducing a
high-level domain-specific language that would make the development of
VSFs technology-agnostic would greatly simplify this process".  This
module is that DSL: a scheduler is described as *data* — an ordered
rule list — that any agent can interpret, regardless of architecture.
The spec travels inside the ordinary VSF-update blob (factory
``dsl:scheduler``), so delegation, caching, swapping and sandboxing
all apply unchanged.

A program is a list of rules evaluated top-down each TTI::

    [
      {"when": {"subframe_in": [1, 3, 5, 7]}, "serve": "nobody"},
      {"when": {"label": {"operator": "mvno"}}, "share": 0.3,
       "policy": "fair_share"},
      {"share": 0.7, "policy": "proportional_fair"},
    ]

Semantics:

* ``when`` guards a rule.  Supported predicates: ``subframe_in``
  (list of subframes 0-9), ``label`` (all given UE labels must match;
  the rule then applies only to matching UEs), ``min_queue_bytes``.
  A rule without ``when`` always applies.
* The first matching ``serve: nobody`` rule mutes the whole TTI
  (eICIC-style gating).
* Every other matching rule claims ``share`` of the carrier (default:
  whatever remains) for the UEs it selects and schedules them with
  ``policy`` (any name in the scheduler registry; default
  ``fair_share``).
* A UE is consumed by the first rule that selects it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.lte.constants import SUBFRAMES_PER_FRAME
from repro.lte.mac.dci import DlAssignment, SchedulingContext, UeView
from repro.lte.mac.schedulers import (
    Scheduler,
    make_scheduler,
    schedule_retransmissions,
)


class DslError(ValueError):
    """A DSL program is malformed."""


_ALLOWED_RULE_KEYS = {"when", "serve", "share", "policy"}
_ALLOWED_WHEN_KEYS = {"subframe_in", "label", "min_queue_bytes"}


def validate_program(rules: Sequence[Dict[str, Any]]) -> None:
    """Raise :class:`DslError` unless *rules* is a valid program."""
    if not isinstance(rules, (list, tuple)) or not rules:
        raise DslError("a DSL program is a non-empty list of rules")
    for index, rule in enumerate(rules):
        if not isinstance(rule, dict):
            raise DslError(f"rule {index} is not a mapping")
        unknown = set(rule) - _ALLOWED_RULE_KEYS
        if unknown:
            raise DslError(f"rule {index}: unknown keys {sorted(unknown)}")
        when = rule.get("when", {})
        if not isinstance(when, dict):
            raise DslError(f"rule {index}: 'when' must be a mapping")
        bad = set(when) - _ALLOWED_WHEN_KEYS
        if bad:
            raise DslError(f"rule {index}: unknown predicates {sorted(bad)}")
        if "subframe_in" in when:
            sfs = when["subframe_in"]
            if not isinstance(sfs, (list, tuple)) or any(
                    not isinstance(s, int) or not 0 <= s < SUBFRAMES_PER_FRAME
                    for s in sfs):
                raise DslError(
                    f"rule {index}: subframe_in must list subframes 0-9")
        if "serve" in rule and rule["serve"] != "nobody":
            raise DslError(f"rule {index}: serve only supports 'nobody'")
        if "share" in rule:
            share = rule["share"]
            if not isinstance(share, (int, float)) or not 0 < share <= 1:
                raise DslError(f"rule {index}: share must be in (0, 1]")
        if "policy" in rule:
            policy = rule["policy"]
            try:
                make_scheduler(policy)
            except ValueError as exc:
                raise DslError(f"rule {index}: {exc}") from exc


def _rule_matches_tti(rule: Dict[str, Any], ctx: SchedulingContext) -> bool:
    when = rule.get("when", {})
    if "subframe_in" in when and ctx.subframe not in when["subframe_in"]:
        return False
    return True


def _rule_selects_ue(rule: Dict[str, Any], ue: UeView) -> bool:
    when = rule.get("when", {})
    labels = when.get("label", {})
    for key, value in labels.items():
        if ue.labels.get(key) != value:
            return False
    if "min_queue_bytes" in when and ue.queue_bytes < when["min_queue_bytes"]:
        return False
    return True


class DslScheduler(Scheduler):
    """Interprets a DSL program as a downlink scheduling VSF.

    The program is a public parameter, so the master can rewrite the
    rules at runtime via policy reconfiguration — the declarative
    analogue of pushing new compiled code.
    """

    name = "dsl"

    def __init__(self, rules: Sequence[Dict[str, Any]]) -> None:
        super().__init__()
        validate_program(rules)
        self.parameters = {"rules": [dict(r) for r in rules]}
        self._inner_cache: Dict[int, Scheduler] = {}

    def set_parameter(self, name: str, value: Any) -> None:
        if name == "rules":
            validate_program(value)
            self._inner_cache.clear()
        super().set_parameter(name, value)

    def _inner(self, index: int, policy: str) -> Scheduler:
        if index not in self._inner_cache:
            self._inner_cache[index] = make_scheduler(policy)
        return self._inner_cache[index]

    def schedule(self, ctx: SchedulingContext) -> List[DlAssignment]:
        rules: List[Dict[str, Any]] = self.parameters["rules"]
        out = schedule_retransmissions(ctx, ctx.n_prb)
        remaining = ctx.n_prb - sum(a.n_prb for a in out)
        taken = {a.rnti for a in out}
        for index, rule in enumerate(rules):
            if not _rule_matches_tti(rule, ctx):
                continue
            if rule.get("serve") == "nobody":
                return out  # the TTI is gated off (e.g. an ABS)
            selected = [u for u in ctx.ues
                        if u.rnti not in taken and _rule_selects_ue(rule, u)]
            if not selected or remaining <= 0:
                for u in selected:
                    taken.add(u.rnti)  # consumed even if nothing to give
                continue
            share = rule.get("share")
            quota = (remaining if share is None
                     else min(remaining, int(round(share * ctx.n_prb))))
            if quota <= 0:
                continue
            inner = self._inner(index, rule.get("policy", "fair_share"))
            sub = SchedulingContext(
                tti=ctx.tti, n_prb=quota, ues=selected, pending_retx=[],
                cell_id=ctx.cell_id, subframe=ctx.subframe,
                abs_subframe=ctx.abs_subframe)
            produced = inner.schedule(sub)
            out.extend(produced)
            remaining -= sum(a.n_prb for a in produced)
            for u in selected:
                taken.add(u.rnti)
        return out

"""Widening fixpoint over the elaborated design's write sites.

The solver assigns every numeric signal an :class:`AbstractValue`
describing its committed values, starting from the reset value and joining
the (masked) abstract value of every resolved write site until the
assignment stabilizes.  Joins per signal are counted; after
:data:`WIDEN_AFTER` changes the signal widens straight to its full width,
which bounds the fixpoint at a handful of rounds even through counter
feedback loops.

Soundness policy (the zero-false-positive contract):

* a signal is *tracked* only when every driver attributed to it is
  analyzable — any ``force``/``warp`` site, any opaque writer, or a
  missing write expression drops it to TOP(width);
* a process whose write set may be incomplete (``write_opaque``)
  contaminates the components it provably touches: every signal owned by
  its own component or by a component it already writes goes TOP.  (The
  chain model roots writes at ``self`` and bound ports, so an
  unattributable write lands in exactly those components.)
* undriven signals are external inputs: TOP;
* attribute-derived constants are rejected when any process mutates that
  attribute (``design.mutated_attrs``) or rebinds that global.

Width bounds themselves (`0 <= v <= mask`) hold unconditionally — every
kernel write path masks — which is what lets the narrow vector lanes
(:func:`repro.smem.array.lane_dtype`) rest on width-only facts even under
fault injection.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from ...hdl.signal import Signal
from . import domain
from .domain import AbstractValue
from .transfer import eval_expr, expr_signals, width_only

#: per-signal joins tolerated before widening to TOP(width)
WIDEN_AFTER = 3

#: hard ceiling on fixpoint rounds (reached only by pathological designs;
#: every still-unstable signal is then widened)
MAX_ROUNDS = 32


@dataclass
class SiteFact:
    """One write site with its proven pre- and post-mask value ranges."""

    rec: object  # ProcRecord
    site: object  # ResolvedWrite
    target: Signal
    #: abstract value of the written expression *before* the kernel's
    #: width mask — None when the expression is outside the model
    pre: Optional[AbstractValue]
    #: committed contribution (pre masked to the target width)
    post: AbstractValue


@dataclass
class BranchFact:
    """One ``if`` guard with its proven truthiness."""

    rec: object  # ProcRecord
    line: int
    expr: tuple
    #: True = provably always taken, False = provably never, None = unknown
    verdict: Optional[bool]
    #: the test reads at least one signal (config-constant guards are
    #: deliberate mode gating, not dataflow defects)
    signal_dependent: bool


@dataclass
class DataflowResult:
    """The fixpoint and everything the rules derive from it."""

    values: dict = field(default_factory=dict)  # Signal -> AbstractValue
    tracked: set = field(default_factory=set)  # signals with tight ranges
    site_facts: list = field(default_factory=list)  # [SiteFact]
    branch_facts: list = field(default_factory=list)  # [BranchFact]
    widened: set = field(default_factory=set)  # signals that hit WIDEN_AFTER
    rounds: int = 0
    wall_ms: float = 0.0

    def value_of(self, sig: Signal) -> Optional[AbstractValue]:
        return self.values.get(sig)


def analyze_design(design) -> DataflowResult:
    """Run (or fetch the memoized) dataflow fixpoint for a lint design."""
    cached = getattr(design, "_dataflow_result", None)
    if cached is not None:
        return cached
    result = _solve(design)
    design._dataflow_result = result
    return result


def analyze(target, sim=None, probe: bool = True) -> DataflowResult:
    """Convenience entry: elaborate ``target`` and solve it."""
    from ..lint.engine import _resolve_target
    from ..lint.model import build_design

    top, sim = _resolve_target(target, sim)
    return analyze_design(build_design(top, sim=sim, probe=probe))


def _solve(design) -> DataflowResult:
    t0 = time.perf_counter()
    result = DataflowResult()

    numeric = [s for s in design.signals if s.width is not None]
    sig_set = set(numeric)

    # -- gather per-signal write sites and disqualifiers ---------------------
    sites: dict = {s: [] for s in numeric}
    forced: set = set()
    for rec in design.procs:
        for site in rec.sites:
            if site.kind in ("force", "warp"):
                for t in site.targets:
                    if t in sig_set:
                        forced.add(t)
                continue
            for t in site.targets:
                if t in sig_set:
                    sites[t].append((rec, site))

    # components contaminated by write-opaque processes
    tainted_comps: set = set()
    for rec in design.procs:
        if rec.write_opaque:
            tainted_comps.add(id(rec.comp))
            for sig in list(rec.writes) + list(rec.stages):
                owner = getattr(sig, "owner", None)
                if owner is not None:
                    tainted_comps.add(id(owner))

    mutated_keys = set(design.mutated_attrs)
    rebound_globals: set = set()
    for rec in design.procs:
        rebound_globals.update(rec.nonlocal_stores)

    def attr_ok(owner: object, name: str) -> bool:
        if owner is None:
            return name not in rebound_globals
        return (id(owner), name) not in mutated_keys

    # -- decide tracked vs TOP ----------------------------------------------
    values: dict = {}
    tracked: set = set()
    for s in numeric:
        width = s.width
        if (
            s in forced
            or not design.drivers_of(s)
            or id(getattr(s, "owner", None)) in tainted_comps
        ):
            values[s] = domain.top(width)
            continue
        covered = {id(st) for _, st in sites[s]}
        modelable = bool(covered)
        for rec, mode in design.drivers_of(s):
            if rec.write_opaque:
                modelable = False
                break
            rec_site_ids = {
                id(st) for st in rec.sites if s in st.targets
            }
            if not rec_site_ids:
                # probe/kernel saw a write the AST pass didn't attribute
                modelable = False
                break
        if not modelable:
            values[s] = domain.top(width)
            continue
        tracked.add(s)
        values[s] = domain.const(s.reset)

    def sig_value(sig) -> Optional[AbstractValue]:
        av = values.get(sig)
        # out-of-design signal: its width bound still holds
        return av if av is not None else width_only(sig)

    # -- fixpoint -------------------------------------------------------------
    joins: dict = {s: 0 for s in tracked}
    rounds = 0
    pending = set(tracked)
    while pending and rounds < MAX_ROUNDS:
        rounds += 1
        changed: set = set()
        for s in list(pending):
            new = domain.const(s.reset)
            mask = s._mask
            for rec, site in sites[s]:
                pre = eval_expr(site.expr, sig_value, attr_ok)
                contrib = (
                    domain.apply_mask(pre, mask)
                    if pre is not None
                    else domain.top(s.width)
                )
                new = domain.join(new, contrib)
            new = domain.join(values[s], new)  # monotone ascent
            if new != values[s]:
                joins[s] += 1
                if joins[s] > WIDEN_AFTER:
                    new = domain.top(s.width)
                    result.widened.add(s)
                values[s] = new
                changed.add(s)
        if not changed:
            break
        # recompute every tracked signal whose sites read a changed one —
        # cheap enough at design scale to approximate with "all tracked"
        pending = set(tracked)
    else:
        for s in tracked:  # ceiling hit: widen the stragglers
            values[s] = domain.top(s.width)
            result.widened.add(s)

    # -- narrowing ------------------------------------------------------------
    # Widening overshoots saturating counters straight to TOP; a couple of
    # decreasing iterations from the post-fixpoint recover the tight bound
    # (sound: every accepted value still contains a fixpoint of the
    # monotone site-join transfer).
    for _ in range(2):
        shrunk = False
        for s in tracked:
            new = domain.const(s.reset)
            mask = s._mask
            for rec, site in sites[s]:
                pre = eval_expr(site.expr, sig_value, attr_ok)
                contrib = (
                    domain.apply_mask(pre, mask)
                    if pre is not None
                    else domain.top(s.width)
                )
                new = domain.join(new, contrib)
            if new != values[s] and domain.contains(values[s], new):
                values[s] = new
                shrunk = True
        if not shrunk:
            break

    # -- derived facts --------------------------------------------------------
    for rec in design.procs:
        for site in rec.sites:
            if site.kind in ("force", "warp"):
                continue
            pre = eval_expr(site.expr, sig_value, attr_ok)
            for t in site.targets:
                if t not in sig_set:
                    continue
                post = (
                    domain.apply_mask(pre, t._mask)
                    if pre is not None
                    else domain.top(t.width)
                )
                result.site_facts.append(
                    SiteFact(rec=rec, site=site, target=t, pre=pre, post=post)
                )
        for line, bexpr in rec.branches:
            av = eval_expr(bexpr, sig_value, attr_ok)
            verdict = av.truthiness() if av is not None else None
            result.branch_facts.append(
                BranchFact(
                    rec=rec,
                    line=line,
                    expr=bexpr,
                    verdict=verdict,
                    signal_dependent=bool(expr_signals(bexpr)),
                )
            )

    result.values = values
    result.tracked = tracked
    result.rounds = rounds
    result.wall_ms = (time.perf_counter() - t0) * 1000.0
    return result


__all__ = [
    "BranchFact",
    "DataflowResult",
    "SiteFact",
    "analyze",
    "analyze_design",
    "WIDEN_AFTER",
]

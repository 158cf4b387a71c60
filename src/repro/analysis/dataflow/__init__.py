"""Whole-design value/width dataflow analysis.

Abstract interpretation over the elaborated component/signal graph: every
numeric :class:`~repro.hdl.signal.Signal` is assigned an abstract value in
a product domain (integer interval × known-bits mask), computed as a
widening fixpoint over the resolved write sites the lint AST pass
(:mod:`repro.analysis.lint.astpass`) extracts from every process.

The fixpoint feeds the ``dataflow.*`` lint rule family
(:mod:`repro.analysis.lint.rules_dataflow`) — width-overflow and
truncation proofs, constant signals, dead branches, unreachable microcode
rows and rename-pool sizing.  The domain's *width-only* lane rule
(:func:`vector_width_bits`) also sizes the narrower numpy dtypes of the
vectorized cell arrays (:func:`repro.smem.array.lane_dtype`): width
bounds survive fault injection and checkpoint forces, which is why the
lanes never rest on the tighter fixpoint ranges.
"""

from .domain import AbstractValue, vector_width_bits
from .solver import DataflowResult, SiteFact, analyze_design, analyze

__all__ = [
    "AbstractValue",
    "DataflowResult",
    "SiteFact",
    "analyze",
    "analyze_design",
    "vector_width_bits",
]

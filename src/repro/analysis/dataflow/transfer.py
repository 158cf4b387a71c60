"""Abstract evaluation of resolved value expressions.

The lint AST pass attaches a *resolved* symbolic tree to every write site
and ``if`` guard it can model (see
:data:`repro.analysis.lint.astpass.Expr`); this module evaluates such a
tree over the abstract domain.  Evaluation is parameterized by two
callbacks so the solver controls the leaf policy:

* ``sig_value(sig)`` — abstract value of a signal read (``None`` marks the
  read unmodelable, which poisons the whole tree);
* ``attr_ok(owner, name)`` — whether an attribute-derived constant may
  be trusted (the solver rejects attributes some process mutates).

The lint solver supplies its fixpoint values as ``sig_value`` and falls
back to :func:`width_only` for signals outside the design — such a read
is only known to lie inside its declared width, a bound every kernel
write path enforces unconditionally.

A ``None`` result always means *unknown shape*, never *empty set*.
"""

from __future__ import annotations

from typing import Callable, Optional

from ...hdl.signal import mask_for
from . import domain
from .domain import BOOL, AbstractValue

_BIN_OPS = {
    "+": domain.add,
    "-": domain.sub,
    "*": domain.mul,
    "//": domain.floordiv,
    "%": domain.mod,
    "**": domain.power,
    "<<": domain.lshift,
    ">>": domain.rshift,
    "&": domain.bitand,
    "|": domain.bitor,
    "^": domain.bitxor,
}

SigValue = Callable[[object], Optional[AbstractValue]]
AttrOk = Callable[[object, str], bool]


def width_only(sig: object) -> Optional[AbstractValue]:
    """Leaf policy trusting nothing but a signal's declared width."""
    width = getattr(sig, "width", None)
    return None if width is None else domain.top(width)


def eval_expr(
    expr: Optional[tuple],
    sig_value: SigValue,
    attr_ok: Optional[AttrOk] = None,
) -> Optional[AbstractValue]:
    """Abstract value of a resolved expression tree, or None if opaque."""
    if expr is None:
        return None
    tag = expr[0]
    if tag == "const":
        return domain.const(expr[1])
    if tag == "attr":
        _, v, owner, name = expr
        if attr_ok is not None and not attr_ok(owner, name):
            return None
        return domain.const(v)
    if tag == "sig":
        return sig_value(expr[1])
    if tag == "bit":
        sv = sig_value(expr[1])
        if sv is None:
            return None
        return domain.bitand(
            domain.rshift(sv, domain.const(expr[2])), domain.const(1)
        )
    if tag == "bits":
        sv = sig_value(expr[1])
        if sv is None:
            return None
        _, _, hi, lo = expr
        if hi < lo:
            return None
        return domain.bitand(
            domain.rshift(sv, domain.const(lo)),
            domain.const(mask_for(hi - lo + 1)),
        )
    if tag == "bin":
        fn = _BIN_OPS.get(expr[1])
        if fn is None:
            return None
        left = eval_expr(expr[2], sig_value, attr_ok)
        right = eval_expr(expr[3], sig_value, attr_ok)
        if left is None or right is None:
            return None
        return fn(left, right)
    if tag == "un":
        x = eval_expr(expr[2], sig_value, attr_ok)
        if x is None:
            return None
        if expr[1] == "-":
            return domain.neg(x)
        if expr[1] == "+":
            return x
        if expr[1] == "~":
            return domain.invert(x)
        if expr[1] == "not":
            return domain.logical_not(x)
        return None
    if tag == "cmp":
        left = eval_expr(expr[2], sig_value, attr_ok)
        right = eval_expr(expr[3], sig_value, attr_ok)
        if left is None or right is None:
            return None
        return domain.compare(expr[1], left, right)
    if tag == "bool":
        arms = [eval_expr(a, sig_value, attr_ok) for a in expr[2]]
        if any(a is None for a in arms):
            return None
        # the result is always one of the operand values, so the join is
        # sound; short-circuit facts tighten it
        acc = arms[0]
        for a in arms[1:]:
            acc = domain.join(acc, a)
        truths = [a.truthiness() for a in arms]
        if expr[1] == "and":
            if any(t is False for t in truths):
                return domain.const(0)  # some arm is provably 0 → result 0
            if all(t is True for t in truths):
                return arms[-1]
        else:  # "or"
            if truths[0] is True:
                return arms[0]
            if all(t is False for t in truths):
                return domain.const(0)
        return acc
    if tag == "ifexp":
        test = eval_expr(expr[1], sig_value, attr_ok)
        body = eval_expr(expr[2], sig_value, attr_ok)
        orelse = eval_expr(expr[3], sig_value, attr_ok)
        if test is None or body is None or orelse is None:
            return None
        t = test.truthiness()
        if t is True:
            return body
        if t is False:
            return orelse
        return domain.join(body, orelse)
    if tag == "call":
        args = [eval_expr(a, sig_value, attr_ok) for a in expr[2]]
        if any(a is None for a in args):
            return None
        name = expr[1]
        if name == "min":
            return domain.minimum(args)
        if name == "max":
            return domain.maximum(args)
        if name == "abs":
            return domain.absolute(args[0])
        if name == "int":
            return args[0]
        if name == "bool":
            t = args[0].truthiness()
            return BOOL if t is None else domain.const(int(t))
        return None
    return None


def expr_signals(expr: Optional[tuple]) -> set:
    """Every Signal object a resolved expression tree reads."""
    sigs: set = set()
    _collect(expr, sigs)
    return sigs


def _collect(expr: Optional[tuple], sigs: set) -> None:
    if expr is None:
        return
    tag = expr[0]
    if tag in ("sig", "bit", "bits"):
        sigs.add(expr[1])
        return
    if tag in ("const", "attr"):
        return
    if tag == "bin" or tag == "cmp":
        _collect(expr[2], sigs)
        _collect(expr[3], sigs)
    elif tag == "un":
        _collect(expr[2], sigs)
    elif tag == "bool" or tag == "call":
        for a in expr[2]:
            _collect(a, sigs)
    elif tag == "ifexp":
        for a in expr[1:]:
            _collect(a, sigs)


__all__ = ["eval_expr", "expr_signals", "width_only"]

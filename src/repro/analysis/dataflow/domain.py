"""The abstract value domain: integer interval × known-bits mask.

An :class:`AbstractValue` describes the set of concrete integers a signal
(or an intermediate expression) may hold:

* ``lo <= x <= hi`` — the interval component, over plain Python ints so
  pre-mask overflow amounts are representable exactly;
* when ``lo >= 0``, ``(x & kmask) == kval`` — the known-bits component,
  tracked over the low :data:`KNOWN_BITS` bits.  Bitwise operators refine
  it (``x & 0xF0`` proves the low nibble zero); arithmetic drops it.
  Negative intervals carry no known bits.

Magnitudes are saturated at :data:`LIMIT` so a widening loop over
multiplications cannot balloon into bignum territory; saturation only ever
*loses* precision, never soundness.
"""

from __future__ import annotations

from dataclasses import dataclass

#: known-bits are tracked over this many low bits (covers every shipped width)
KNOWN_BITS = 64
_KMASK_ALL = (1 << KNOWN_BITS) - 1

#: interval magnitude saturation bound
LIMIT = 1 << 128


def _sat(v: int) -> int:
    if v > LIMIT:
        return LIMIT
    if v < -LIMIT:
        return -LIMIT
    return v


@dataclass(frozen=True)
class AbstractValue:
    """One abstract integer: interval ``[lo, hi]`` × known bits."""

    lo: int
    hi: int
    kmask: int = 0  # bits (within KNOWN_BITS) whose value is proven
    kval: int = 0   # their proven values (kval & kmask == kval)

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    # -- predicates ----------------------------------------------------------

    @property
    def is_const(self) -> bool:
        return self.lo == self.hi

    def fits(self, mask: int) -> bool:
        """Every value lies inside ``[0, mask]`` — no masking required."""
        return self.lo >= 0 and self.hi <= mask

    def truthiness(self) -> "bool | None":
        """True = provably nonzero, False = provably zero, None = unknown."""
        if self.lo == 0 and self.hi == 0:
            return False
        if self.lo > 0 or self.hi < 0:
            return True
        if self.lo >= 0 and (self.kval & self.kmask):
            return True  # some low bit proven set
        return None


def const(v: int) -> AbstractValue:
    v = _sat(int(v))
    if 0 <= v <= _KMASK_ALL:
        return AbstractValue(v, v, _KMASK_ALL, v)
    return AbstractValue(v, v)


def interval(lo: int, hi: int) -> AbstractValue:
    lo, hi = _sat(lo), _sat(hi)
    if lo == hi:
        return const(lo)
    return AbstractValue(lo, hi, *_known_from_interval(lo, hi))


def top(width: int) -> AbstractValue:
    """Any value a ``width``-bit signal can hold (normal form, so joins
    against it are idempotent)."""
    return _normalize(0, (1 << width) - 1)


def contains(outer: AbstractValue, inner: AbstractValue) -> bool:
    """True when every concretization of ``inner`` lies in ``outer``."""
    if inner.lo < outer.lo or inner.hi > outer.hi:
        return False
    known_both = outer.kmask & inner.kmask
    if known_both != outer.kmask:
        return False  # outer knows a bit inner does not
    return (outer.kval ^ inner.kval) & outer.kmask == 0


BOOL = AbstractValue(0, 1)


def _known_from_interval(lo: int, hi: int) -> tuple[int, int]:
    """High bits forced zero by a small non-negative interval."""
    if lo < 0:
        return 0, 0
    if hi <= _KMASK_ALL:
        known_zero_high = _KMASK_ALL & ~((1 << hi.bit_length()) - 1)
        return known_zero_high, 0
    return 0, 0


def _normalize(lo: int, hi: int, kmask: int = 0, kval: int = 0) -> AbstractValue:
    lo, hi = _sat(lo), _sat(hi)
    if lo < 0:
        kmask, kval = 0, 0
    zm, zv = _known_from_interval(lo, hi)
    kmask |= zm
    kval = (kval | zv) & kmask
    # tighten a constant proven by known bits
    if kmask == _KMASK_ALL and 0 <= lo and hi <= _KMASK_ALL:
        return AbstractValue(kval, kval, kmask, kval)
    return AbstractValue(lo, hi, kmask, kval)


# -- lattice ------------------------------------------------------------------


def join(a: AbstractValue, b: AbstractValue) -> AbstractValue:
    agree = a.kmask & b.kmask & ~(a.kval ^ b.kval)
    return _normalize(
        min(a.lo, b.lo), max(a.hi, b.hi), agree, a.kval & agree
    )


# -- transfer functions -------------------------------------------------------


def add(a: AbstractValue, b: AbstractValue) -> AbstractValue:
    return _normalize(a.lo + b.lo, a.hi + b.hi)


def sub(a: AbstractValue, b: AbstractValue) -> AbstractValue:
    return _normalize(a.lo - b.hi, a.hi - b.lo)


def mul(a: AbstractValue, b: AbstractValue) -> AbstractValue:
    products = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
    return _normalize(min(products), max(products))


def floordiv(a: AbstractValue, b: AbstractValue) -> AbstractValue:
    if b.lo <= 0 <= b.hi:
        # a zero divisor raises at runtime; stay sound for the surviving
        # executions by excluding 0 where the interval allows it
        if b.is_const:
            return interval(-LIMIT, LIMIT)
        cands = []
        for d in (b.lo, -1, 1, b.hi):
            if b.lo <= d <= b.hi and d != 0:
                cands.extend((a.lo // d, a.hi // d))
    else:
        cands = [a.lo // b.lo, a.lo // b.hi, a.hi // b.lo, a.hi // b.hi]
    if not cands:
        return interval(-LIMIT, LIMIT)
    return _normalize(min(cands), max(cands))


def mod(a: AbstractValue, b: AbstractValue) -> AbstractValue:
    if b.lo > 0:
        if a.lo >= 0:
            return _normalize(0, min(a.hi, b.hi - 1))
        return _normalize(0, b.hi - 1)
    if b.hi < 0:
        return _normalize(b.lo + 1, 0)
    return interval(-LIMIT, LIMIT)


def power(a: AbstractValue, b: AbstractValue) -> AbstractValue:
    if a.lo >= 0 and b.lo >= 0 and b.hi <= 256:
        try:
            return _normalize(a.lo ** b.lo, a.hi ** b.hi)
        except OverflowError:  # pragma: no cover - saturated anyway
            pass
    return interval(-LIMIT, LIMIT)


def lshift(a: AbstractValue, b: AbstractValue) -> AbstractValue:
    if b.lo < 0 or b.hi > 256:
        return interval(-LIMIT, LIMIT)
    if a.lo >= 0:
        kmask = kval = 0
        if b.is_const:
            kmask = (a.kmask << b.lo) & _KMASK_ALL | ((1 << b.lo) - 1)
            kval = (a.kval << b.lo) & kmask
        return _normalize(a.lo << b.lo, a.hi << b.hi, kmask, kval)
    return _normalize(a.lo << b.hi, a.hi << b.hi if a.hi >= 0 else a.hi << b.lo)


def rshift(a: AbstractValue, b: AbstractValue) -> AbstractValue:
    if b.lo < 0:
        return interval(-LIMIT, LIMIT)
    if a.lo >= 0:
        kmask = kval = 0
        if b.is_const and b.lo <= KNOWN_BITS:
            kmask = a.kmask >> b.lo
            kval = a.kval >> b.lo
        return _normalize(a.lo >> min(b.hi, 512), a.hi >> min(b.lo, 512),
                          kmask, kval)
    return _normalize(a.lo >> min(b.lo, 512), a.hi >> min(b.lo, 512))


def bitand(a: AbstractValue, b: AbstractValue) -> AbstractValue:
    if a.lo >= 0 and b.lo >= 0:
        hi = min(a.hi, b.hi)
        # bits known zero on either side are zero in the result
        kmask = (a.kmask & ~a.kval) | (b.kmask & ~b.kval) | (a.kmask & b.kmask)
        kval = (a.kval & b.kval) & kmask
        if b.is_const and b.hi <= _KMASK_ALL:
            hi = min(hi, b.hi)
        return _normalize(0, hi, kmask, kval)
    return interval(-LIMIT, LIMIT)


def bitor(a: AbstractValue, b: AbstractValue) -> AbstractValue:
    if a.lo >= 0 and b.lo >= 0:
        hi_bits = max(a.hi, b.hi).bit_length()
        hi = (1 << hi_bits) - 1 if hi_bits else 0
        kmask = (a.kmask & a.kval) | (b.kmask & b.kval) | (a.kmask & b.kmask)
        kval = (a.kval | b.kval) & kmask
        return _normalize(max(a.lo, b.lo), hi, kmask, kval)
    return interval(-LIMIT, LIMIT)


def bitxor(a: AbstractValue, b: AbstractValue) -> AbstractValue:
    if a.lo >= 0 and b.lo >= 0:
        hi_bits = max(a.hi, b.hi).bit_length()
        hi = (1 << hi_bits) - 1 if hi_bits else 0
        kmask = a.kmask & b.kmask
        kval = (a.kval ^ b.kval) & kmask
        return _normalize(0, hi, kmask, kval)
    return interval(-LIMIT, LIMIT)


def neg(a: AbstractValue) -> AbstractValue:
    return _normalize(-a.hi, -a.lo)


def invert(a: AbstractValue) -> AbstractValue:
    return _normalize(-a.hi - 1, -a.lo - 1)


def logical_not(a: AbstractValue) -> AbstractValue:
    t = a.truthiness()
    if t is True:
        return const(0)
    if t is False:
        return const(1)
    return BOOL


def minimum(values: "list[AbstractValue]") -> AbstractValue:
    return _normalize(min(v.lo for v in values), min(v.hi for v in values))


def maximum(values: "list[AbstractValue]") -> AbstractValue:
    return _normalize(max(v.lo for v in values), max(v.hi for v in values))


def absolute(a: AbstractValue) -> AbstractValue:
    if a.lo >= 0:
        return a
    if a.hi <= 0:
        return _normalize(-a.hi, -a.lo)
    return _normalize(0, max(-a.lo, a.hi))


def compare(op: str, a: AbstractValue, b: AbstractValue) -> AbstractValue:
    """Abstract comparison: a decided [0,0]/[1,1] or the full boolean."""
    decided: "bool | None" = None
    if op == "<":
        if a.hi < b.lo:
            decided = True
        elif a.lo >= b.hi:
            decided = False
    elif op == "<=":
        if a.hi <= b.lo:
            decided = True
        elif a.lo > b.hi:
            decided = False
    elif op == ">":
        if a.lo > b.hi:
            decided = True
        elif a.hi <= b.lo:
            decided = False
    elif op == ">=":
        if a.lo >= b.hi:
            decided = True
        elif a.hi < b.lo:
            decided = False
    elif op == "==":
        if a.is_const and b.is_const and a.lo == b.lo:
            decided = True
        elif a.hi < b.lo or a.lo > b.hi:
            decided = False
        elif (a.kmask & b.kmask) & (a.kval ^ b.kval):
            decided = False  # a proven bit disagrees
    elif op == "!=":
        if a.is_const and b.is_const and a.lo == b.lo:
            decided = False
        elif a.hi < b.lo or a.lo > b.hi:
            decided = True
        elif (a.kmask & b.kmask) & (a.kval ^ b.kval):
            decided = True
    if decided is None:
        return BOOL
    return const(int(decided))


def apply_mask(a: AbstractValue, mask: int) -> AbstractValue:
    """The committed value after the kernel's ``& mask`` write discipline."""
    if a.fits(mask):
        return _normalize(a.lo, a.hi, a.kmask, a.kval)
    if a.lo >= 0:
        # low bits survive wrapping; the interval collapses to the width
        kmask = a.kmask & mask & _KMASK_ALL
        kval = a.kval & kmask
        return _normalize(0, mask, kmask, kval)
    return AbstractValue(0, mask)


# -- vector lanes -------------------------------------------------------------


def vector_width_bits(word_bits: int) -> int:
    """Narrowest power-of-two numpy lane width proven to hold a word.

    Wrap-around arithmetic in an unsigned lane of ``n`` bits is congruent
    mod ``2**n``, and every kernel write masks to ``word_bits <= n`` bits,
    so a lane at least as wide as the word preserves bit-exact results for
    the +, *, <<, &, |, ^ ops the vector executors use.
    """
    for bits in (8, 16, 32, 64):
        if word_bits <= bits:
            return bits
    raise ValueError(f"no numpy lane fits {word_bits}-bit words")

"""Independent correctness oracles.

Nothing here imports the package under test: integer and logic results come
from Python integers masked to the word width, binary32 FADD/FMUL from
Python's double arithmetic rounded through ``struct`` (exact for a single
add or multiply, since binary64 carries more than twice binary32's
precision), and sorts from ``sorted()``.
"""

from __future__ import annotations

import struct

WORD_BITS = 32
MASK = (1 << WORD_BITS) - 1

#: integer ops by name → f(a, b) on unsigned words, before masking
INT_OPS = {
    "ADD": lambda a, b: a + b,
    "SUB": lambda a, b: a - b,
    "INC": lambda a, b: a + 1,
    "DEC": lambda a, b: a - 1,
    "NEG": lambda a, b: -b,
    "AND": lambda a, b: a & b,
    "OR": lambda a, b: a | b,
    "XOR": lambda a, b: a ^ b,
    "NOT": lambda a, b: ~a,
    "NAND": lambda a, b: ~(a & b),
    "NOR": lambda a, b: ~(a | b),
    "XNOR": lambda a, b: ~(a ^ b),
    "ANDN": lambda a, b: a & ~b,
    "ORN": lambda a, b: a | ~b,
    "PASS": lambda a, b: a,
}


def int_op(name: str, a: int, b: int) -> int:
    """Result of an ALU or logic op on two 32-bit words."""
    return INT_OPS[name](a, b) & MASK


def f32_bits(x: float) -> int:
    """binary32 bit pattern of ``x`` (rounded to nearest-even)."""
    return struct.unpack("<I", struct.pack("<f", x))[0]


def f32_value(bits: int) -> float:
    return struct.unpack("<f", struct.pack("<I", bits & MASK))[0]


def fp_op(name: str, a_bits: int, b_bits: int) -> int:
    """binary32 FADD/FMUL on bit patterns, rounded once to binary32."""
    a, b = f32_value(a_bits), f32_value(b_bits)
    if name == "FADD":
        return f32_bits(a + b)
    if name == "FMUL":
        return f32_bits(a * b)
    raise KeyError(name)


def word_op(name: str, a: int, b: int) -> int:
    """Any op of the benchmark's instruction mix on 32-bit words."""
    if name in ("FADD", "FMUL"):
        return fp_op(name, a, b)
    return int_op(name, a, b)

"""Experiment T1 — the Table 3.1 arithmetic instruction family.

Regenerates the table as executed behaviour: every row (ADD…CMPB) runs
through the full coprocessor, reporting its end-to-end cycle cost and
verifying its datapath identity; plus a raw-datapath throughput benchmark.
"""

import pytest

from conftest import report
from repro.analysis import format_table
from repro.fu import arith_datapath
from repro.host import CoprocessorDriver
from repro.isa import (
    ARITH_COMPL_SECOND,
    ARITH_FIRST_ZERO,
    ARITH_FIXED_CARRY,
    ARITH_OUTPUT_DATA,
    ARITH_SECOND_ZERO,
    ARITH_USE_CARRY,
    ArithOp,
    instructions as ins,
)
from repro.isa.opcodes import Opcode
from repro.system import build_system

A, B = 1000, 58
MASK = 0xFFFF_FFFF

EXPECTED = {
    ArithOp.ADD: (A + B) & MASK,
    ArithOp.ADC: (A + B) & MASK,      # carry flag starts 0
    ArithOp.SUB: (A - B) & MASK,
    ArithOp.SBB: (A - B - 1) & MASK,  # carry 0 ⇒ borrow
    ArithOp.INC: (A + 1) & MASK,
    ArithOp.DEC: (A - 1) & MASK,
    ArithOp.NEG: (-B) & MASK,
    ArithOp.CMP: None,
    ArithOp.CMPB: None,
}


def _run_row(op: ArithOp) -> tuple[int, int | None]:
    """Execute one Table 3.1 row end-to-end; returns (cycles, result)."""
    driver = CoprocessorDriver(build_system())
    driver.write_reg(1, A)
    driver.write_reg(2, B)
    driver.run_until_quiet()
    start = driver.cycles
    driver.execute(
        ins.dispatch(Opcode.ARITH, int(op), dst1=3, src1=1, src2=2, dst_flag=1)
    )
    driver.execute(ins.fence())
    driver.run_until_quiet()
    cycles = driver.cycles - start
    result = driver.read_reg(3) if EXPECTED[op] is not None else None
    return cycles, result


@pytest.mark.parametrize("op", list(ArithOp), ids=lambda o: o.name)
def test_t1_row(benchmark, op):
    cycles, result = benchmark.pedantic(lambda: _run_row(op), rounds=1, iterations=1)
    assert result == EXPECTED[op]


def test_t1_datapath_throughput(benchmark):
    """Raw combinational datapath evaluation rate (simulation hot path)."""

    def run():
        acc = 0
        for i in range(1000):
            acc ^= arith_datapath(ArithOp.ADD, i, i * 7, 0, 32).value
        return acc

    benchmark(run)


def _variety_bits(op: ArithOp) -> str:
    bits = [
        ("C", ARITH_USE_CARRY),
        ("1", ARITH_FIXED_CARRY),
        ("O", ARITH_OUTPUT_DATA),
        ("Az", ARITH_FIRST_ZERO),
        ("Bz", ARITH_SECOND_ZERO),
        ("~B", ARITH_COMPL_SECOND),
    ]
    return " ".join(name for name, bit in bits if op & bit) or "-"


def test_t1_report(benchmark):
    def build():
        rows = []
        for op in ArithOp:
            cycles, result = _run_row(op)
            rows.append([
                op.name,
                f"{int(op):#04x}",
                _variety_bits(op),
                cycles,
                "flags only" if result is None else result,
            ])
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    report(
        "T1 (thesis Table 3.1): arithmetic unit — one adder datapath steered by "
        f"variety bits; operands a={A}, b={B}",
        format_table(
            ["mnemonic", "variety", "modifier bits", "cycles (instr+fence)", "result"],
            rows,
            title="C=use carry, 1=fixed carry, O=output data, Az/Bz=zero input, "
                  "~B=complement second",
        ),
    )
    # every instruction costs the same through the one shared datapath
    assert len({r[3] for r in rows}) <= 2

"""Experiment T2 — the Table 3.2 logic instruction family.

Same regeneration as T1 for the logic unit's bitwise operations.
"""

import pytest

from conftest import report
from repro.analysis import format_table
from repro.fu import logic_datapath
from repro.host import CoprocessorDriver
from repro.isa import LogicOp, instructions as ins
from repro.isa.opcodes import Opcode
from repro.system import build_system

A, B = 0b1100_1010_1111_0000, 0b1010_0110_0000_1111
MASK = 0xFFFF_FFFF

EXPECTED = {
    LogicOp.AND: A & B,
    LogicOp.OR: A | B,
    LogicOp.XOR: A ^ B,
    LogicOp.NOT: ~A & MASK,
    LogicOp.NAND: ~(A & B) & MASK,
    LogicOp.NOR: ~(A | B) & MASK,
    LogicOp.XNOR: ~(A ^ B) & MASK,
    LogicOp.ANDN: A & ~B & MASK,
    LogicOp.ORN: (A | (~B & MASK)) & MASK,
    LogicOp.PASS: A,
}


def _run_row(op: LogicOp) -> tuple[int, int]:
    driver = CoprocessorDriver(build_system())
    driver.write_reg(1, A)
    driver.write_reg(2, B)
    driver.run_until_quiet()
    start = driver.cycles
    driver.execute(
        ins.dispatch(Opcode.LOGIC, int(op), dst1=3, src1=1, src2=2, dst_flag=1)
    )
    driver.execute(ins.fence())
    driver.run_until_quiet()
    return driver.cycles - start, driver.read_reg(3)


@pytest.mark.parametrize("op", list(LogicOp), ids=lambda o: o.name)
def test_t2_row(benchmark, op):
    cycles, result = benchmark.pedantic(lambda: _run_row(op), rounds=1, iterations=1)
    assert result == EXPECTED[op]


def test_t2_datapath_throughput(benchmark):
    def run():
        acc = 0
        for i in range(1000):
            acc ^= logic_datapath(int(LogicOp.XOR), i, i * 3, 32)[0]
        return acc

    benchmark(run)


def test_t2_report(benchmark):
    def build():
        rows = []
        for op in LogicOp:
            cycles, result = _run_row(op)
            arity = 1 if op in (LogicOp.NOT, LogicOp.PASS) else 2
            rows.append([op.name, f"{int(op):#04x}", arity, cycles, f"{result:#010x}"])
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    report(
        "T2 (thesis Table 3.2): logic unit — bitwise operations; "
        f"a={A:#x}, b={B:#x}",
        format_table(["mnemonic", "variety", "inputs", "cycles", "result"], rows),
    )
    assert len({r[3] for r in rows}) <= 2  # uniform cost through one datapath

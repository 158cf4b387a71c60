"""Experiment F4 — the RTM pipeline (paper Fig. 4).

Measures the controller pipeline as a whole: sustained instruction cost
for different mixes (independent vs serially dependent vs GET-heavy),
showing (a) the pipeline overlaps instruction handling with unit execution
and (b) the front-end (3 channel words per instruction) sets the sustained
rate, exactly the "speed determined by the communication interface" point
of §III.
"""

import pytest

from conftest import report
from repro.analysis import format_table, measure_issue_rate
from repro.host import CoprocessorDriver
from repro.isa import instructions as ins
from repro.system import build_system

N = 48


def _mix_cycles(kind: str) -> float:
    driver = CoprocessorDriver(build_system())
    driver.write_reg(1, 3)
    driver.write_reg(2, 5)
    driver.run_until_quiet()
    start = driver.cycles
    for i in range(N):
        if kind == "independent":
            driver.execute(ins.add(3 + i % 4, 1, 2, dst_flag=1))
        elif kind == "dependent":
            driver.execute(ins.add(3, 3, 2, dst_flag=1))
        elif kind == "alternating-units":
            if i % 2:
                driver.execute(ins.xor(4, 1, 2, dst_flag=2))
            else:
                driver.execute(ins.add(3, 1, 2, dst_flag=1))
        elif kind == "get-heavy":
            driver.execute(ins.add(3, 1, 2, dst_flag=1))
            driver.execute(ins.get(3, tag=i & 0xFF))
        elif kind == "primitives":
            driver.execute(ins.copy(3 + i % 4, 1))
    driver.execute(ins.fence())
    driver.run_until_quiet()
    consumed = len(driver.inbox)
    driver.inbox.clear()
    instrs = N * (2 if kind == "get-heavy" else 1)
    return (driver.cycles - start) / instrs


MIXES = ("independent", "dependent", "alternating-units", "get-heavy", "primitives")


@pytest.mark.parametrize("mix", MIXES)
def test_f4_mix(benchmark, mix):
    cpi = benchmark.pedantic(lambda: _mix_cycles(mix), rounds=1, iterations=1)
    assert cpi > 0


def test_f4_report(benchmark):
    def build():
        return [[m, round(_mix_cycles(m), 2)] for m in MIXES]

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    report(
        "F4: RTM pipeline sustained cost per instruction (integrated link)",
        format_table(
            ["instruction mix", "cycles/instr"],
            rows,
            title="front-end framing (3 words/instr) bounds the rate; hazards "
                  "add little because units overlap the pipeline",
        ),
    )
    by = dict(rows)
    # the pipeline hides unit latency: dependent ≈ independent (front-end bound)
    assert by["dependent"] <= by["independent"] * 1.5
    # front-end bound: ≥ 3 words per instruction at 1 word/cycle
    assert by["independent"] >= 3.0


def test_f4_pipeline_depth_latency(benchmark):
    """Single-instruction latency through the whole pipe (fill time)."""

    def run():
        driver = CoprocessorDriver(build_system())
        driver.write_reg(1, 20)
        driver.write_reg(2, 22)
        driver.run_until_quiet()
        start = driver.cycles
        driver.execute(ins.add(3, 1, 2, dst_flag=1))
        driver.execute(ins.get(3))
        driver.wait_for(1)
        return driver.cycles - start

    latency = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "F4b: single instruction end-to-end latency",
        format_table(
            ["path", "cycles"],
            [["EXEC(add) → GET → data record at host", latency]],
        ),
    )
    assert latency > 10  # frames + pipeline + unit + serialisation

"""Experiment F1b — several CPUs sharing one coprocessor (paper Fig. 1.1).

"...a common interface to hardware accelerators accessible by one or more
host CPUs" (thesis §1.2).  Regenerated shape: with m CPUs sharing the
channel at frame granularity, each CPU's share of the instruction
bandwidth is ≈1/m (the link is the shared resource), while per-CPU work
remains correct and isolated.
"""

import pytest

from conftest import report
from repro.analysis import format_table
from repro.host import CoprocessorDriver
from repro.config import FrameworkConfig
from repro.isa import instructions as ins
from repro.system import build_system

OPS_PER_CPU = 24


def _run(n_hosts: int) -> tuple[int, list[int]]:
    system = build_system(FrameworkConfig(n_regs=64), n_hosts=n_hosts)
    cpus = [CoprocessorDriver(system, cpu=i) for i in range(n_hosts)]
    base = 0
    for i, cpu in enumerate(cpus):
        cpu.write_reg(i * 8, 0)
        cpu.write_reg(i * 8 + 1, 1)
    cpus[0].run_until_quiet()
    start = system.sim.now
    for _ in range(OPS_PER_CPU):
        for i, cpu in enumerate(cpus):
            cpu.execute(ins.add(i * 8, i * 8, i * 8 + 1, dst_flag=i % 4))
    cpus[0].run_until_quiet(max_cycles=2_000_000)
    elapsed = system.sim.now - start
    finals = [system.soc.rtm.register_value(i * 8) for i in range(n_hosts)]
    return elapsed, finals


@pytest.mark.parametrize("n_hosts", [1, 2, 4])
def test_f1b_sharing(benchmark, n_hosts):
    elapsed, finals = benchmark.pedantic(lambda: _run(n_hosts), rounds=1, iterations=1)
    assert finals == [OPS_PER_CPU] * n_hosts  # every CPU's work is intact


def test_f1b_report(benchmark):
    def build():
        rows = []
        for n_hosts in (1, 2, 4):
            elapsed, _ = _run(n_hosts)
            total_ops = OPS_PER_CPU * n_hosts
            rows.append([
                n_hosts,
                total_ops,
                elapsed,
                round(elapsed / total_ops, 2),
                round(elapsed / OPS_PER_CPU, 2),
            ])
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    report(
        "F1b (Fig. 1.1): m CPUs sharing one coprocessor over one channel",
        format_table(
            ["CPUs", "total instrs", "cycles", "cycles/instr (aggregate)",
             "cycles per CPU's workload"],
            rows,
            title="aggregate throughput is channel-bound and stays flat; each "
                  "CPU sees ≈1/m of it",
        ),
    )
    # aggregate cycles/instr roughly constant (the channel is the bottleneck)
    aggregate = [r[3] for r in rows]
    assert max(aggregate) < 1.6 * min(aggregate)
    # each CPU's wall-clock grows with the number of sharers
    per_cpu = [r[4] for r in rows]
    assert per_cpu[-1] > 2.5 * per_cpu[0]

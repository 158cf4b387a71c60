"""Experiment S1 — the smart-memory suite: scan, histogram, string match.

Drives the three kit-native machines (:mod:`repro.smem`) at a production
size (256 cells, vectorized array) through the same kernel-mode ladder
the kernel benchmark uses — interpreted event kernel (wheel off), wheel
on, and the compiled backend — and records, per machine:

* the exact operation cycle counts (identical across modes, asserted),
* simulation throughput (simulated cycles per host second) and the
  compiled-over-interpreted speedup,
* a CPU software baseline doing the same job natively (numpy prefix
  sum, ``collections.Counter`` histogram, ``str.find`` match scan) —
  the paper-style reference point: hardware cycle counts are what an
  FPGA deployment would pay, the baseline is what the host would pay
  in software.

The compiled runs additionally assert that the full column is vectorized
at 256 cells, with every process the executor claims absorbed.

Results are recorded in ``BENCH_smem.json`` at the repo root.
``--quick`` runs one measurement round per mode (CI smoke).
"""

from __future__ import annotations

import time
from collections import Counter

import numpy as np
import pytest

from conftest import report
from repro.analysis import format_table
from repro.smem.histogram import DirectHistMachine
from repro.smem.match import DirectMatchMachine
from repro.smem.scan import DirectScanMachine

N_CELLS = 256

#: kernel modes under comparison (the exhaustive oracle is pinned on these
#: machines by the conformance property suite at smaller sizes)
MODES = {
    "event": {"backend": "event", "wheel": False},
    "event+wheel": {"backend": "event", "wheel": True},
    "compiled": {"backend": "compiled", "wheel": True},
}
ALL_MODES = tuple(MODES)

RNG_VALUES = [(v * 2654435761) % (1 << 20) for v in range(200)]
RNG_SAMPLES = [(v * 40503) % 512 for v in range(400)]
MATCH_TEXT = (b"abacabadabacabae" * 32)[:500]
MATCH_PATTERN = b"abacabad"


def _scan_workload(mode: dict):
    m = DirectScanMachine(N_CELLS, **mode)
    t0 = time.perf_counter()
    m.reset_column()
    m.load(RNG_VALUES)
    total = m.prefix_sum()
    checks = (m.total(), m.minimum(), m.maximum(), m.count(),
              m.read_at(0), m.read_at(len(RNG_VALUES) - 1))
    elapsed = time.perf_counter() - t0
    ref = np.cumsum(np.asarray(RNG_VALUES, dtype=np.uint64))
    assert total == int(ref[-1]) and checks[4] == int(ref[0])
    return m.cycles, elapsed, m.sim


def _scan_baseline() -> None:
    arr = np.asarray(RNG_VALUES, dtype=np.uint64)
    out = np.cumsum(arr)
    assert int(out[-1]) == sum(RNG_VALUES)


def _hist_workload(mode: dict):
    m = DirectHistMachine(N_CELLS, **mode)
    t0 = time.perf_counter()
    m.reset_bins()
    m.load(RNG_SAMPLES)
    obs = (m.total(), m.peak(), m.nonzero_bins())
    elapsed = time.perf_counter() - t0
    ref = Counter(s % N_CELLS for s in RNG_SAMPLES)
    assert obs[0] == len(RNG_SAMPLES)
    assert obs[1][1] == max(ref.values())
    return m.cycles, elapsed, m.sim


def _hist_baseline() -> None:
    ref = Counter(s % N_CELLS for s in RNG_SAMPLES)
    assert sum(ref.values()) == len(RNG_SAMPLES)


def _match_occurrences(text: bytes, pattern: bytes) -> list[int]:
    """Overlapping-occurrence end positions via str.find (the baseline)."""
    ends, start = [], text.find(pattern)
    while start != -1:
        ends.append(start + len(pattern) - 1)
        start = text.find(pattern, start + 1)
    return ends


def _match_workload(mode: dict):
    m = DirectMatchMachine(N_CELLS, **mode)
    t0 = time.perf_counter()
    m.reset_machine()
    m.set_pattern(MATCH_PATTERN)
    ends = m.feed(MATCH_TEXT)
    hits = m.hits()
    elapsed = time.perf_counter() - t0
    ref = _match_occurrences(MATCH_TEXT, MATCH_PATTERN)
    assert ends == ref and hits == len(ref)
    return m.cycles, elapsed, m.sim


def _match_baseline() -> None:
    assert _match_occurrences(MATCH_TEXT, MATCH_PATTERN)


MACHINES = {
    "scan/reduce (200 pushes + scan)": (_scan_workload, _scan_baseline),
    "histogram (400 samples)": (_hist_workload, _hist_baseline),
    "string match (500-char stream)": (_match_workload, _match_baseline),
}


def _measure(workload, baseline, rounds: int):
    out = {}
    for name in ALL_MODES:
        best = None
        for _ in range(rounds):
            cycles, elapsed, sim = workload(MODES[name])
            if best is None or elapsed < best[1]:
                best = (cycles, elapsed, sim)
        out[name] = best
    counts = {name: out[name][0] for name in ALL_MODES}
    assert len(set(counts.values())) == 1, (
        f"kernels disagree on cycle count: {counts}"
    )
    sim = out["compiled"][2]
    stats = sim.kernel_stats
    absorbed = sum(len(ex.absorbed) for ex in sim._executors)
    assert stats.compiled_procs == absorbed > 0, (
        "compiled run left executor-claimed processes on the event kernel"
    )
    assert stats.vectorized_cells == N_CELLS

    best_base = None
    for _ in range(max(rounds, 3) * 10):
        t0 = time.perf_counter()
        baseline()
        dt = time.perf_counter() - t0
        best_base = dt if best_base is None else min(best_base, dt)

    cycles = counts["event"]
    return {
        "cycles": cycles,
        "cps": {name: cycles / t for name, (_, t, _s) in out.items()},
        "wheel_speedup": out["event"][1] / out["event+wheel"][1],
        "compiled_speedup": out["event"][1] / out["compiled"][1],
        "cpu_baseline_sec": best_base,
        "kernel": stats.as_dict(),
    }


@pytest.fixture
def rounds(request) -> int:
    return 1 if request.config.getoption("--quick") else 3


@pytest.mark.parametrize("name", list(MACHINES))
def test_smem_machine_scenario(benchmark, name, rounds):
    workload, baseline = MACHINES[name]
    result = benchmark.pedantic(lambda: _measure(workload, baseline, rounds),
                                rounds=1, iterations=1)
    assert result["compiled_speedup"] > 1.0, (
        f"{name}: compiled backend slower than the interpreted kernel"
    )


def test_smem_suite_report(benchmark, rounds):
    def build():
        return {name: _measure(w, b, rounds)
                for name, (w, b) in MACHINES.items()}

    results = benchmark.pedantic(build, rounds=1, iterations=1)
    rows = [
        [name, r["cycles"], round(r["cps"]["event"]),
         round(r["cps"]["event+wheel"]), round(r["cps"]["compiled"]),
         f"{r['compiled_speedup']:.2f}x",
         f"{r['cpu_baseline_sec'] * 1e6:.0f}us"]
        for name, r in results.items()
    ]
    report(
        "S1: smart-memory suite — kernel modes and CPU software baselines",
        format_table(
            ["machine workload", "cycles", "event cyc/s", "wheel cyc/s",
             "compiled cyc/s", "compiled/event", "cpu baseline"],
            rows,
            title=f"{N_CELLS}-cell vectorized arrays; identical cycle counts "
                  f"asserted across modes; full vectorization asserted; "
                  f"best of {rounds} (baselines best of {max(rounds, 3) * 10})",
        ),
    )


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main(
        [__file__, "-q", "-rA", "--benchmark-disable-gc",
         "--benchmark-min-rounds=1", *sys.argv[1:]]
    ))

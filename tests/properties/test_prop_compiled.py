"""Property tests: the compiled backend is observably invisible.

``backend="compiled"`` changes *how* processes execute — the smart-memory
cell arrays run as numpy vector executors spliced into the event kernel —
never *what* the design computes.  For randomized host programs across
all three link presets, a compiled run must produce:

* identical response values and final architectural state,
* an identical final ``sim.now`` (the currency every benchmark reports),
* identical VCD traces (full-hierarchy and compressed-idle),

compared to the interpreted event kernel and to the exhaustive reference
kernel.  The preset coprocessor system has no cell array, so there the
compiled backend must be the event kernel itself, down to every kernel
counter; the ξ-sort tests at the bottom add the vectorized-executor path
on both cell-array kinds.
"""

from __future__ import annotations

import io
import random

import pytest

from repro.hdl.vcd import VcdWriter
from repro.host import CoprocessorDriver
from repro.isa import instructions as ins
from repro.messages import FaultSpec
from repro.messages.channel import FAST_BUS, INTEGRATED, SLOW_PROTOTYPE
from repro.system import build_system

PRESETS = [
    pytest.param(INTEGRATED, id="integrated"),
    pytest.param(FAST_BUS, id="fast-bus"),
    pytest.param(SLOW_PROTOTYPE, id="slow-prototype"),
]

#: backends under comparison — exhaustive is the reference oracle
BACKENDS = ("exhaustive", "event", "compiled")


def _random_program(driver, rng):
    """A randomized host session; returns every observed response value."""
    results = []
    live = []
    for r in range(1, 5):
        v = rng.randrange(1 << 16)
        driver.write_reg(r, v)
        live.append(r)
    for _ in range(rng.randrange(3, 7)):
        op = rng.choice(("add", "xor", "read", "idle"))
        if op == "add":
            driver.execute(ins.add(rng.randrange(1, 8), rng.choice(live),
                                   rng.choice(live), dst_flag=1))
        elif op == "xor":
            driver.execute(ins.xor(rng.randrange(1, 8), rng.choice(live),
                                   rng.choice(live), dst_flag=2))
        elif op == "read":
            results.append(driver.read_reg(rng.choice(live)))
        else:
            driver.pump(rng.randrange(20, 200))
    driver.pump(rng.randrange(50, 400))
    results.append(driver.read_reg(rng.choice(live)))
    driver.run_until_quiet()
    return results


def _run(channel, backend, seed, *, faults=None, upstream_faults=None,
         reliable=False, vcd="none"):
    """One full system run; returns everything the backends must agree on."""
    system = build_system(
        channel=channel,
        backend=backend,
        faults=faults,
        upstream_faults=upstream_faults,
        reliable=reliable,
    )
    sim = system.sim
    buf = io.StringIO()
    writer = None
    if vcd == "full":
        writer = VcdWriter(sim, buf)
    elif vcd == "ports":
        link = system.soc.link
        picked = [
            system.soc.host.tx.valid, system.soc.host.tx.payload,
            system.soc.host.rx.valid, system.soc.host.rx.payload,
            link.downstream.out.valid, link.downstream.out.payload,
            link.upstream.inp.valid, link.upstream.inp.payload,
        ]
        writer = VcdWriter(sim, buf, signals=picked, compress_idle=True)
    driver = CoprocessorDriver(system)
    results = _random_program(driver, random.Random(seed))
    if writer is not None:
        writer.detach()
    regs = [system.soc.rtm.register_value(r) for r in range(1, 8)]
    return {
        "results": results,
        "now": sim.now,
        "regs": regs,
        "vcd": buf.getvalue(),
        "stats": sim.kernel_stats,
    }


def _assert_agree(runs):
    base_mode, base = runs[0]
    for mode, run in runs[1:]:
        for key in ("results", "now", "regs", "vcd"):
            assert run[key] == base[key], (
                f"{key} diverges between {base_mode} and {mode}: "
                f"{base[key]!r} vs {run[key]!r}"
            )


class TestCompiledEquivalence:
    @pytest.mark.parametrize("channel", PRESETS)
    @pytest.mark.parametrize("seed", [1, 7])
    def test_results_and_cycle_counts_identical(self, channel, seed):
        runs = [(b, _run(channel, b, seed)) for b in BACKENDS]
        _assert_agree(runs)
        # on these array-free presets no executor absorbs anything, so the
        # compiled kernel's counters equal the event kernel's field for field
        event = runs[1][1]["stats"].as_dict()
        compiled = runs[2][1]["stats"].as_dict()
        del event["compile_ms"], compiled["compile_ms"]
        assert compiled == event

    @pytest.mark.parametrize("channel", PRESETS)
    def test_full_vcd_identical_across_backends(self, channel):
        runs = [(b, _run(channel, b, seed=3, vcd="full")) for b in BACKENDS]
        _assert_agree(runs)

    @pytest.mark.parametrize("channel", PRESETS)
    def test_compressed_vcd_identical_across_backends(self, channel):
        runs = [(b, _run(channel, b, seed=5, vcd="ports")) for b in BACKENDS]
        _assert_agree(runs)

    @pytest.mark.parametrize("channel", [PRESETS[1], PRESETS[2]])
    @pytest.mark.parametrize("seed", [11, 23])
    def test_faulty_reliable_link_identical(self, channel, seed):
        faults = dict(
            faults=FaultSpec(seed=seed, drop_rate=0.03, flip_rate=0.01),
            upstream_faults=FaultSpec(seed=seed + 1, drop_rate=0.03),
            reliable=True,
        )
        runs = [(b, _run(channel, b, seed, **faults)) for b in BACKENDS]
        _assert_agree(runs)


class TestCompiledVectorizedEquivalence:
    """The vectorized cell-array executor against both interpreted kernels."""

    @pytest.mark.parametrize("kind", ["vector", "structural"])
    @pytest.mark.parametrize("seed", [2, 9])
    def test_sort_traces_identical(self, kind, seed):
        from repro.xisort import DirectXiSortMachine

        values = random.Random(seed).sample(range(1 << 16), 24)
        outcomes = set()
        for backend in BACKENDS:
            m = DirectXiSortMachine(32, array_kind=kind, backend=backend)
            outcomes.add((tuple(m.sort(values)), m.cycles))
        assert len(outcomes) == 1
        out, _cycles = next(iter(outcomes))
        assert list(out) == sorted(values)

    def test_wheel_still_engages_under_compiled(self):
        # An idle ξ-sort array is NOP-wheeled; with the always-proc absorbed
        # into the executor the compiled backend can take wheel jumps the
        # interpreted event kernel cannot.
        from repro.xisort import DirectXiSortMachine

        m = DirectXiSortMachine(16, backend="compiled")
        m.load([3, 1, 2])
        before = m.sim.kernel_stats.skipped_cycles
        m.sim.step(500)
        assert m.sim.kernel_stats.skipped_cycles > before

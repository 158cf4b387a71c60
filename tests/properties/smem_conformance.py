"""Generic ``__compile_vector__`` conformance harness for kit arrays.

Any smart-memory machine built on :mod:`repro.smem` owes the compiled
backend the same obligations ξ-sort pioneered: the vectorized executor
must be *observably invisible* (event-kernel parity down to cycle counts
and VCD bytes), must vectorize the whole column at production sizes, and
must certify wheel jumps soundly (fast-forwarding an idle
array never changes behaviour).  This module states those obligations
once, as a :class:`MachineSpec` per machine plus check functions that
:mod:`tests.properties.test_prop_smem_conformance` instantiates over
every in-tree kit client — a new machine joins the suite by adding one
spec entry.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Callable

from repro.hdl.vcd import VcdWriter
from repro.smem import verify_array_contract
from repro.smem.core import DirectMachine

#: exhaustive is the reference oracle; compiled is the backend under test
BACKENDS = ("exhaustive", "event", "compiled")
ARRAY_KINDS = ("vector", "structural")

#: "production size" for the full-vectorization obligation
FULL_SIZE = 256


@dataclass(frozen=True)
class MachineSpec:
    """One kit machine under conformance test."""

    name: str
    #: machine factory — (n_cells, array_kind, backend, wheel) → DirectMachine
    make: Callable[..., DirectMachine]
    #: deterministic workload; returns hashable observations
    script: Callable[[DirectMachine], tuple]
    #: cells needed by the script (kept small: exhaustive runs it too)
    script_cells: int = 16


def _make(spec: MachineSpec, *, n_cells=None, array_kind="vector",
          backend="event", wheel=True) -> DirectMachine:
    return spec.make(n_cells or spec.script_cells, array_kind=array_kind,
                     backend=backend, wheel=wheel)


def _scan_script(m) -> tuple:
    m.reset_column()
    m.load([3, 1, 4, 1, 5, 9, 2, 6])
    obs = (m.count(), m.total(), m.minimum(), m.maximum(), m.prefix_sum())
    reads = tuple(m.read_at(i) for i in range(9))
    m.add_all(7)
    return obs + reads + (m.read_at(0), m.total(), m.cycles)


def _hist_script(m) -> tuple:
    m.reset_bins()
    m.load([1, 2, 2, 5, 5, 5, 0, 15])
    m.increment(2)
    obs = (m.total(), m.peak(), m.nonzero_bins())
    reads = tuple(m.read_bin(i) for i in range(6)) + (m.read_bin(99),)
    return obs + reads + (m.cycles,)


def _match_script(m) -> tuple:
    m.reset_machine()
    m.set_pattern(b"aba")
    first = tuple(m.feed(b"abababax"))
    obs = (m.hits(), m.pattern_length())
    m.restart()
    second = tuple(m.feed(b"xxabay"))
    return first + obs + second + (m.hits(), m.cycles)


def _xisort_script(m) -> tuple:
    values = [9, 3, 14, 1, 12, 7, 5, 11]
    out = tuple(m.sort(values))
    return out + (m.imprecise_count(), m.cycles)


def _specs() -> list[MachineSpec]:
    # imported here, not at module top: pulling the machines in at collection
    # time would slow unrelated test files in this directory
    from repro.smem.histogram import DirectHistMachine
    from repro.smem.match import DirectMatchMachine
    from repro.smem.scan import DirectScanMachine
    from repro.xisort import DirectXiSortMachine

    return [
        MachineSpec("scan", DirectScanMachine, _scan_script),
        MachineSpec("histogram", DirectHistMachine, _hist_script),
        MachineSpec("match", DirectMatchMachine, _match_script),
        MachineSpec("xisort", DirectXiSortMachine, _xisort_script),
    ]


def conformance_specs() -> list[MachineSpec]:
    return _specs()


# ---------------------------------------------------------------------------
# the three obligations


def run_traced(spec: MachineSpec, array_kind: str, backend: str,
               wheel: bool = True) -> dict:
    """Run the spec's script under a full-hierarchy VCD observer."""
    m = _make(spec, array_kind=array_kind, backend=backend, wheel=wheel)
    buf = io.StringIO()
    writer = VcdWriter(m.sim, buf)
    obs = spec.script(m)
    writer.detach()
    return {"obs": obs, "now": m.sim.now, "vcd": buf.getvalue()}


def check_event_kernel_parity(spec: MachineSpec, array_kind: str) -> None:
    """Obligation 1: identical observations, cycle counts and VCD bytes
    across the exhaustive, event and compiled kernels."""
    runs = {b: run_traced(spec, array_kind, b) for b in BACKENDS}
    base = runs[BACKENDS[0]]
    for backend in BACKENDS[1:]:
        run = runs[backend]
        assert run["obs"] == base["obs"], (
            f"{spec.name}/{array_kind}: observations diverge between "
            f"{BACKENDS[0]} and {backend}"
        )
        assert run["now"] == base["now"], (
            f"{spec.name}/{array_kind}: cycle counts diverge between "
            f"{BACKENDS[0]} and {backend}"
        )
        assert run["vcd"] == base["vcd"], (
            f"{spec.name}/{array_kind}: VCD bytes diverge between "
            f"{BACKENDS[0]} and {backend}"
        )


def check_fully_vectorized(spec: MachineSpec, array_kind: str,
                           n_cells: int = FULL_SIZE) -> None:
    """Obligation 2: at production size the whole column is vectorized,
    and every process the executor claims left the event scheduler."""
    m = _make(spec, n_cells=n_cells, array_kind=array_kind, backend="compiled")
    stats = m.sim.kernel_stats
    assert stats.vectorized_cells == n_cells, (
        f"{spec.name}/{array_kind}@{n_cells}: vectorized "
        f"{stats.vectorized_cells} of {n_cells} cells"
    )
    absorbed = sum(len(ex.absorbed) for ex in m.sim._executors)
    assert absorbed > 0
    assert stats.compiled_procs == absorbed, (
        f"{spec.name}/{array_kind}@{n_cells}: {stats.compiled_procs} "
        f"processes absorbed, the executors claim {absorbed}"
    )


def check_wheel_jump_safety(spec: MachineSpec, array_kind: str) -> None:
    """Obligation 3: the executor's horizon lets the wheel fast-forward an
    idle array, and jumping never changes the script's observations."""
    jumping = _make(spec, array_kind=array_kind, backend="compiled", wheel=True)
    obs_jump = spec.script(jumping)
    jumping.sim.step(500)  # idle tail: NOP horizon must engage
    assert jumping.sim.kernel_stats.skipped_cycles > 0, (
        f"{spec.name}/{array_kind}: wheel never jumped on an idle array"
    )
    stepping = _make(spec, array_kind=array_kind, backend="compiled", wheel=False)
    obs_step = spec.script(stepping)
    assert obs_jump == obs_step, (
        f"{spec.name}/{array_kind}: wheel jumps changed observable behaviour"
    )


def check_contract(spec: MachineSpec, array_kind: str) -> None:
    """The static kit contract (see repro.smem.contract) holds as built."""
    m = _make(spec, array_kind=array_kind, backend="compiled")
    problems = verify_array_contract(m.core.array)
    assert problems == [], f"{spec.name}/{array_kind}: {problems}"

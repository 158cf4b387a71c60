"""The compiled-backend simulator driver.

:class:`CompiledSimulator` is the object ``Simulator(top,
backend="compiled")`` actually constructs.  It is the event kernel plus
the vector executors of :mod:`.vector`: every component that publishes
``__compile_vector__`` hands its SIMD column to a numpy executor, the
processes that executor absorbs leave the scheduler lists, and every
other process is scheduled exactly as under ``backend="event"``.

* **settle** runs each executor's dirty-guarded fold, then the event
  settle.  A fold drives its output ports through ``Signal.set``, so its
  changes reach the event queue like any other write.
* **edge** runs the event kernel's sequential phase, then each
  executor's edge (against the same settled values), then the atomic
  register commit.
* the **time wheel** is inherited; the jump scan adds each executor's
  horizon (``0`` while a real command is on the bus).
* **reset** restores each executor's power-on state after the component
  reset hooks and before the re-settle.
"""

from __future__ import annotations

import time

from ..component import Component
from ..sim import MAX_SETTLE_ITERATIONS, Simulator
from .vector import collect_executors

__all__ = ["CompiledSimulator"]


class CompiledSimulator(Simulator):
    """Event kernel plus vector executors (see :mod:`repro.hdl.compile`)."""

    def __init__(
        self,
        top: Component,
        max_settle: int = MAX_SETTLE_ITERATIONS,
        wheel: bool = True,
        backend: str = "compiled",
    ):
        t0 = time.perf_counter()
        super().__init__(top, max_settle=max_settle, wheel=wheel)
        self.backend = "compiled"
        executors, absorbed = collect_executors(top)
        self._executors = executors
        n_procs = len(self._procs) + len(self._seqprocs)
        self._procs = [p for p in self._procs if id(p.fn) not in absorbed]
        self._seqprocs = [sp for sp in self._seqprocs if id(sp.fn) not in absorbed]
        # runs after the component reset hooks, before reset()'s re-settle
        self._resets.extend(ex.on_reset for ex in executors)
        stats = self.kernel_stats
        stats.compiled_procs = n_procs - len(self._procs) - len(self._seqprocs)
        stats.vectorized_cells = sum(ex.n_cells for ex in executors)
        stats.compile_ms = (time.perf_counter() - t0) * 1e3

    def settle(self) -> int:
        for ex in self._executors:
            if ex.settle():
                self.kernel_stats.activations += 1
        return super().settle()

    def _edge(self) -> None:
        self.kernel_stats.edge_calls += 1
        self._seq_phase()
        for ex in self._executors:
            ex.edge()
        self._commit()

    def _skip_scan(self, limit: int) -> int:
        n = super()._skip_scan(limit)
        for ex in self._executors:
            if not n:
                break
            h = ex.horizon()
            if h is not None and h < n:
                n = max(h, 0)
        return n

"""Vectorized-executor discovery for the compiled backend.

A component opts its SIMD-regular substructure into the numpy path by
publishing a ``__compile_vector__()`` method.  Called once at compile
time, it returns an *executor* (or ``None`` to decline) that absorbs a
set of interpreted processes and replaces them with array operations:

* ``absorbed`` — iterable of the process functions the executor replaces;
  the engine drops them from the event kernel's scheduler lists.
* ``settle()`` — recompute the combinational outputs derived from the
  vector state, returning True when work was done.  Called at the start
  of every settle, so implementations dirty-guard it: it works only after
  an edge applied a real command (or after reset).
* ``edge()`` — apply one clock edge to the vector state, returning True
  when state actually changed (the engine then re-settles next cycle).
* ``horizon()`` — time-wheel contribution: ``0`` vetoes the next jump
  (real work pending), ``None`` leaves other hooks in charge.
* ``on_reset()`` — restore power-on state (called by
  :meth:`Simulator.reset` after the component reset hooks).
* ``n_cells`` — element count, reported in ``KernelStats.vectorized_cells``.

The concrete executors live next to the structures they vectorize (the
ξ-sort arrays implement theirs in :mod:`repro.xisort.cellarray`); this
module only defines the discovery walk, keeping the kernel free of any
dependency on the functional-unit libraries built on top of it.
"""

from __future__ import annotations

from typing import Any, Protocol, runtime_checkable

from ..component import Component

__all__ = ["VectorExecutor", "collect_executors"]


@runtime_checkable
class VectorExecutor(Protocol):
    """Structural contract for compiled-backend vector executors."""

    n_cells: int

    @property
    def absorbed(self) -> Any: ...

    def settle(self) -> bool: ...

    def edge(self) -> bool: ...

    def horizon(self) -> Any: ...

    def on_reset(self) -> None: ...


def collect_executors(top: Component) -> tuple[list, set]:
    """Walk the hierarchy, instantiate executors, collect absorbed procs.

    Returns ``(executors, absorbed_fn_ids)``; a component without the
    hook — or whose hook declines by returning ``None`` — stays on the
    event kernel.
    """
    executors: list = []
    absorbed: set = set()
    for comp in top.walk():
        hook = getattr(comp, "__compile_vector__", None)
        if hook is None:
            continue
        ex = hook()
        if ex is None:
            continue
        executors.append(ex)
        absorbed.update(id(fn) for fn in ex.absorbed)
    return executors, absorbed

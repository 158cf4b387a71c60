"""The compiled backend: the event kernel plus numpy vector executors.

``Simulator(top, backend="compiled")`` builds a :class:`CompiledSimulator`.
Components that publish a ``__compile_vector__`` hook (the smart-memory
cell arrays, among them ξ-sort's) hand their SIMD column to a vector
executor, which replaces the column's interpreted processes with one
array operation per cycle.  Every other process runs on the unchanged
event kernel, so the backend is always safe to select and is cycle- and
trace-identical to ``backend="event"``.

Modules
-------

* :mod:`.vector` — the executor contract and the discovery walk over the
  component hierarchy;
* :mod:`.engine` — :class:`~repro.hdl.compile.engine.CompiledSimulator`,
  the :class:`~repro.hdl.sim.Simulator` subclass that splices the
  executors into the event kernel's settle, edge, wheel and reset.
"""

from .engine import CompiledSimulator

__all__ = ["CompiledSimulator"]

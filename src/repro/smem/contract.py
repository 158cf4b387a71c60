"""The smart-memory cell contract, stated once and checkable at runtime.

The kit's base classes (:mod:`repro.smem.array`) carry the machinery; this
module states what an array implementer owes the rest of the stack, and
provides :func:`verify_array_contract` — the structural check the
conformance suite (``tests/properties``) runs against every implementer
before exercising behavioural equivalence.

The obligations
---------------

1. **Per-cell state + step function.**  Cell state is a frozen dataclass;
   the transition is pure.  The scalar step (structural cells) must return
   the *identical object* when a command leaves the cell unchanged — that
   identity is what lets an idle column's pure-seq ticks stage nothing and
   go dormant under the event kernel.

2. **Array-level broadcast/collect.**  The array exposes a ``cmd`` input
   port whose do-nothing code ``NOP_CMD`` encodes as 0, plus whatever
   broadcast/load buses its command set needs; all cells observe the same
   buses each cycle (SIMD).  Collection happens only through fold outputs,
   never by the controller peeking at cell state.

3. **Fold-tree reduction.**  Every output port is a combinational fold of
   per-cell state under associative operators (:mod:`repro.smem.tree`), so
   the hardware cost model stays ⌈log₂ n⌉ gate levels per output.

4. **Wheel hook.**  A NOP edge must leave cell state bit-identical; the
   base classes then certify idle cycles as skippable (horizon ``None``)
   and veto fast-forward (horizon 0) whenever a real command is on the
   bus.  An implementer whose NOP has side effects cannot ride the kit.

5. **``__compile_vector__``.**  Both array shapes publish a
   :class:`~repro.smem.array.SmartArrayExecutor` satisfying
   :class:`repro.hdl.compile.vector.VectorExecutor`, absorbing the
   column's interpreted processes so the compiled backend runs the whole
   array as a handful of NumPy operations per cycle.
"""

from __future__ import annotations

from .array import SmartArrayExecutor, StructuralSmartArray, VectorSmartArray

__all__ = ["verify_array_contract"]


def verify_array_contract(array) -> list[str]:
    """Structurally check one array instance; returns violation messages.

    An empty list means the instance satisfies every checkable obligation
    (behavioural equivalence is the conformance suite's job, not this
    function's).
    """
    # Imported here, not at module top: repro.hdl.compile transitively
    # imports repro.analysis (and through it repro.xisort), which itself
    # loads this package — a cycle at import time, fine at call time.
    from ..hdl.compile.vector import VectorExecutor

    problems: list[str] = []
    if not isinstance(array, (VectorSmartArray, StructuralSmartArray)):
        problems.append("array must subclass VectorSmartArray or StructuralSmartArray")
        return problems

    # obligation 2: command port and a zero-encoded NOP
    cmd = getattr(array, "cmd", None)
    if cmd is None or not hasattr(cmd, "value"):
        problems.append("array declares no 'cmd' input port")
    if int(array.NOP_CMD) != 0:
        problems.append(f"NOP_CMD must encode as 0, got {int(array.NOP_CMD)}")

    # obligation 4: vector arrays carry an explicit wheel hook (their fold
    # is always=True, invisible to read tracking); structural arrays
    # discharge it through their pure-seq cells, which certify by staging
    # nothing on NOP edges.
    if isinstance(array, VectorSmartArray) and not array.wheel_hooks:
        problems.append("array registered no wheel hook")
    if isinstance(array, StructuralSmartArray):
        for cell in array.cells:
            if cell._next_state() is not cell._state.value:
                problems.append(
                    f"{cell.path}: NOP step must return the identical state object"
                )
                break

    # obligation 5: the executor satisfies the VectorExecutor protocol
    executor = array.__compile_vector__()
    if not isinstance(executor, SmartArrayExecutor):
        problems.append("__compile_vector__ must return a SmartArrayExecutor")
        return problems
    if not isinstance(executor, VectorExecutor):
        problems.append("executor does not satisfy the VectorExecutor protocol")
    if executor.n_cells != array.n_cells:
        problems.append(
            f"executor covers {executor.n_cells} cells, array has {array.n_cells}"
        )
    if not executor.absorbed:
        problems.append("executor absorbs no processes")

    # obligation 1/3: vector state exposes the required inspection surface
    vec = executor.vec
    for attr in ("n", "clear", "state_of"):
        if not hasattr(vec, attr):
            problems.append(f"vector state lacks {attr!r}")
    return problems

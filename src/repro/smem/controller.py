"""The kit's microcode controller — the two-state FSM of thesis Fig. 3.10.

"The controller is implemented as a simple finite state machine having only
two states": *Idle* and *Run*.  A dispatch latches the operands and the
microprogram entry point; in Run the controller executes one horizontal
microinstruction per cycle — driving the cell-array command buses, its tiny
ALU and the output staging registers — and returns to Idle on the
program's ``done`` word, asserting ``completed`` for the adapter.

The FSM, the ROM flattening, the ALU and the controller-local atoms are
machine-independent; a concrete smart-memory unit subclasses
:class:`MicroController` with its microcode dict and (optionally)
overrides:

* :meth:`_read_port_atom` — map array-specific atoms onto the fold-tree
  output ports (the default knows none);
* :meth:`_drive_command` / :meth:`_drive_idle` — drive extra command
  buses beyond ``cmd``/``broadcast`` (e.g. ξ-sort's load buses).

Overrides must stay within the closure rules of
:mod:`repro.analysis.lint.astpass` (tracked Signal reads, resolvable
bound-method calls) so the lint and dataflow passes can model the two
controller processes.
"""

from __future__ import annotations

from typing import Optional

from ..hdl import Component, Rom
from .microcode import (
    HALF_BITS,
    HALF_MASK,
    INVALID_INSTR,
    AluOp,
    Atom,
    MicroInstr,
    pack_halves,
)

#: number of temporary registers in the controller datapath
N_TEMPS = 4


class MicroController(Component):
    """Executes microprograms against a smart-memory cell array."""

    def __init__(
        self,
        name: str,
        array,  # a VectorSmartArray | StructuralSmartArray implementer
        microcode: dict[int, tuple[MicroInstr, ...]],
        word_bits: int = 32,
        parent: Optional[Component] = None,
    ):
        super().__init__(name, parent)
        self.array = array
        self.word_bits = word_bits
        self._mask = (1 << word_bits) - 1

        # flatten the microcode ROM: variety → (base, length)
        image: list[MicroInstr] = []
        self._entry: dict[int, int] = {}
        for variety, program in sorted(microcode.items()):
            self._entry[variety] = len(image)
            image.extend(program)
        # Invalid-variety handler: one cycle, zeroed outputs, done.  Keeps the
        # unit from ever wedging on a bad variety code.
        self._invalid_entry = len(image)
        image.append(INVALID_INSTR)
        self.rom = Rom("urom", image, parent=self)

        # -- control interface (driven by the adapter) ---------------------------
        self.start = self.signal("start", 1, 0)
        self.variety = self.signal("variety", 8, 0)
        self.op_a = self.signal("op_a", word_bits, 0)
        self.op_b = self.signal("op_b", word_bits, 0)
        #: Idle/Run state bit (Fig. 3.10); 0 = Idle
        self.running = self.reg("running", 1, 0)
        #: strobes for one cycle when a program finishes
        self.completed = self.signal("completed", 1, 0)
        # staged results
        self.out_data1 = self.reg("out_data1", word_bits, 0)
        self.out_data2 = self.reg("out_data2", word_bits, 0)
        self.out_flags = self.reg("out_flags", 8, 0)

        # -- internal state ----------------------------------------------------------
        self._pc = self.reg("pc", 16, 0)
        self._op_a = self.reg("lat_op_a", word_bits, 0)
        self._op_b = self.reg("lat_op_b", word_bits, 0)
        self._temps = [self.reg(f"t{i}", word_bits, 0) for i in range(N_TEMPS)]
        self._done_now = self.signal("done_now", 1, 0)

        @self.comb
        def _drive() -> None:
            done = 0
            if self.running.value:
                uinstr: MicroInstr = self.rom.read(self._pc.value)
                self._drive_command(uinstr)
                done = 1 if uinstr.done else 0
            else:
                self._drive_idle()
            self._done_now.set(done)
            self.completed.set(done)

        @self.seq(pure=True)
        def _tick() -> None:
            if self.running.value:
                uinstr: MicroInstr = self.rom.read(self._pc.value)
                if uinstr.alu is not None:
                    dst, op, x_atom, y_atom = uinstr.alu
                    self._temps[dst].nxt = self._alu(op, x_atom, y_atom)
                for field_name, atom in uinstr.emit:
                    value = self._read_atom(atom)
                    if field_name == "data1":
                        self.out_data1.nxt = value
                    elif field_name == "data2":
                        self.out_data2.nxt = value
                    elif field_name == "flags":
                        self.out_flags.nxt = value
                    else:  # pragma: no cover - microcode is static
                        raise ValueError(f"unknown emit field {field_name!r}")
                if uinstr.done:
                    self.running.nxt = 0
                else:
                    self._pc.nxt = self._pc.value + 1
            elif self.start.value:
                variety = self.variety.value
                base = self._entry.get(variety, self._invalid_entry)
                self._pc.nxt = base
                self._op_a.nxt = self.op_a.value
                self._op_b.nxt = self.op_b.value
                self.running.nxt = 1

    # -- analysis metadata --------------------------------------------------------

    def rom_layout(self) -> list[tuple[int, int, tuple[MicroInstr, ...]]]:
        """Per-program ROM spans: ``(variety, base, rows)``.

        The FSM enters a program at its base and walks linearly until the
        first ``done`` word (there are no microcode branches), so this
        layout is the complete reachability model the dataflow verifier
        needs: within a span, rows after the first ``done`` can never
        execute.  The trailing invalid-variety handler is reported under
        variety ``-1``.
        """
        spans: list[tuple[int, int, tuple[MicroInstr, ...]]] = []
        bounds = sorted(self._entry.items(), key=lambda kv: kv[1])
        for i, (variety, base) in enumerate(bounds):
            end = bounds[i + 1][1] if i + 1 < len(bounds) else self._invalid_entry
            rows = tuple(self.rom.read(pc) for pc in range(base, end))
            spans.append((variety, base, rows))
        spans.append((-1, self._invalid_entry, (self.rom.read(self._invalid_entry),)))
        return spans

    # -- array bus driving --------------------------------------------------------

    def _drive_command(self, uinstr: MicroInstr) -> None:
        """Drive the array buses for one Run-state word.

        The default drives ``cmd`` and ``broadcast``; arrays with more
        command buses override (and :meth:`_drive_idle` with it — both
        must set the same port set every evaluation).
        """
        self.array.cmd.set(int(uinstr.cell_cmd))
        broadcast = 0
        if uinstr.broadcast is not None:
            broadcast = self._read_atom(uinstr.broadcast)
        self.array.broadcast.set(broadcast)

    def _drive_idle(self) -> None:
        """Park the array buses while Idle (NOP, zeroed broadcasts)."""
        self.array.cmd.set(int(self.array.NOP_CMD))
        self.array.broadcast.set(0)

    # -- atom / ALU evaluation ---------------------------------------------------------

    def _read_atom(self, atom: Atom) -> int:
        kind = atom[0]
        if kind == "op_a":
            return self._op_a.value
        if kind == "op_b":
            return self._op_b.value
        if kind == "t":
            return self._temps[atom[1]].value
        if kind == "imm":
            return atom[1]
        return self._read_port_atom(atom)

    def _read_port_atom(self, atom: Atom) -> int:
        """Array-defined atoms (fold-tree outputs); the kit knows none."""
        raise ValueError(f"unknown atom {atom!r}")

    def _alu(self, op: str, x_atom: Atom, y_atom: Atom) -> int:
        x = self._read_atom(x_atom)
        y = self._read_atom(y_atom)
        if op == AluOp.MOV:
            result = x
        elif op == AluOp.ADD:
            result = x + y
        elif op == AluOp.ADDP1:
            result = x + y + 1
        elif op == AluOp.ADDM1:
            result = x + y - 1
        elif op == AluOp.AND:
            result = x & y
        elif op == AluOp.HI16:
            result = (x >> HALF_BITS) & HALF_MASK
        elif op == AluOp.LO16:
            result = x & HALF_MASK
        elif op == AluOp.PACK:
            result = pack_halves(x, y)
        else:
            raise ValueError(f"unknown ALU op {op!r}")
        return result & self._mask

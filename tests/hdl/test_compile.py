"""Unit tests for the compiled simulation backend.

The backend is the event kernel plus the vector executors.  Covers
backend selection/dispatch, parity with the event kernel on designs the
executors do not touch (opaque callbacks, hidden mutable state,
data-dependent read sets, external forces), loop diagnostics and
recovery, reset, the vectorized cell-array executors, the counters
surfaced through ``KernelStats``, and the import layering between the
backend and the analysis packages.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.hdl import (
    CombinationalLoopError,
    Component,
    SimulationError,
    Simulator,
)
from repro.hdl.compile.engine import CompiledSimulator


class AdderChain(Component):
    """Fully provable design: comb chain into one accumulating register."""

    def __init__(self):
        super().__init__("chain")
        self.a = self.signal("a", 8, 0)
        self.b = self.signal("b", 8, 0)
        self.s1 = self.signal("s1", 8, 0)
        self.s2 = self.signal("s2", 8, 0)
        self.acc = self.reg("acc", 8, 0)

        @self.comb
        def _sum():
            self.s1.set(self.a.value + self.b.value)

        @self.comb
        def _shift():
            self.s2.set((self.s1.value << 1) | self.s1.bit(7))

        @self.seq
        def _accumulate():
            self.acc.nxt = self.acc.value + self.s2.value


class HiddenCallback(Component):
    """The comb proc calls an opaque Python callback."""

    def __init__(self, fn):
        super().__init__("cb")
        self.x = self.signal("x", 8, 0)
        self.y = self.signal("y", 8, 0)
        self._fn = fn

        @self.comb
        def _apply():
            self.y.set(self._fn(self.x.value))

        self.seq(lambda: None)


class MutableHidden(Component):
    """Comb proc reads a hidden *mutable* attribute (``always=True``)."""

    def __init__(self):
        super().__init__("mut")
        self.out = self.signal("out", 8, 0)
        self.table = [5]

        @self.comb(always=True)
        def _lookup():
            self.out.set(self.table[0])

        self.seq(lambda: None)


class BuiltinCall(Component):
    """Comb proc calls a builtin."""

    def __init__(self):
        super().__init__("mn")
        self.a = self.signal("a", 8, 0)
        self.b = self.signal("b", 8, 0)
        self.y = self.signal("y", 8, 0)

        @self.comb
        def _min():
            self.y.set(min(self.a.value, self.b.value))

        self.seq(lambda: None)


def _pair(make):
    """(event sim, compiled sim) over two fresh instances of a design."""
    t_event, t_comp = make(), make()
    return (t_event, Simulator(t_event)), (t_comp, Simulator(t_comp, backend="compiled"))


class TestBackendSelection:
    def test_compiled_dispatches_subclass(self):
        sim = Simulator(AdderChain(), backend="compiled")
        assert isinstance(sim, CompiledSimulator)
        assert sim.backend == "compiled"

    def test_aliases_and_unknown_backend(self):
        assert Simulator(AdderChain(), backend="event").backend == "event"
        assert Simulator(AdderChain(), backend="exhaustive").backend == "exhaustive"
        with pytest.raises(SimulationError):
            Simulator(AdderChain(), backend="tpu")

    def test_compiled_counters_populated(self):
        sim = Simulator(AdderChain(), backend="compiled")
        stats = sim.kernel_stats.as_dict()
        # no cell array: nothing is absorbed, everything is event-scheduled
        assert stats["compiled_procs"] == 0
        assert stats["vectorized_cells"] == 0
        assert stats["fallback_procs"] == 0
        assert stats["compile_ms"] > 0
        for key in ("compiled_procs", "fallback_procs", "vectorized_cells",
                    "compile_ms", "masks_elided"):
            assert key in stats


class TestTranslatedExecution:
    def test_matches_event_cycle_by_cycle(self):
        (te, se), (tc, sc) = _pair(AdderChain)
        for sim in (se, sc):
            sim.reset()
        for cyc in range(40):
            for top, sim in ((te, se), (tc, sc)):
                top.a.set(cyc & 0xFF)
                top.b.set((cyc * 7) & 0xFF)
                sim.step()
            assert te.acc.value == tc.acc.value
            assert te.s2.value == tc.s2.value
        assert se.now == sc.now

    def test_quiescent_settle_fast_path(self):
        top = AdderChain()
        sim = Simulator(top, backend="compiled")
        sim.reset()
        top.a.set(3)
        sim.settle()
        before = sim.kernel_stats.quiescent_settles
        sim.settle()  # nothing changed: must take the fast path
        assert sim.kernel_stats.quiescent_settles == before + 1

    def test_force_reaches_compiled_guards(self):
        top = AdderChain()
        sim = Simulator(top, backend="compiled")
        sim.reset()
        top.a.force(9)
        sim.settle()
        assert top.s1.value == 9


class TestFallbacks:
    def test_opaque_callback_still_correct(self):
        # eval keeps the callback's source out of inspect's reach, so no
        # static pass can see through the call.
        fn = eval("lambda v: (v * 3 + 1) & 0xFF")
        make = lambda: HiddenCallback(fn)
        (te, se), (tc, sc) = _pair(make)
        for sim in (se, sc):
            sim.reset()
        for v in (0, 1, 7, 200, 255):
            for top, sim in ((te, se), (tc, sc)):
                top.x.set(v)
                sim.step()
            assert te.y.value == tc.y.value

    def test_mutable_hidden_state_reruns_every_sweep(self):
        top = MutableHidden()
        sim = Simulator(top, backend="compiled")
        sim.reset()
        assert top.out.value == 5
        # Mutation is invisible to change notification; only an always-run
        # process (re-run on every settle) can observe it.
        top.table[0] = 42
        sim.step()
        assert top.out.value == 42

    def test_dynamic_pure_seq_matches_event(self):
        class LateBound(Component):
            """Pure seq with a data-dependent read set (mux on a reg)."""

            def __init__(self):
                super().__init__("late")
                self.sel = self.reg("sel", 1, 0)
                self.a = self.reg("a", 8, 10)
                self.b = self.reg("b", 8, 20)
                self.out = self.reg("out", 8, 0)

                @self.seq(pure=True)
                def _pick():
                    src = self.a if self.sel.value else self.b
                    self.out.nxt = src.value

                self.comb(lambda: None)

        (te, se), (tc, sc) = _pair(LateBound)
        for sim in (se, sc):
            sim.reset()
        script = [("sel", 1), ("a", 33), ("b", 44), ("sel", 0), ("b", 55)]
        for name, v in script:
            for top, sim in ((te, se), (tc, sc)):
                getattr(top, name).force(v)
                sim.step(2)
            assert te.out.value == tc.out.value

    def test_builtin_call_matches_event(self):
        (te, se), (tc, sc) = _pair(BuiltinCall)
        for sim in (se, sc):
            sim.reset()
        for a, b in ((9, 4), (2, 200), (255, 255)):
            for top, sim in ((te, se), (tc, sc)):
                top.a.set(a)
                top.b.set(b)
                sim.step()
            assert te.y.value == tc.y.value == min(a, b)


class TestLoopsAndReset:
    def test_comb_loop_detected_and_recoverable(self):
        class Osc(Component):
            def __init__(self):
                super().__init__("osc")
                self.x = self.signal("x", 1, 0)
                self.en = self.signal("en", 1, 1)

                @self.comb
                def _not():
                    if self.en.value:
                        self.x.set(0 if self.x.value else 1)

                self.seq(lambda: None)

        top = Osc()
        sim = Simulator(top, backend="compiled")
        with pytest.raises(CombinationalLoopError) as exc:
            sim.reset()
        assert "x" in str(exc.value)
        top.en.force(0)
        sim.settle()  # the engine must stay usable after the diagnostic
        assert sim.settle() == 0

    def test_reset_restores_power_on_state(self):
        top = AdderChain()
        sim = Simulator(top, backend="compiled")
        sim.reset()
        top.a.set(5)
        sim.step(3)
        assert top.acc.value != 0
        sim.reset()
        assert top.acc.value == 0
        assert top.s1.value == 0


class TestVectorizedCellArrays:
    def test_executor_absorbs_both_array_kinds(self):
        from repro.xisort import XiSortCore

        for kind in ("vector", "structural"):
            sim = Simulator(
                XiSortCore("xi", n_cells=8, array_kind=kind), backend="compiled"
            )
            assert sim.kernel_stats.vectorized_cells == 8

    def test_structural_states_redirect_through_executor(self):
        from repro.xisort import DirectXiSortMachine

        m = DirectXiSortMachine(8, array_kind="structural", backend="compiled")
        m.load([30, 10, 20])
        states = m.core.array.states()
        # LOAD shifts values in at cell 0; matches the interpreted backends.
        assert [s.data for s in states[:3]] == [20, 10, 30]

    def test_sort_identical_across_backends_and_kinds(self):
        from repro.xisort import DirectXiSortMachine

        values = [44, 7, 99, 23, 61, 5, 80, 12]
        outcomes = set()
        for backend in ("event", "compiled"):
            for kind in ("vector", "structural"):
                m = DirectXiSortMachine(8, array_kind=kind, backend=backend)
                outcomes.add((tuple(m.sort(values)), m.cycles))
        assert len(outcomes) == 1
        assert list(next(iter(outcomes))[0]) == sorted(values)

    def test_ten_thousand_cells_elaborate_and_run(self):
        from repro.xisort import DirectXiSortMachine

        m = DirectXiSortMachine(10_000, array_kind="structural", backend="compiled")
        assert m.sim.kernel_stats.vectorized_cells == 10_000
        values = [5, 3, 9, 1]
        assert m.sort(values) == sorted(values)


class TestSystemIntegration:
    def test_build_system_backend_compiled(self):
        from repro.system import build_system

        system = build_system(backend="compiled", lint="off")
        assert system.sim.backend == "compiled"

    def test_counters_for_surfaces_codegen_stats(self):
        from repro.analysis import counters_for
        from repro.fu.registry import default_registry
        from repro.isa.opcodes import Opcode
        from repro.system import build_system
        from repro.xisort import xisort_factory

        registry = default_registry()
        registry.register(Opcode.XISORT, xisort_factory(n_cells=16))
        system = build_system(registry=registry, backend="compiled", lint="off")
        report = counters_for(system)
        assert report.kernel["compiled_procs"] > 0
        assert report.kernel["vectorized_cells"] == 16
        assert "compiled procs" in report.kernel_table()


def _modules_after(statements: str) -> set:
    """``repro`` modules loaded by ``statements`` in a fresh interpreter."""
    root = Path(__file__).resolve().parents[2]
    script = (
        "import sys\n"
        f"{statements}\n"
        "print('\\n'.join(m for m in sys.modules if m.startswith('repro')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run([sys.executable, "-c", script], env=env, cwd=root,
                         capture_output=True, text=True, check=True)
    return set(out.stdout.split())


class TestImportLayers:
    """The kernel backends and the analysis packages stay acyclic."""

    def test_compile_loads_no_analysis_module(self):
        loaded = _modules_after("import repro.hdl.compile")
        assert "repro.hdl.compile.engine" in loaded
        assert sorted(m for m in loaded if m.startswith("repro.analysis")) == []

    def test_lint_never_loads_the_compiled_backend(self):
        # all_rules() imports every built-in rule module
        loaded = _modules_after(
            "import repro.analysis.lint\n"
            "from repro.analysis.lint.engine import all_rules\n"
            "all_rules()"
        )
        assert "repro.analysis.lint.engine" in loaded
        assert sorted(m for m in loaded if m.startswith("repro.hdl.compile")) == []

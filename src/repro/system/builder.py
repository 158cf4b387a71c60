"""System builder — the "configure the interface framework" step (§II).

The paper's workflow for a programmer is: partition the algorithm, define
functional units, then *configure the interface framework by specifying
size parameters for the register file and selecting the appropriate
transmitter and receiver modules*.  :class:`SystemBuilder` is that step as
a fluent API; :func:`build_system` is the one-call convenience wrapper used
throughout the tests, examples and benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..config import FrameworkConfig
from ..faults import StateFaultSpec
from ..fu.registry import UnitRegistry, default_registry
from ..hdl import Simulator
from ..messages.channel import INTEGRATED, ChannelSpec
from ..messages.faults import FaultSpec
from .soc import CoprocessorSystem


@dataclass
class BuiltSystem:
    """A wired system plus its simulator (what the builder produces)."""

    soc: CoprocessorSystem
    sim: Simulator
    #: default in-flight window for host engines opened on this system
    #: (None → the engine's own DEFAULT_WINDOW)
    engine_window: Optional[int] = None

    @property
    def config(self) -> FrameworkConfig:
        return self.soc.config


class SystemBuilder:
    """Fluent configuration of a coprocessor installation."""

    def __init__(self, config: Optional[FrameworkConfig] = None):
        self._config = config if config is not None else FrameworkConfig()
        self._channel: ChannelSpec = INTEGRATED
        self._upstream: Optional[ChannelSpec] = None
        self._registry: Optional[UnitRegistry] = None
        self._unit_codes: Optional[Sequence[int]] = None
        self._backend: str = "event"
        self._wheel: bool = True
        self._engine_window: Optional[int] = None
        self._downstream_faults: Optional[FaultSpec] = None
        self._upstream_faults: Optional[FaultSpec] = None
        self._state_faults: Optional[StateFaultSpec] = None
        self._state_protection: bool = False
        self._lint: str = "warn"
        self._fp_units: Optional[dict] = None

    def with_lint(self, mode: str) -> "SystemBuilder":
        """Set the elaboration-time design-rule check posture.

        ``"warn"`` (default) runs the lint engine over the freshly wired
        system and prints any findings to stderr; ``"error"`` additionally
        raises :class:`~repro.analysis.lint.LintFailure` when an
        error-severity rule fires; ``"off"`` skips the check (mid-debug
        builds of deliberately broken designs).
        """
        if mode not in ("off", "warn", "error"):
            raise ValueError(f"lint mode must be off/warn/error, got {mode!r}")
        self._lint = mode
        return self

    def with_engine(self, window: int) -> "SystemBuilder":
        """Set the default host-engine in-flight window for this system.

        Drivers opened on the built system inherit it unless they pass
        their own ``window`` — the deployment-level knob for how deep the
        host may pipeline requests into the link.
        """
        if window < 1:
            raise ValueError("engine window must be at least 1")
        self._engine_window = window
        return self

    def with_backend(self, backend: str) -> "SystemBuilder":
        """Select the simulation backend for the built system.

        ``"event"`` (default) is the dependency-tracked interpreted
        kernel; ``"exhaustive"`` is the reference kernel, kept as the
        equivalence oracle and microbenchmark baseline; ``"compiled"``
        selects the codegen backend (:mod:`repro.hdl.compile`), which
        flattens the elaborated graph into specialized straight-line
        Python.  Every backend is cycle-exact and produces identical
        traces.
        """
        self._backend = backend
        return self

    def with_wheel(self, enabled: bool = True) -> "SystemBuilder":
        """Enable or disable the cycle-skipping time wheel.

        On by default (and cycle-exact either way — the wheel only jumps
        when every armed process certifies pure aging); turning it off
        forces every edge to execute, which the equivalence suites use to
        cross-check the fast-forward path.  Ignored by the exhaustive
        backend, which always steps every cycle.
        """
        self._wheel = bool(enabled)
        return self

    def with_config(self, **kwargs) -> "SystemBuilder":
        """Override framework generics (word_bits, n_regs, …)."""
        self._config = self._config.with_(**kwargs)
        return self

    def with_channel(
        self, spec: ChannelSpec, upstream: Optional[ChannelSpec] = None
    ) -> "SystemBuilder":
        """Select the link model (transceiver selection in the paper).

        ``upstream`` selects a different spec for the coprocessor→host
        direction (asymmetric fabrics).
        """
        self._channel = spec
        self._upstream = upstream
        return self

    def with_faults(
        self,
        downstream: Optional[FaultSpec],
        upstream: Optional[FaultSpec] = None,
    ) -> "SystemBuilder":
        """Inject a deterministic fault schedule into the link.

        ``downstream`` afflicts the host→coprocessor direction, ``upstream``
        the reverse.  Pair with :meth:`with_reliability` unless the point is
        to demonstrate undetected corruption.
        """
        self._downstream_faults = downstream
        self._upstream_faults = upstream
        return self

    def with_state_faults(self, spec: Optional[StateFaultSpec]) -> "SystemBuilder":
        """Inject a deterministic SEU schedule into the coprocessor's state.

        Enables the whole protection stack (ECC shadows, scrubber,
        machine-check unit) and flips bits in the register files, the lock
        manager's scoreboard, the unit table's config bits and the
        smart-memory cell payloads per the spec's seeded schedule.  Pair
        with a reliable host engine for checkpoint/rollback recovery.
        """
        self._state_faults = spec
        return self

    def with_state_protection(self, enabled: bool = True) -> "SystemBuilder":
        """Enable ECC/parity shadows + scrubbing without injecting faults.

        The zero-fault baseline for measuring protection overhead; also
        the posture a deployment would ship with.
        """
        self._state_protection = bool(enabled)
        return self

    def with_reliability(self, resync_flush_cycles: Optional[int] = None) -> "SystemBuilder":
        """Enable the checksummed, sequence-numbered frame format on both
        directions (see :mod:`repro.messages.reliability`)."""
        overrides = {"reliable_framing": True}
        if resync_flush_cycles is not None:
            overrides["resync_flush_cycles"] = resync_flush_cycles
        self._config = self._config.with_(**overrides)
        return self

    def with_registry(self, registry: UnitRegistry) -> "SystemBuilder":
        """Provide a custom functional-unit registry."""
        self._registry = registry
        return self

    def with_unit(self, code: int, factory) -> "SystemBuilder":
        """Register one extra functional unit on top of the defaults."""
        if self._registry is None:
            self._registry = default_registry(self._config.pipelined_units)
        self._registry.register(code, factory)
        return self

    def with_units(self, codes: Sequence[int]) -> "SystemBuilder":
        """Restrict the build to a subset of registered unit codes."""
        self._unit_codes = tuple(codes)
        return self

    def with_ooo(self, window: Optional[int] = None) -> "SystemBuilder":
        """Enable the out-of-order issue engine (register renaming).

        Replaces the in-order dispatcher with the renaming issue queue
        (:class:`repro.rtm.ooo.OoODispatcher`): independent younger
        instructions bypass a stalled older one while GET/GETF result
        streams stay byte-identical to the in-order machine.  ``window``
        overrides the issue-queue depth (default: the config's
        ``ooo_window``).
        """
        overrides: dict = {"ooo": True}
        if window is not None:
            overrides["ooo_window"] = window
        self._config = self._config.with_(**overrides)
        return self

    def with_fp_units(
        self, add_depth: int = 6, mul_depth: int = 7, fma_depth: int = 8
    ) -> "SystemBuilder":
        """Add the pipelined floating-point family (add/mul/FMA).

        Extends whatever registry is configured so far (default registry
        otherwise) — see :func:`repro.fu.registry.fp_registry`.  Depths
        are the per-unit pipeline stage counts; the actual build happens
        at :meth:`build` time so later ``with_registry`` calls compose.
        """
        self._fp_units = {
            "add_depth": add_depth, "mul_depth": mul_depth, "fma_depth": fma_depth
        }
        return self

    def with_smem_suite(
        self, n_cells: int = 64, array_kind: str = "vector"
    ) -> "SystemBuilder":
        """Register the whole smart-memory suite on top of the defaults.

        Adds ξ-sort, prefix scan, histogram and string match (see
        :func:`repro.fu.registry.smem_suite_registry`) at their default
        opcodes, each with an ``n_cells``-cell array of the given kind.
        Replaces any registry configured so far.
        """
        from ..fu.registry import smem_suite_registry

        self._registry = smem_suite_registry(
            self._config.pipelined_units, n_cells, array_kind
        )
        return self

    def build(self) -> BuiltSystem:
        registry = self._registry
        if self._fp_units is not None:
            from ..fu.registry import fp_registry

            if registry is None:
                registry = default_registry(self._config.pipelined_units)
            registry = fp_registry(registry, **self._fp_units)
        soc = CoprocessorSystem(
            self._config,
            channel=self._channel,
            registry=registry,
            unit_codes=self._unit_codes,
            upstream_channel=self._upstream,
            downstream_faults=self._downstream_faults,
            upstream_faults=self._upstream_faults,
            state_faults=self._state_faults,
            state_protection=self._state_protection,
        )
        sim = Simulator(
            soc,
            wheel=self._wheel,
            backend=self._backend,
        )
        sim.reset()
        if soc.state_domain is not None:
            soc.state_domain.bind_clock(lambda: sim.now)
        built = BuiltSystem(soc=soc, sim=sim, engine_window=self._engine_window)
        if self._lint != "off":
            _run_lint(built, self._lint)
        return built


def _run_lint(built: BuiltSystem, mode: str) -> None:
    """Design-rule check a freshly built system (see repro.analysis.lint).

    Imported lazily: the lint package depends on the HDL layer, and pulling
    it in at module import would cycle through ``repro.system``.
    """
    import sys

    from ..analysis.lint import Linter, LintFailure, Severity

    report = Linter().lint(built.soc, sim=built.sim)
    if mode == "error" and report.errors:
        raise LintFailure(report)
    findings = report.at_least(Severity.WARNING)
    if findings:
        print(report.format(Severity.WARNING), file=sys.stderr)


def build_system(
    config: Optional[FrameworkConfig] = None,
    channel: ChannelSpec = INTEGRATED,
    registry: Optional[UnitRegistry] = None,
    unit_codes: Optional[Sequence[int]] = None,
    window: Optional[int] = None,
    faults: Optional[FaultSpec] = None,
    upstream_faults: Optional[FaultSpec] = None,
    state_faults: Optional[StateFaultSpec] = None,
    state_protection: bool = False,
    reliable: bool = False,
    wheel: bool = True,
    lint: str = "warn",
    backend: str = "event",
    ooo: bool = False,
    ooo_window: Optional[int] = None,
    fp_units: bool = False,
) -> BuiltSystem:
    """One-call system construction with sensible defaults.

    ``faults``/``upstream_faults`` inject a deterministic fault schedule
    into the corresponding link direction; ``state_faults`` injects a
    seeded SEU schedule into the coprocessor's architectural state (and
    enables the ECC/scrub/machine-check stack); ``state_protection=True``
    enables that stack without injection (overhead baseline);
    ``reliable=True`` turns on the
    checksummed frame format that recovers from those faults;
    ``wheel=False`` disables the cycle-skipping time wheel (cycle-exact
    either way — the off switch exists for equivalence cross-checks);
    ``lint`` sets the design-rule check posture (``"warn"`` default,
    ``"error"`` to raise on violations, ``"off"`` to skip — see
    :mod:`repro.analysis.lint`); ``backend`` selects the simulation
    kernel — ``"event"`` (default), the ``"exhaustive"`` reference or
    the ``"compiled"`` codegen backend (:mod:`repro.hdl.compile`), all
    cycle-exact with identical traces; ``ooo=True`` swaps in the
    out-of-order issue engine with register renaming (``ooo_window``
    sizes its issue queue); ``fp_units=True`` adds the pipelined
    floating-point family on top of whatever registry is in effect.
    """
    builder = (
        SystemBuilder(config)
        .with_channel(channel)
        .with_backend(backend)
        .with_wheel(wheel)
        .with_lint(lint)
    )
    if registry is not None:
        builder.with_registry(registry)
    if ooo or ooo_window is not None:
        builder.with_ooo(ooo_window)
    if fp_units:
        builder.with_fp_units()
    if unit_codes is not None:
        builder.with_units(unit_codes)
    if window is not None:
        builder.with_engine(window)
    if faults is not None or upstream_faults is not None:
        builder.with_faults(faults, upstream_faults)
    if state_faults is not None:
        builder.with_state_faults(state_faults)
    if state_protection:
        builder.with_state_protection()
    if reliable:
        builder.with_reliability()
    return builder.build()

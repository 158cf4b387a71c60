"""System builder — the "configure the interface framework" step (§II).

The paper's workflow for a programmer is: partition the algorithm, define
functional units, then *configure the interface framework by specifying
size parameters for the register file and selecting the appropriate
transmitter and receiver modules*.  :class:`SystemBuilder` is that step as
data: one frozen spec whose fields are the whole construction surface,
checked when the spec is made and elaborated by :meth:`SystemBuilder.build`.
:func:`build_system` is the one-call spelling used throughout the tests,
examples and benchmarks.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass, field
from typing import Any, Mapping, Optional, Sequence

from ..config import FrameworkConfig
from ..faults import StateFaultSpec
from ..fu.registry import UnitFactory, UnitRegistry, default_registry, fp_registry
from ..hdl import SimulationError, Simulator
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


@dataclass(frozen=True)
class SystemBuilder:
    """The specification of one coprocessor installation.

    Everything but ``config`` is keyword-only.  Values are checked when the
    spec is constructed, before any component elaborates; :meth:`build`
    wires the design and returns a :class:`BuiltSystem`.
    """

    #: Framework generics (word size, register counts, FIFO depths, …);
    #: ``None`` → the :class:`FrameworkConfig` defaults.  Once constructed it
    #: holds the effective generics, with ``reliable`` and ``ooo`` folded in.
    config: Optional[FrameworkConfig] = None
    _: KW_ONLY
    #: Link model of the host→coprocessor direction (the paper's
    #: transmitter/receiver selection).
    channel: ChannelSpec = INTEGRATED
    #: Link model of the coprocessor→host direction (None → ``channel``);
    #: set it for asymmetric fabrics.
    upstream_channel: Optional[ChannelSpec] = None
    #: Functional-unit registry to start from (None → the case-study units
    #: in the flavour ``config.pipelined_units`` selects).  Never mutated.
    registry: Optional[UnitRegistry] = None
    #: Extra units, ``{code: factory}``, registered on top of ``registry``.
    units: Mapping[int, UnitFactory] = field(default_factory=dict)
    #: Build only these codes of the resolved registry (None → all of them).
    unit_codes: Optional[Sequence[int]] = None
    #: Add the pipelined floating-point family (FPADD/FPMUL/FPFMA at their
    #: default depths, see :func:`repro.fu.registry.fp_registry`) last.
    fp_units: bool = False
    #: Default host-engine in-flight window for drivers opened on the built
    #: system (None → the engine's own default): how deep the host may
    #: pipeline requests into the link.
    window: Optional[int] = None
    #: Deterministic fault schedule for the host→coprocessor link direction.
    faults: Optional[FaultSpec] = None
    #: Deterministic fault schedule for the coprocessor→host link direction.
    upstream_faults: Optional[FaultSpec] = None
    #: Seeded SEU schedule for the coprocessor's state (register files,
    #: scoreboard, unit table, cell payloads); enables the protection stack.
    state_faults: Optional[StateFaultSpec] = None
    #: ECC/parity shadows, scrubber and machine-check unit without injected
    #: faults: the zero-fault overhead baseline and the shipping posture.
    state_protection: bool = False
    #: Checksummed, sequence-numbered framing on both link directions
    #: (``config.reliable_framing``, see :mod:`repro.messages.reliability`).
    reliable: bool = False
    #: Out-of-order issue engine with register renaming in place of the
    #: in-order dispatcher (``config.ooo``; ``config.ooo_window`` sizes it).
    ooo: bool = False
    #: Cycle-skipping time wheel; cycle-exact either way, off only for
    #: equivalence cross-checks.  Ignored by the exhaustive backend.
    wheel: bool = True
    #: Elaboration-time design-rule check (:mod:`repro.analysis.lint`):
    #: ``"warn"`` prints findings to stderr, ``"error"`` also raises
    #: :class:`~repro.analysis.lint.LintFailure` on an error-severity rule,
    #: ``"off"`` skips the check.
    lint: str = "warn"
    #: Simulation kernel: ``"event"``, the ``"exhaustive"`` reference or
    #: ``"compiled"`` (the event kernel plus numpy executors for the
    #: smart-memory cell arrays, :mod:`repro.hdl.compile`); all are
    #: cycle-exact with identical traces.
    backend: str = "event"

    def __post_init__(self) -> None:
        if self.backend not in Simulator.BACKENDS:
            raise SimulationError(f"unknown backend {self.backend!r}")
        if self.lint not in ("off", "warn", "error"):
            raise ValueError(f"lint mode must be off/warn/error, got {self.lint!r}")
        if self.window is not None and self.window < 1:
            raise ValueError("engine window must be at least 1")
        config = self.config if self.config is not None else FrameworkConfig()
        if self.reliable:
            config = config.with_(reliable_framing=True)
        if self.ooo:
            config = config.with_(ooo=True)
        object.__setattr__(self, "config", config)

    def unit_registry(self) -> UnitRegistry:
        """The registry the design is built from, resolved against the final
        ``config``: ``registry`` or the default one, ``units``, then FP."""
        base = self.registry
        if base is None:
            base = default_registry(self.config.pipelined_units)
        registry = base.copy()
        for code, factory in self.units.items():
            registry.register(code, factory)
        return fp_registry(registry) if self.fp_units else registry

    def build(self) -> BuiltSystem:
        soc = CoprocessorSystem(self)
        sim = Simulator(soc, wheel=self.wheel, backend=self.backend)
        sim.reset()
        if soc.state_domain is not None:
            soc.state_domain.bind_clock(lambda: sim.now)
        built = BuiltSystem(soc=soc, sim=sim, engine_window=self.window)
        if self.lint != "off":
            _run_lint(built, self.lint)
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


def build_system(*args: Any, **kwargs: Any) -> BuiltSystem:
    """One-call system construction; takes the :class:`SystemBuilder` fields."""
    return SystemBuilder(*args, **kwargs).build()

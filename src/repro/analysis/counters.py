"""Hardware performance counters: what the framework's blocks actually did.

Aggregates the event counters the components maintain (dispatches, stall
cycles, arbiter grants per port, writes, decode errors, outbound messages)
into one report — the observability a bring-up engineer instruments a real
FPGA design with, and the raw material for the pipeline benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .report import format_table


@dataclass
class CounterReport:
    """Snapshot of every framework counter."""

    cycles: int
    dispatches: int
    stall_cycles: int
    retired_ops: int
    writes: int
    decode_errors: int
    messages_sent: int
    grants_by_port: dict[int, int] = field(default_factory=dict)
    locks_outstanding: int = 0
    #: settle-scheduler counters (``Simulator.kernel_stats.as_dict()``);
    #: empty when the report was built without a simulator in hand
    kernel: dict = field(default_factory=dict)
    #: host-engine counters (``HostEngine.stats.as_dict()``); empty when the
    #: report was built without a driver in hand
    engine: dict = field(default_factory=dict)
    #: link-integrity counters: per-direction fault-injection stats plus the
    #: coprocessor-side reliability receiver's counters; empty on a clean,
    #: plain-framing system
    link: dict = field(default_factory=dict)
    #: state-fault counters (``StateFaultPlan.stats.as_dict()``): upsets
    #: injected/corrected, scrub activity, detection latency; empty on an
    #: unprotected system
    state: dict = field(default_factory=dict)
    #: issue-engine counters (``dispatcher.issue_stats()``): issue mode,
    #: per-cause stall tallies, issue-queue occupancy; empty when the
    #: report was built from a bare RTM without the dispatcher in hand
    issue: dict = field(default_factory=dict)

    @property
    def dispatch_rate(self) -> float:
        """Unit dispatches per cycle (utilisation of the dispatch port)."""
        return self.dispatches / self.cycles if self.cycles else 0.0

    @property
    def stall_fraction(self) -> float:
        """Fraction of cycles the dispatcher spent blocked on hazards."""
        return self.stall_cycles / self.cycles if self.cycles else 0.0

    def table(self) -> str:
        rows = [
            ["cycles", self.cycles],
            ["unit dispatches", self.dispatches],
            ["dispatcher stall cycles", self.stall_cycles],
            ["execution-stage retirements", self.retired_ops],
            ["register writes", self.writes],
            ["decode errors", self.decode_errors],
            ["messages to host", self.messages_sent],
            ["locks outstanding", self.locks_outstanding],
        ]
        for port, grants in sorted(self.grants_by_port.items()):
            rows.append([f"arbiter grants, port {port}", grants])
        return format_table(["counter", "value"], rows, title="framework counters")

    @property
    def ipc(self) -> float:
        """Completed instructions (unit + execution-stage) per cycle."""
        if not self.issue or not self.cycles or self.cycles < 0:
            return 0.0
        return self.issue.get("issued_total", 0) / self.cycles

    def issue_table(self) -> str:
        """Issue-engine counters as a table (empty string when absent)."""
        if not self.issue:
            return ""
        rows = [[name.replace("_", " "), value] for name, value in self.issue.items()]
        if self.cycles and self.cycles > 0:
            rows.append(["instructions per cycle", f"{self.ipc:.3f}"])
        return format_table(["issue counter", "value"], rows,
                            title="issue engine (dispatcher.issue_stats)")

    def kernel_table(self) -> str:
        """Settle-scheduler counters as a table (empty string when absent)."""
        if not self.kernel:
            return ""
        rows = [[name.replace("_", " "), value] for name, value in self.kernel.items()]
        return format_table(["kernel counter", "value"], rows,
                            title="settle scheduler (Simulator.kernel_stats)")

    def engine_table(self) -> str:
        """Host-engine counters as a table (empty string when absent)."""
        if not self.engine:
            return ""
        rows = [[name.replace("_", " "), value] for name, value in self.engine.items()]
        return format_table(["engine counter", "value"], rows,
                            title="host engine (HostEngine.stats)")

    def link_table(self) -> str:
        """Link fault/reliability counters as a table (empty when absent)."""
        if not self.link:
            return ""
        rows = []
        for section, counters in self.link.items():
            for name, value in counters.items():
                rows.append([f"{section}: {name.replace('_', ' ')}", value])
        return format_table(["link counter", "value"], rows,
                            title="link integrity (faults + reliability)")

    def state_table(self) -> str:
        """State-fault counters as a table (empty string when absent)."""
        if not self.state:
            return ""
        rows = [[name.replace("_", " "), value] for name, value in self.state.items()]
        return format_table(["state counter", "value"], rows,
                            title="state faults (StateFaultPlan.stats)")

    @property
    def settle_activations_per_cycle(self) -> float:
        """Scheduled comb executions per cycle — the event kernel's work rate."""
        if not self.kernel or not self.cycles or self.cycles < 0:
            return 0.0
        return (self.kernel["activations"] + self.kernel["always_runs"]) / self.cycles


def collect_counters(soc) -> CounterReport:
    """Read every counter from a (single- or multi-host) system's RTM."""
    rtm = soc.rtm
    sim_cycles = getattr(soc, "_sim_cycles", None)
    return CounterReport(
        cycles=sim_cycles if sim_cycles is not None else -1,
        dispatches=rtm.dispatcher.dispatch_count,
        stall_cycles=rtm.dispatcher.stall_cycles,
        retired_ops=rtm.execution.retired,
        writes=rtm.write_arbiter.writes_performed,
        decode_errors=rtm.decoder.decode_errors,
        messages_sent=rtm.serializer.messages_sent,
        grants_by_port=dict(rtm.write_arbiter.grants_by_port),
        locks_outstanding=rtm.lockmgr.locked_count,
        issue=rtm.dispatcher.issue_stats(),
    )


def counters_for(system, driver=None) -> CounterReport:
    """Counter snapshot for a BuiltSystem, with one CPU or several.

    Pass the :class:`repro.host.CoprocessorDriver` in use to fold its host
    engine's counters (in-flight high-water, queue depth, window stalls)
    into the report; on a multi-host system that is one CPU's engine.
    """
    report = collect_counters(system.soc)
    report.cycles = system.sim.now
    report.kernel = system.sim.kernel_stats.as_dict()
    report.link = link_counters_for(system)
    report.state = state_counters_for(system)
    if driver is not None:
        report.engine = engine_counters_for(driver)
    return report


def kernel_counters_for(sim) -> dict:
    """Settle-scheduler counter snapshot for a bare :class:`Simulator`."""
    return sim.kernel_stats.as_dict()


def engine_counters_for(driver) -> dict:
    """Host-engine counter snapshot for a driver (or a bare HostEngine)."""
    engine = getattr(driver, "engine", driver)
    return engine.stats.as_dict()


def state_counters_for(system) -> dict:
    """State-fault domain counters for a built system (empty if unprotected).

    The flat :class:`~repro.faults.StateFaultStats` dict: upsets injected
    (single/double), inline-ECC corrections, uncorrectable detections,
    scrubber visits/epochs, and detection-latency aggregates.  Host-side
    recovery counters (checkpoints, rollbacks, replays) live in the engine
    section — they are the host's doing, not the coprocessor's.
    """
    soc = getattr(system, "soc", system)
    domain = getattr(soc, "state_domain", None)
    if domain is None:
        return {}
    return domain.stats.as_dict()


def link_counters_for(system) -> dict:
    """Link fault-injection and reliability counters for a built system.

    Sections (each a flat counter dict, present only when applicable):

    * ``downstream_faults``/``upstream_faults`` — what the injected fault
      schedule actually did to each direction's word stream,
    * ``rtm_receiver`` — the coprocessor-side reliable deframer and NACK
      counters (reliable-framing systems only).
    """
    soc = getattr(system, "soc", system)
    counters: dict = {}
    link = getattr(soc, "link", None)
    for section, line in (
        ("downstream_faults", getattr(link, "downstream", None)),
        ("upstream_faults", getattr(link, "upstream", None)),
    ):
        stats = getattr(line, "fault_stats", None)
        if stats is not None:
            counters[section] = stats.as_dict()
    rtm_stats = getattr(getattr(soc, "rtm", None), "msgbuffer", None)
    rtm_stats = getattr(rtm_stats, "reliability_stats", None)
    if rtm_stats:
        counters["rtm_receiver"] = rtm_stats
    return counters

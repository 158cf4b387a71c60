"""Host-side driver: the software component that talks to the coprocessor.

"The entire system is controlled by the host computer.  To perform an
accelerated operation, the host sends one or more packets of data to the
controller on the FPGA ... and [the controller] returns the final results
to the processor" (§II).  The driver frames messages onto the simulated
channel, advances the simulation (standing in for wall-clock time passing
on the host), and deframes responses.

Since the engine refactor the driver is a thin synchronous facade over
:class:`repro.host.engine.HostEngine`: every blocking call is a tracked
submission followed by ``Future.result()``, and the asynchronous variants
(``read_reg_async``/``read_flags_async``/``halt_async``) expose the
futures directly.  Responses are correlated to requests by the GET/GETF
tag through the engine's completion router, so interleaved responses of
other types stay queued in ``inbox`` instead of being dropped or raising
spuriously.

Every driver call accounts its cost in *coprocessor clock cycles* via the
underlying simulator — the currency all benchmarks report.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..isa.encoding import Instruction, encode
from ..messages.multihost import TAG_SEQ_MASK, host_tag
from ..messages.types import (
    DataRecord,
    Exec,
    FlagVector,
    Halted,
    Message,
    Reset,
    WriteFlags,
    WriteReg,
)
from ..system.builder import BuiltSystem
from .engine import DEFAULT_WINDOW, CoprocessorError, HostEngine, HostFuture
from .errors import HostTimeoutError, LinkDownError

__all__ = [
    "CoprocessorDriver",
    "CoprocessorError",
    "HostTimeoutError",
    "LinkDownError",
]

#: Extra idle cycles `run_until_quiet` demands beyond the channel latency
#: before declaring the system quiet.  The `busy` probe unions per-stage
#: occupancy registers that update at clock edges, so a word handed off at
#: edge N can be invisible for the one settle in which the producer has
#: already dropped it and the consumer has not yet committed it; two spare
#: cycles cover that handoff blind spot on both directions.
QUIET_HANDOFF_MARGIN = 2


def quiet_hysteresis(link) -> int:
    """Idle-streak bound for quiescence detection, derived from the link.

    A word is out of the `busy` probe's sight for at most the channel's
    pipeline latency (the delay line holds it visibly, but the downstream
    consumer's occupancy only registers ``latency_cycles`` after
    acceptance on the slowest direction), plus the one-cycle register
    handoff margin at each end.  Pumping that many consecutive idle cycles
    therefore guarantees nothing is silently in flight.

    Abstract links expose that latency as a :class:`ChannelSpec`; physical
    link models (e.g. the UART pair) expose an effective word time instead,
    which bounds how long one word can sit inside the shift registers.
    """
    spec = getattr(link, "spec", None)
    if spec is not None:
        upstream = getattr(link, "upstream_spec", spec)
        latency = max(spec.latency_cycles, upstream.latency_cycles)
    else:
        latency = getattr(link, "cycles_per_word", 1)
    return latency + QUIET_HANDOFF_MARGIN


class CoprocessorDriver:
    """Message-level interface to a built system, as one of its host CPUs.

    ``cpu`` picks the port in ``system.soc.hosts`` (a hand-built top level
    that only has a ``host`` port has one CPU).  On a shared bus the driver
    confines its tags to that CPU's slice of the tag space unless ``tags``
    says otherwise.  Register partitioning between CPUs is a software
    convention, as on any shared coprocessor (see ``Session(reg_range=…)``).
    """

    def __init__(
        self,
        system: BuiltSystem,
        raise_on_exception: bool = True,
        cpu: int = 0,
        window: Optional[int] = None,
        tags: Optional[Iterable[int]] = None,
    ):
        self.system = system
        self.soc = system.soc
        self.sim = system.sim
        self.raise_on_exception = raise_on_exception
        hosts = getattr(self.soc, "hosts", None) or [self.soc.host]
        if not 0 <= cpu < len(hosts):
            raise ValueError(f"cpu {cpu} out of range for {len(hosts)} host(s)")
        #: which CPU of the system this driver is (paper Fig. 1.1)
        self.cpu = cpu
        #: the HostPort this driver speaks through
        self.host = hosts[cpu]
        if tags is None and len(hosts) > 1:
            # the shared bus routes a response home by the CPU id in the top
            # bits of its tag, so this CPU may only hand out its own slice
            tags = [host_tag(cpu, seq) for seq in range(TAG_SEQ_MASK + 1)]
        if window is None:
            window = getattr(system, "engine_window", None) or DEFAULT_WINDOW
        self.engine = HostEngine(
            system,
            self.host,
            window=window,
            tags=tags,
            raise_on_exception=raise_on_exception,
        )
        #: responses that matched no pending request, oldest first
        self.inbox = self.engine.inbox
        self.exceptions = self.engine.exceptions
        self._quiet_streak = quiet_hysteresis(system.soc.link)

    # -- low level ---------------------------------------------------------------

    @property
    def cycles(self) -> int:
        """Elapsed coprocessor clock cycles."""
        return self.sim.now

    def send(self, msg: Message) -> None:
        """Frame and enqueue one message toward the coprocessor."""
        self.engine.submit_send((msg,))

    def send_all(self, msgs: Iterable[Message]) -> None:
        """Queue several messages; they serialise as one framing batch."""
        self.engine.submit_send(msgs)

    def pump(self, cycles: int = 1) -> None:
        """Advance the simulation, draining any arrived response words."""
        self.engine.pump(cycles)

    def run_until_quiet(self, max_cycles: int = 1_000_000,
                        deadline_cycles: Optional[int] = None) -> int:
        """Pump until the whole system is drained; returns cycles consumed.

        ``deadline_cycles`` bounds how long the system may go with no
        observable progress (words moving, instructions retiring,
        completions) before a descriptive :class:`HostTimeoutError` — or
        :class:`LinkDownError`, if the reliable layer has declared the link
        dead — is raised instead of idling out the full ``max_cycles``
        budget.  None → a link-derived default; ≤0 → disabled.
        """
        engine = self.engine
        soc = self.soc
        quiet = self._quiet_streak
        # The idle streak is `now - last_busy`, judged at host wake-ups.
        # `busy_changed` ends a chunk on the first edge that flips the busy
        # probe (usually the busy→idle edge), so between wake-ups the probe
        # holds the value it had at the previous one.  A wake-up that finds
        # the system idle after a busy one therefore sees the first idle
        # cycle, and capping an idle chunk at the remaining streak stops the
        # loop on exactly the cycle a one-cycle loop stops on.
        last_busy = self.sim.now
        was_busy = False

        def quiet_reached() -> bool:
            nonlocal last_busy, was_busy
            now = self.sim.now
            busy = soc.busy or not engine.idle
            if busy:
                last_busy = now
            elif was_busy:
                last_busy = now - 1
            was_busy = busy
            return now - last_busy >= quiet

        def busy_changed() -> bool:
            return (not engine.idle or soc.busy) != was_busy

        def streak_left() -> int:
            return 1 << 60 if was_busy else quiet - (self.sim.now - last_busy)

        return engine.pump_until(
            quiet_reached, max_cycles=max_cycles, deadline_cycles=deadline_cycles,
            describe=lambda: "system still busy", limit=streak_left,
            wake=busy_changed,
        )

    def wait_for(self, count: int = 1, max_cycles: int = 1_000_000,
                 deadline_cycles: Optional[int] = None) -> list[Message]:
        """Pump until ``count`` responses are available; pops and returns them.

        Operates on the unmatched-response ``inbox`` — the home of replies
        to requests issued through the raw ``execute`` path.  Raises
        :class:`HostTimeoutError` (or :class:`LinkDownError`) once
        ``deadline_cycles`` pass without observable progress, so a dead
        link fails fast; None → a link-derived default, ≤0 → disabled.
        """
        self.engine.pump_until(
            lambda: len(self.inbox) >= count,
            max_cycles=max_cycles, deadline_cycles=deadline_cycles,
            describe=lambda: f"expected {count} responses, got {len(self.inbox)}",
        )
        out, self.inbox[:] = self.inbox[:count], self.inbox[count:]
        return out

    # -- message-level convenience ----------------------------------------------

    def execute(self, instr: Instruction) -> None:
        """Send one instruction for execution (no waiting, no tracking)."""
        self.send(Exec(encode(instr)))

    def execute_all(self, instrs: Iterable[Instruction]) -> None:
        self.send_all(Exec(encode(i)) for i in instrs)

    def write_reg(self, reg: int, value: int) -> None:
        self.send(WriteReg(reg, value & self.system.config.word_mask))

    def write_flags(self, flag_reg: int, value: int) -> None:
        self.send(WriteFlags(flag_reg, value))

    def reset_message(self) -> None:
        self.send(Reset())

    # -- asynchronous submission --------------------------------------------------

    def read_reg_async(self, reg: int, tag: Optional[int] = None) -> HostFuture:
        """GET a register; the future resolves to its integer value."""
        from ..isa import instructions as ins

        return self.engine.submit_tracked(
            lambda t: (Exec(encode(ins.get(reg, t))),),
            DataRecord,
            tag=tag,
            transform=lambda msg: msg.value,
        )

    def read_flags_async(self, flag_reg: int, tag: Optional[int] = None) -> HostFuture:
        """GETF a flag register; the future resolves to the flag vector."""
        from ..isa import instructions as ins

        return self.engine.submit_tracked(
            lambda t: (Exec(encode(ins.getf(flag_reg, t))),),
            FlagVector,
            tag=tag,
            transform=lambda msg: msg.value,
        )

    def halt_async(self) -> HostFuture:
        """Send HALT; the future resolves on the acknowledgement."""
        from ..isa import instructions as ins

        halt = Exec(encode(ins.halt()))
        return self.engine.submit_tracked(
            lambda _t: (halt,), Halted, needs_tag=False
        )

    # -- synchronous convenience (futures resolved inline) -----------------------

    def read_reg(self, reg: int, tag: Optional[int] = None,
                 max_cycles: int = 1_000_000) -> int:
        """GET a register and wait for its data record."""
        return self.read_reg_async(reg, tag).result(max_cycles)

    def read_flags(self, flag_reg: int, tag: Optional[int] = None,
                   max_cycles: int = 1_000_000) -> int:
        """GETF a flag register and wait for its flag vector."""
        return self.read_flags_async(flag_reg, tag).result(max_cycles)

    def halt_and_wait(self, max_cycles: int = 1_000_000) -> None:
        """Send HALT and wait for the acknowledgement."""
        self.halt_async().result(max_cycles)

    def _expect(self, msg_type: type, max_cycles: int) -> Message:
        """Pop the oldest inbox message of ``msg_type``, pumping until one
        arrives.  Responses of other types stay queued (and tag-tracked
        requests are routed by the engine before ever reaching the inbox),
        so an interleaved stream cannot be dropped or raise spuriously.
        Bounded by ``max_cycles`` alone: there is no no-progress deadline."""
        def first_match() -> Optional[int]:
            return next((i for i, msg in enumerate(self.inbox)
                         if isinstance(msg, msg_type)), None)

        def describe() -> str:
            others = [type(m).__name__ for m in self.inbox]
            return f"expected {msg_type.__name__} (inbox holds {others or 'nothing'})"

        self.engine.pump_until(lambda: first_match() is not None,
                               max_cycles=max_cycles, deadline_cycles=0,
                               describe=describe)
        return self.inbox.pop(first_match())

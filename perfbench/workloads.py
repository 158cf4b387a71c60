"""The benchmark's five workloads.

Each workload has one client in a closed loop: it sends its next request
only after the previous one (or the previous batch) has completed.  Inputs
come from ``random.Random(seed)``; the program under test receives only the
generated operands.  Every result is checked against :mod:`oracles`, and a
wrong or lost result counts as a failed request without stopping the run.

A workload runs in *units*: one blocking request, one instruction block, one
pipelined batch or one sort.  ``run_unit`` returns what happened to each
request of the unit and the simulated cycles the unit took.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

import oracles

clock = time.perf_counter

#: integer ops of the request mix; all are pure functions of the operands
INT_MIX = tuple(oracles.INT_OPS)

#: counters summed over a window (everything else is a high-water mark or a
#: build-time constant and is taken as the largest value seen)
ADDITIVE = frozenset({
    "cycles", "edge_calls", "activations", "always_runs", "seq_runs",
    "skipped_cycles", "wheel_jumps", "words_sent", "batches", "window_stalls",
    "retransmits", "retransmitted_words", "nacks", "deadline_expiries",
    "response_gaps", "link_down_failures", "degrade_entries", "crc_failures",
    "resyncs", "duplicates", "down_dropped", "down_flipped", "up_dropped",
    "issued_total", "stall_cycles", "stall_raw", "stall_waw",
    "stall_structural", "stall_rename", "dispatches", "writes",
    "messages_sent", "reconnects",
})


@dataclass
class Tally:
    """Per-request outcomes: attempted, failed, and latencies of the good ones."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    latencies: list = field(default_factory=list)

    def record(self, expected, got, latency: float) -> None:
        self.attempted += 1
        if got != expected:
            self.failed += 1
            self.wrong += 1
        else:
            self.latencies.append(latency)

    def record_lost(self, n: int = 1) -> None:
        """Requests that never produced a result (lost with their batch)."""
        self.attempted += n
        self.failed += n

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        self.latencies.extend(other.latencies)


def settle_batch(tally: Tally, expected: list, futures: list,
                 issued_at: list, done_at: dict) -> None:
    """Account one pipelined batch, whole or broken off by a link failure.

    A future that resolved counts by its value; one that failed or never
    resolved, and every request the batch did not get to issue, counts as
    failed.
    """
    for i, future in enumerate(futures):
        if future.done() and future.exception() is None:
            tally.record(expected[i], future.result(), done_at[i] - issued_at[i])
        else:
            tally.record_lost()
    tally.record_lost(len(expected) - len(futures))


def snapshot(system, driver) -> dict:
    """Flat counter snapshot from the package's public counter API."""
    from repro.analysis import counters_for

    report = counters_for(system, driver)
    kernel, engine, issue, link = report.kernel, report.engine, report.issue, report.link
    rx = link.get("rtm_receiver", {})
    down = link.get("downstream_faults", {})
    up = link.get("upstream_faults", {})
    snap = {"cycles": report.cycles}
    for key in ("edge_calls", "activations", "always_runs", "seq_runs",
                "skipped_cycles", "wheel_jumps", "compiled_procs", "fallback_procs",
                "vectorized_cells", "compile_ms", "masks_elided"):
        snap[key] = kernel[key]
    for key in ("words_sent", "batches", "window_stalls", "in_flight_highwater",
                "retransmits", "retransmitted_words", "nacks", "deadline_expiries",
                "response_gaps", "link_down_failures", "degrade_entries"):
        snap[key] = engine[key]
    for key in ("crc_failures", "resyncs", "duplicates"):
        snap[key] = rx.get(key, 0)
    snap["down_dropped"] = down.get("words_dropped", 0)
    snap["down_flipped"] = down.get("bits_flipped", 0)
    snap["up_dropped"] = up.get("words_dropped", 0)
    for key in ("issued_total", "stall_raw", "stall_waw", "stall_structural",
                "stall_rename", "window_occupancy_max"):
        snap[key] = issue[key]
    snap["stall_cycles"] = report.stall_cycles
    snap["dispatches"] = report.dispatches
    snap["writes"] = report.writes
    snap["messages_sent"] = report.messages_sent
    return snap


def accumulate(book: dict, start: dict, end: dict) -> None:
    """Add the change from ``start`` to ``end`` into ``book``."""
    for key, value in end.items():
        if key in ADDITIVE:
            book[key] = book.get(key, 0) + value - start.get(key, 0)
        else:
            book[key] = max(book.get(key, 0), value)


class Workload:
    """One client driving one system; subclasses define the requests."""

    name = ""
    #: requests per unit
    unit_size = 1
    #: requests in the fixed window the simulated metrics are taken over
    window = 1
    #: the percentile ``req_tail_ms`` is reported at, fixed so that every
    #: commit is compared at the same rank (``stats.rule_percentile`` of the
    #: latency samples a 12 s run yields)
    tail_percentile: float

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)
        self.sessions = 0
        self._book: dict = {}
        self._base: dict = {}

    # -- lifecycle -----------------------------------------------------------------

    def build(self):
        raise NotImplementedError

    def open(self) -> None:
        """Build a system and open the client on it."""
        self.system = self.build()
        self._connect()
        self.sessions += 1
        self._base = snapshot(self.system, self.driver)

    def _connect(self) -> None:
        from repro import Session

        self.session = Session(self.system)
        self.driver = self.session.driver

    def reconnect(self) -> None:
        """Retire the current session and open a fresh one."""
        accumulate(self._book, self._base, snapshot(self.system, self.driver))
        self._book["reconnects"] = self._book.get("reconnects", 0) + 1
        self.open()

    # -- window counters -----------------------------------------------------------

    def mark(self) -> None:
        """Start the counter window at the current state."""
        self._book = {}
        self._base = snapshot(self.system, self.driver)

    def window_counters(self) -> dict:
        book = dict(self._book)
        accumulate(book, self._base, snapshot(self.system, self.driver))
        book.setdefault("reconnects", 0)
        return book

    # -- requests ------------------------------------------------------------------

    def make_unit(self) -> list:
        raise NotImplementedError

    def run_unit(self, unit: list, tally: Tally) -> int:
        """Run one unit, account it in ``tally``; returns simulated cycles."""
        raise NotImplementedError


def _op_enum(name: str):
    from repro.isa import ArithOp, LogicOp

    return ArithOp[name] if name in ArithOp.__members__ else LogicOp[name]


def _int_request(rng: random.Random) -> tuple:
    return (rng.choice(INT_MIX), rng.getrandbits(32), rng.getrandbits(32))


class ScalarSync(Workload):
    """Blocking ``Session.compute`` on the integrated link, in-order issue."""

    name = "scalar-sync"
    window = 400
    tail_percentile = 99.0   # about 5000 samples

    def build(self):
        from repro import build_system

        return build_system()

    def make_unit(self) -> list:
        return [_int_request(self.rng)]

    def run_unit(self, unit: list, tally: Tally) -> int:
        (op, a, b), = unit
        start_cycles = self.driver.cycles
        start = clock()
        got = self.session.compute(_op_enum(op), a, b)
        tally.record(oracles.int_op(op, a, b), got, clock() - start)
        return self.driver.cycles - start_cycles


class FpOooStream(Workload):
    """Blocks of independent FP and integer ops through the OoO engine."""

    name = "fp-ooo-stream"
    window = 96
    tail_percentile = 90.0   # about 250 samples
    #: block shape: operands in r1..r4, results in r5..r12
    SOURCES = (1, 2, 3, 4)
    DESTS = tuple(range(5, 13))
    BLOCK = 64
    #: op → relative weight in the block
    MIX = {"FADD": 3, "FMUL": 3, "ADD": 1, "XOR": 1}

    def build(self):
        from repro import build_system

        return build_system(ooo=True, fp_units=True)

    def _connect(self) -> None:
        from repro.host import CoprocessorDriver

        self.driver = CoprocessorDriver(self.system)

    def make_unit(self) -> list:
        rng = self.rng
        # moderate magnitudes: products and sums stay normal binary32
        operands = [oracles.f32_bits(rng.uniform(-1000.0, 1000.0)) for _ in self.SOURCES]
        names = list(self.MIX)
        weights = list(self.MIX.values())
        ops = [(rng.choices(names, weights)[0], rng.choice(self.SOURCES),
                rng.choice(self.SOURCES)) for _ in range(self.BLOCK)]
        return [(operands, ops)]

    def run_unit(self, unit: list, tally: Tally) -> int:
        from repro.isa import instructions as ins

        (operands, ops), = unit
        emit = {"FADD": ins.fadd, "FMUL": ins.fmul, "ADD": ins.add, "XOR": ins.xor}
        drv = self.driver
        expected = {}
        start_cycles = drv.cycles
        start = clock()
        for reg, bits in zip(self.SOURCES, operands):
            drv.write_reg(reg, bits)
        for i, (op, a, b) in enumerate(ops):
            dst = self.DESTS[i % len(self.DESTS)]
            drv.execute(emit[op](dst, a, b))
            expected[dst] = oracles.word_op(op, operands[a - 1], operands[b - 1])
        futures = [drv.read_reg_async(dst) for dst in self.DESTS]
        got = [f.result() for f in futures]
        tally.record([expected[d] for d in self.DESTS], got, clock() - start)
        return drv.cycles - start_cycles


class PipelinedBatches(Workload):
    """``Session.pipeline()`` batches of computes over a windowed engine."""

    unit_size = 16
    ENGINE_WINDOW = 8

    def system_kwargs(self) -> dict:
        raise NotImplementedError

    def build(self):
        from repro import build_system

        return build_system(reliable=True, window=self.ENGINE_WINDOW,
                            **self.system_kwargs())

    def make_unit(self) -> list:
        return [_int_request(self.rng) for _ in range(self.unit_size)]

    def run_unit(self, unit: list, tally: Tally) -> int:
        from repro.host import HostTimeoutError

        expected = [oracles.int_op(op, a, b) for op, a, b in unit]
        issued_at: list = []
        done_at: dict = {}
        futures: list = []
        start_cycles = self.driver.cycles
        try:
            with self.session.pipeline() as p:
                futures = p.futures
                for i, (op, a, b) in enumerate(unit):
                    issued_at.append(clock())
                    future = p.compute(_op_enum(op), a, b)
                    future.add_done_callback(
                        lambda _f, i=i: done_at.__setitem__(i, clock()))
        except HostTimeoutError:  # LinkDownError included
            cycles = self.driver.cycles - start_cycles
            settle_batch(tally, expected, futures, issued_at, done_at)
            self.reconnect()
            return cycles
        settle_batch(tally, expected, futures, issued_at, done_at)
        return self.driver.cycles - start_cycles


class LinkWindow(PipelinedBatches):
    """Clean reliable framing over the slow development-board link."""

    name = "link-window"
    window = 160
    tail_percentile = 90.0   # about 330 samples

    def system_kwargs(self) -> dict:
        from repro.messages import SLOW_PROTOTYPE

        return {"channel": SLOW_PROTOTYPE}


class LossyWindow(PipelinedBatches):
    """Reliable framing over a fast bus with seeded word faults both ways."""

    name = "lossy-window"
    window = 3200
    tail_percentile = 99.0   # about 3100 samples
    #: the 1 % point of the reliability experiment
    RATE = 0.01

    def system_kwargs(self) -> dict:
        from repro.messages import FAST_BUS, FaultSpec

        # each session gets its own fault schedule, derived from the seed
        base = self.seed * 1000 + 2 * self.sessions
        return {
            "channel": FAST_BUS,
            "faults": FaultSpec(seed=base, drop_rate=self.RATE, flip_rate=self.RATE / 2),
            "upstream_faults": FaultSpec(seed=base + 1, drop_rate=self.RATE),
        }


class XiSortCompiled(Workload):
    """ξ-sort of 64 keys with repeats on a 256-cell unit, compiled backend."""

    name = "xisort-compiled"
    window = 12
    tail_percentile = 50.0   # about 24 samples: the tail is the median
    N_CELLS = 256
    N_KEYS = 64
    KEY_RANGE = 48

    def build(self):
        from repro import build_system
        from repro.fu.registry import default_registry
        from repro.isa.opcodes import Opcode
        from repro.xisort import xisort_factory

        registry = default_registry()
        registry.register(Opcode.XISORT, xisort_factory(n_cells=self.N_CELLS))
        return build_system(registry=registry, backend="compiled")

    def _connect(self) -> None:
        from repro.xisort import XiSortAccelerator

        super()._connect()
        self.accelerator = XiSortAccelerator(self.session)

    @property
    def core(self):
        """The ξ-sort unit's smart-memory core."""
        from repro.xisort import XiSortUnit

        for comp in self.system.soc.walk():
            if isinstance(comp, XiSortUnit):
                return comp.core
        raise LookupError("system has no ξ-sort unit")

    def make_unit(self) -> list:
        return [[self.rng.randrange(self.KEY_RANGE) for _ in range(self.N_KEYS)]]

    def run_unit(self, unit: list, tally: Tally) -> int:
        keys, = unit
        start_cycles = self.driver.cycles
        start = clock()
        got = self.accelerator.sort(keys)
        tally.record(sorted(keys), got, clock() - start)
        return self.driver.cycles - start_cycles


WORKLOADS = {cls.name: cls for cls in
             (ScalarSync, FpOooStream, LinkWindow, LossyWindow, XiSortCompiled)}

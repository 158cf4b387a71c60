"""Property tests: time-wheel fast-forward is observably invisible.

The wheel is an optimisation of *when* edges execute, never of *what* the
design computes.  For randomized host programs across all three link
presets — and under seeded fault schedules with the reliable frame format
recovering — a wheel-enabled run must produce:

* identical response values and final architectural state,
* an identical final ``sim.now`` (the currency every benchmark reports),
* identical VCD traces,

compared to a wheel-disabled event run and to the exhaustive reference
kernel.  The suite also asserts the wheel actually *engaged* (skipped
cycles, took jumps) in the wheel-on runs, so the equivalences are exercised
rather than vacuous.

Besides raw ``driver.*`` programs, a register-starved ``Session.pipeline()``
batch exercises the host engine's register throttle, whose waits must ride
the wheel between host wake-ups without moving a single cycle.

The host engine wakes only on host-visible events and lets the kernel step
everything in between.  ``TestChunkedWaitsMatchOneCycleLoop`` swaps every
wait for the reference ``while not done(): engine.pump(1)`` loop and demands
identical results, cycle counts, compressed VCDs and host-engine counters
(all but ``wakeups``, the one figure the chunking is meant to change).

Two tracing regimes are covered, matching the observer contract:

* a plain :class:`VcdWriter` forces per-cycle stepping (its observer
  vetoes jumps), so full-hierarchy dumps are exact in all modes;
* a ``compress_idle=True`` writer over architectural signals rides through
  jumps and must still emit byte-identical VCD text, because the jump's
  precondition is that no non-warped signal can change inside a skip.
"""

from __future__ import annotations

import io
import random

import pytest

from repro.config import FrameworkConfig
from repro.faults import StateFaultSpec
from repro.hdl.errors import SimulationError
from repro.hdl.vcd import VcdWriter
from repro.host import CoprocessorDriver, Session
from repro.isa import ArithOp, LogicOp
from repro.isa import instructions as ins
from repro.messages import FaultSpec
from repro.messages.channel import FAST_BUS, INTEGRATED, SLOW_PROTOTYPE
from repro.system import build_system

PRESETS = [
    pytest.param(INTEGRATED, id="integrated"),
    pytest.param(FAST_BUS, id="fast-bus"),
    pytest.param(SLOW_PROTOTYPE, id="slow-prototype"),
]

#: (backend, wheel) pairs under comparison
MODES = (("exhaustive", False), ("event", False), ("event", True))


def _random_program(driver, rng):
    """A randomized host session; returns every observed response value.

    Mixes register writes, dependent arithmetic, synchronous reads and —
    the point of the exercise — explicit idle stretches, so wheel-on runs
    have provably quiet spans to jump over on every preset.
    """
    results = []
    live = []
    for r in range(1, 5):
        v = rng.randrange(1 << 16)
        driver.write_reg(r, v)
        live.append(r)
    for _ in range(rng.randrange(3, 7)):
        op = rng.choice(("add", "xor", "read", "idle"))
        if op == "add":
            driver.execute(ins.add(rng.randrange(1, 8), rng.choice(live),
                                   rng.choice(live), dst_flag=1))
        elif op == "xor":
            driver.execute(ins.xor(rng.randrange(1, 8), rng.choice(live),
                                   rng.choice(live), dst_flag=2))
        elif op == "read":
            results.append(driver.read_reg(rng.choice(live)))
        else:
            driver.pump(rng.randrange(20, 200))
    driver.pump(rng.randrange(50, 400))
    results.append(driver.read_reg(rng.choice(live)))
    driver.run_until_quiet()
    return results


def _pipeline_program(driver, rng):
    """A ``Session.pipeline()`` batch of 10–24 computes on an 8-register
    file: each compute parks three registers, so most allocations wait in
    the session's register throttle for an earlier result to stream back."""
    session = Session(driver.system, driver=driver)
    with session.pipeline() as p:
        for _ in range(rng.randint(10, 24)):
            op = rng.choice((ArithOp.ADD, ArithOp.SUB, LogicOp.XOR))
            p.compute(op, rng.randrange(1 << 16), rng.randrange(1 << 16))
    results = p.results()
    driver.run_until_quiet()
    return results


def _wait_program(driver, rng, *, raw=True):
    """Every kind of host wait: blocking computes, ``run_until_quiet`` on a
    busy and on an idle system, a raw ``execute`` + ``wait_for`` (with
    ``raw``) and a register-starved ``pipeline()`` batch.  A typed failure
    ends the program and is part of its outcome."""
    session = Session(driver.system, driver=driver)
    results = []
    try:
        for _ in range(2):
            results.append(session.compute(ArithOp.ADD, rng.randrange(1 << 16),
                                           rng.randrange(1 << 16)))
        # a fixed-length pump across the coprocessor going quiescent (a
        # protected system checkpoints on that cycle), then run_until_quiet
        # on a busy system: only the busy→idle edge ends its first chunk
        driver.write_reg(1, rng.randrange(1 << 16))
        driver.pump(rng.randrange(20, 60))
        results.append(getattr(driver.engine._ckpt, "cycle", None))
        driver.execute(ins.xor(2, 1, 1, dst_flag=1))
        results.append(driver.run_until_quiet())
        if raw:
            driver.execute(ins.get(1))
            results.extend(m.value for m in driver.wait_for(1))
        with session.pipeline() as p:
            for _ in range(rng.randint(4, 7)):
                op = rng.choice((ArithOp.ADD, ArithOp.SUB, LogicOp.XOR))
                p.compute(op, rng.randrange(1 << 16), rng.randrange(1 << 16))
        results.extend(p.results())
        results.append(driver.run_until_quiet())
    except SimulationError as exc:
        results.append(type(exc).__name__)
    return results


def _one_cycle_waits(engine):
    """Replace the engine's waiting loop and ``pump(n)`` with the reference
    they must match: ``engine.pump(1)``, one cycle per host pass."""
    pump = engine.pump

    def one_cycle_pump(cycles=1):
        for _ in range(cycles):
            pump(1)

    def pump_until(done, *, max_cycles=1_000_000, **_unused):
        start = engine.sim.now
        engine.flush()
        while not done():
            if engine.sim.now - start >= max_cycles:
                raise SimulationError("reference loop out of cycles")
            pump(1)
        return engine.sim.now - start

    engine.pump = one_cycle_pump
    engine.pump_until = pump_until


def _run(channel, backend, wheel, seed, *, faults=None, upstream_faults=None,
         reliable=False, vcd="none", program=_random_program, config=None,
         state_faults=None, one_cycle_waits=False):
    """One full system run; returns everything the modes must agree on."""
    system = build_system(
        config,
        channel=channel,
        backend=backend,
        wheel=wheel,
        faults=faults,
        upstream_faults=upstream_faults,
        state_faults=state_faults,
        reliable=reliable,
        window=8,
    )
    sim = system.sim
    buf = io.StringIO()
    writer = None
    if vcd == "full":
        writer = VcdWriter(sim, buf)
    elif vcd == "ports":
        link = system.soc.link
        picked = [
            system.soc.host.tx.valid, system.soc.host.tx.payload,
            system.soc.host.rx.valid, system.soc.host.rx.payload,
            link.downstream.out.valid, link.downstream.out.payload,
            link.upstream.inp.valid, link.upstream.inp.payload,
        ]
        writer = VcdWriter(sim, buf, signals=picked, compress_idle=True)
    driver = CoprocessorDriver(system)
    if one_cycle_waits:
        _one_cycle_waits(driver.engine)
    results = program(driver, random.Random(seed))
    if writer is not None:
        writer.detach()
    regs = [system.soc.rtm.register_value(r) for r in range(1, 8)]
    return {
        "results": results,
        "now": sim.now,
        "regs": regs,
        "vcd": buf.getvalue(),
        "stats": sim.kernel_stats,
        "engine": driver.engine.stats,
    }


def _assert_agree(runs):
    base_mode, base = runs[0]
    for mode, run in runs[1:]:
        for key in ("results", "now", "regs", "vcd"):
            assert run[key] == base[key], (
                f"{key} diverges between {base_mode} and {mode}: "
                f"{base[key]!r} vs {run[key]!r}"
            )


class TestFastForwardEquivalence:
    @pytest.mark.parametrize("channel", PRESETS)
    @pytest.mark.parametrize("seed", [1, 7])
    def test_results_and_cycle_counts_identical(self, channel, seed):
        runs = [
            (f"{sched}/wheel={wheel}",
             _run(channel, sched, wheel, seed))
            for sched, wheel in MODES
        ]
        _assert_agree(runs)
        wheeled = runs[-1][1]["stats"]
        assert wheeled.skipped_cycles > 0, "wheel never engaged"
        assert wheeled.wheel_jumps > 0
        # every simulated cycle was either an executed edge or a skip
        assert wheeled.edge_calls + wheeled.skipped_cycles == runs[-1][1]["now"]
        unwheeled = runs[1][1]["stats"]
        assert unwheeled.skipped_cycles == 0

    @pytest.mark.parametrize("channel", PRESETS)
    def test_full_vcd_identical_across_modes(self, channel):
        # A full-hierarchy VcdWriter is a plain observer: it pins per-cycle
        # stepping, so dumps — hidden pacing counters included — must match
        # byte for byte in every mode.
        runs = [
            (f"{sched}/wheel={wheel}",
             _run(channel, sched, wheel, seed=3, vcd="full"))
            for sched, wheel in MODES
        ]
        _assert_agree(runs)
        assert runs[-1][1]["stats"].skipped_cycles == 0  # observer vetoed

    @pytest.mark.parametrize("channel", PRESETS)
    def test_compressed_vcd_rides_through_jumps(self, channel):
        # Architectural-signal VCD with compress_idle stays byte-identical
        # while the wheel actually skips underneath it.
        runs = [
            (f"{sched}/wheel={wheel}",
             _run(channel, sched, wheel, seed=5, vcd="ports"))
            for sched, wheel in MODES
        ]
        _assert_agree(runs)
        assert runs[-1][1]["stats"].skipped_cycles > 0, "wheel never engaged"

    @pytest.mark.parametrize("channel", [PRESETS[1], PRESETS[2]])
    @pytest.mark.parametrize("seed", [11, 23])
    def test_faulty_reliable_link_identical(self, channel, seed):
        faults = dict(
            faults=FaultSpec(seed=seed, drop_rate=0.03, flip_rate=0.01),
            upstream_faults=FaultSpec(seed=seed + 1, drop_rate=0.03),
            reliable=True,
        )
        runs = [
            (f"{sched}/wheel={wheel}",
             _run(channel, sched, wheel, seed, **faults))
            for sched, wheel in MODES
        ]
        _assert_agree(runs)
        assert runs[-1][1]["stats"].skipped_cycles > 0, "wheel never engaged"

    @pytest.mark.parametrize("channel, reliable", [
        pytest.param(INTEGRATED, False, id="integrated"),
        pytest.param(FAST_BUS, False, id="fast-bus"),
        pytest.param(SLOW_PROTOTYPE, False, id="slow-prototype"),
        pytest.param(SLOW_PROTOTYPE, True, id="slow-prototype-reliable"),
    ])
    def test_register_throttled_pipeline_identical(self, channel, reliable):
        runs = [
            (f"{sched}/wheel={wheel}",
             _run(channel, sched, wheel, seed=13, reliable=reliable, vcd="ports",
                  program=_pipeline_program, config=FrameworkConfig(n_regs=8)))
            for sched, wheel in MODES
        ]
        _assert_agree(runs)
        assert runs[-1][1]["stats"].skipped_cycles > 0, "wheel never engaged"


class TestChunkedWaitsMatchOneCycleLoop:
    """Every wait, chunked between host-visible events, against the
    one-cycle ``engine.pump(1)`` loop in each kernel mode."""

    @staticmethod
    def _compare(channel, sched, wheel, seed, **kwargs):
        chunked = _run(channel, sched, wheel, seed, vcd="ports", **kwargs)
        reference = _run(channel, sched, wheel, seed, vcd="ports",
                         one_cycle_waits=True, **kwargs)
        _assert_agree([("chunked", chunked), ("one-cycle", reference)])
        got = chunked["engine"].as_dict()
        want = reference["engine"].as_dict()
        assert got.pop("wakeups") < want.pop("wakeups")
        assert got == want
        return chunked

    @pytest.mark.parametrize("channel", PRESETS)
    @pytest.mark.parametrize("sched, wheel", MODES)
    def test_every_wait_kind(self, channel, sched, wheel):
        run = self._compare(channel, sched, wheel, seed=17,
                            program=_wait_program,
                            config=FrameworkConfig(n_regs=8))
        assert not any(isinstance(r, str) for r in run["results"]), "a wait failed"

    @pytest.mark.parametrize("sched, wheel", MODES)
    def test_reliable_fast_bus_with_word_faults(self, sched, wheel):
        run = self._compare(
            FAST_BUS, sched, wheel, seed=29,
            program=lambda d, r: _wait_program(d, r, raw=False),
            config=FrameworkConfig(n_regs=8), reliable=True,
            faults=FaultSpec(seed=29, drop_rate=0.02, flip_rate=0.01),
            upstream_faults=FaultSpec(seed=30, drop_rate=0.02),
        )
        stats = run["engine"]
        assert stats.retransmits + stats.nacks > 0, "recovery never engaged"

    @pytest.mark.parametrize("channel", [PRESETS[0], PRESETS[1]])
    @pytest.mark.parametrize("sched, wheel", MODES)
    @pytest.mark.parametrize("seed, outcome", [(55, "recovered"),
                                               (41, "MachineCheckError")])
    def test_state_protection_with_upsets(self, channel, sched, wheel, seed,
                                          outcome):
        # seed 55 rolls back once and completes; seed 41 takes a second
        # check before re-quiescing and fails fast
        run = self._compare(
            channel, sched, wheel, seed,
            program=lambda d, r: _wait_program(d, r, raw=False),
            config=FrameworkConfig(n_regs=8),
            state_faults=StateFaultSpec(seed=seed, flip_rate=0.1,
                                        double_rate=0.02),
        )
        last = run["results"][-1]
        assert (last if isinstance(last, str) else "recovered") == outcome
        stats = run["engine"]
        assert stats.checkpoints > 0
        assert stats.rollbacks > 0, "no upset reached the host"

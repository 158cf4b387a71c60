"""Host-loop chunking gate: a throttled pipeline rides the time wheel.

Every host-side wait goes through ``HostEngine.pump_until``, which hands the
kernel whole stretches between host-visible events.  Over the 256-cycle-per-word
slow-prototype link almost every cycle of a register-throttled
``Session.pipeline()`` batch is link-busy aging, so nearly all of them must
be skipped rather than executed as edges.  The host itself
wakes only on host-visible events (an arrived word, one of its timers, its
wait condition), so its wake-ups are pinned too.  The gates count exact
kernel and engine events, not wall time, so they cannot flake.
"""

import pytest

from repro.host import CoprocessorDriver, Session
from repro.isa import ArithOp
from repro.isa import instructions as ins
from repro.messages.channel import INTEGRATED, SLOW_PROTOTYPE
from repro.system import build_system


def test_throttled_pipeline_steps_in_chunks():
    system = build_system(channel=SLOW_PROTOTYPE, reliable=True, window=8)
    session = Session(system)
    # 16 computes need 48 registers; the 16-register file forces the
    # session's register throttle to wait on the engine for most of them
    issued_at = []
    with session.pipeline() as p:
        futures = []
        for i in range(16):
            futures.append(p.compute(ArithOp.ADD, i, 7))
            issued_at.append(system.sim.now)
    assert [f.result() for f in futures] == [i + 7 for i in range(16)]

    # Cycle-exact against a one-cycle-at-a-time throttle: five computes fill
    # 15 registers at once, then each further compute issues on the cycle
    # the previous result frees its registers, one per 14-word request
    # (14 × 256 = 3584 cycles) on the link.
    assert issued_at == [0] * 5 + [3977 + 3584 * k for k in range(11)]
    stats = system.sim.kernel_stats
    now = system.sim.now
    assert now == 57_737
    assert stats.edge_calls + stats.skipped_cycles == now
    assert stats.edge_calls <= now // 10, (
        f"{stats.edge_calls} of {now} cycles stepped as single edges"
    )
    # the host wakes only for arrived words and its own timers, never for
    # the link-busy edges in between
    assert session.driver.engine.stats.wakeups == 48


def test_blocking_computes_wake_the_host_per_response_word():
    """A blocking compute over the integrated link wakes the host once per
    arrived response word (two per ``DataRecord``), however many cycles
    the request spends in the pipeline."""
    system = build_system()
    session = Session(system)
    for i in range(100):
        assert session.compute(ArithOp.ADD, i, 3) == i + 3
    assert system.sim.now == 2600
    assert session.driver.engine.stats.wakeups == 200


@pytest.mark.parametrize("wheel", [True, False])
@pytest.mark.parametrize("channel, consumed", [
    pytest.param(INTEGRATED, (19, 19, 4), id="integrated"),
    pytest.param(SLOW_PROTOTYPE, (1671, 1091, 66), id="slow-prototype"),
])
def test_run_until_quiet_stops_on_the_exact_cycle(channel, consumed, wheel):
    """``run_until_quiet`` waits for an idle streak of link latency + 2
    cycles; in chunks or one cycle at a time it stops on the same cycle
    (the pinned counts are those of the one-cycle loop)."""
    driver = CoprocessorDriver(build_system(channel=channel, wheel=wheel))
    driver.write_reg(1, 5)
    driver.write_reg(2, 6)
    driver.execute(ins.add(3, 1, 2))
    first = driver.run_until_quiet()
    driver.execute(ins.get(3))
    second = driver.run_until_quiet()
    # an already idle system needs exactly the streak
    assert (first, second, driver.run_until_quiet()) == consumed

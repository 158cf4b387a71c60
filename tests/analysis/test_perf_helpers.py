"""Unit tests for the measurement harness itself."""

from repro.analysis import (
    measure_end_to_end_sort,
    measure_issue_rate,
    measure_xisort_step_costs,
    roundtrip_cycles,
)
from repro.messages import SLOW_PROTOTYPE
from repro.system import build_system


class TestMeasurements:
    def test_issue_rate_counts_all_instructions(self):
        r = measure_issue_rate(build_system(), 16)
        assert r.instructions == 16
        assert r.cycles > 16  # at least a cycle each
        assert r.cycles_per_instruction == r.cycles / 16

    def test_xisort_step_costs_positive(self):
        c = measure_xisort_step_costs(16)
        assert c.split_cycles > c.load_cycles
        assert all(v > 0 for v in (c.load_cycles, c.split_cycles,
                                   c.find_pivot_cycles, c.read_at_cycles))

    def test_end_to_end_sort_verifies_result(self):
        cycles, out = measure_end_to_end_sort(8, 16)
        assert cycles > 0
        assert out == sorted(out)

    def test_roundtrip_slower_on_slow_link(self):
        fast = roundtrip_cycles(build_system())
        slow = roundtrip_cycles(build_system(channel=SLOW_PROTOTYPE))
        assert slow > 10 * fast

"""The tail percentile rule and the fixed-percentile lookup."""

import pytest

from stats import percentile, rule_percentile
from workloads import WORKLOADS


def beyond(values, pct):
    value = percentile(values, pct)
    return sum(v > value for v in values)


def test_rule_takes_the_highest_percentile_with_ten_beyond():
    values = [float(v) for v in range(1, 1001)]
    assert rule_percentile(len(values)) == 99.0
    assert percentile(values, 99.0) == 990.0
    assert beyond(values, 99.0) == 10


def test_rule_steps_down_when_too_few_samples_lie_beyond():
    values = [float(v) for v in range(1, 1000)]   # p99 would leave 9 beyond
    assert beyond(values, 99.0) == 9
    assert rule_percentile(len(values)) == 90.0
    assert beyond(values, 90.0) >= 10


@pytest.mark.parametrize("n", [1, 5, 19])
def test_rule_falls_back_to_the_median_without_ten_beyond(n):
    assert rule_percentile(n) == 50.0


def test_twenty_samples_leave_ten_beyond_the_median_rank():
    values = [float(v) for v in range(20)]
    assert rule_percentile(20) == 50.0
    assert percentile(values, 50.0) == 9.0
    assert beyond(values, 50.0) == 10


def test_percentile_is_order_independent():
    values = [5.0, 1.0, 9.0, 3.0] * 30
    assert percentile(values, 90.0) == percentile(sorted(values), 90.0)


def test_each_workload_fixes_a_percentile_on_the_ladder():
    for cls in WORKLOADS.values():
        assert cls.tail_percentile in (50.0, 90.0, 99.0, 99.9, 99.99)


def test_empty_samples_are_refused():
    with pytest.raises(ValueError):
        percentile([], 50.0)

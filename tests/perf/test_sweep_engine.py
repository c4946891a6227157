"""The sweep engine's contracts: ordering, errors, timing."""

import pytest

from repro.perf import SweepResult, sweep


def _square(x):
    return x * x


def _explode_on_seven(x):
    if x == 7:
        raise RuntimeError(f"point {x} exploded")
    return x


def _explode_if_negative(x):
    if x < 0:
        raise ValueError(f"negative point {x}")
    return x


@pytest.mark.parametrize("size", [1, 3, 100])
def test_results_come_back_in_input_order(size):
    points = list(range(size - 1, -1, -1))
    result = sweep(_square, points)
    assert list(result) == [p * p for p in points]
    assert len(result) == size
    assert [o.index for o in result.outcomes] == list(range(size))
    assert result[0] == (size - 1) ** 2


def test_exceptions_propagate():
    with pytest.raises(RuntimeError, match="point 7 exploded"):
        sweep(_explode_on_seven, range(10))


def test_lowest_indexed_failure_wins():
    # Both -1 and -5 raise; the earlier point's error surfaces.
    with pytest.raises(ValueError, match="negative point -1"):
        sweep(_explode_if_negative, [1, -1, 2, -5, 3])


def test_per_point_timing_is_captured():
    result = sweep(_square, range(8))
    assert len(result.timings) == 8
    assert all(t >= 0.0 for t in result.timings)
    assert result.point_s == pytest.approx(sum(result.timings))
    assert result.wall_s > 0.0


def test_empty_sweep():
    result = sweep(_square, [])
    assert result.values == ()
    assert result.timings == ()


def test_result_is_a_value_object():
    result = sweep(_square, range(3))
    assert isinstance(result, SweepResult)
    assert result.values == (0, 1, 4)
    assert 0.0 <= result.point_s <= result.wall_s

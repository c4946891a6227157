"""The sweep engine's contracts: ordering, errors, timing, paths.

The engine's whole value is that parallel sweeps are *drop-in*: same
results, same order, same failures as the serial loop. Each contract is
tested along every path a sweep runs (see ``sweep_paths``).
"""

import pytest

from repro.perf import SweepResult, engine, resolve_jobs, sweep
from tests.perf.sweep_paths import PATHS, sweep_on


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


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("chunksize", [1, 3, 100])
def test_results_come_back_in_input_order(path, chunksize, monkeypatch):
    monkeypatch.setattr(engine, "CHUNKSIZE", chunksize)
    points = list(range(23))
    result = sweep_on(path, _square, points, jobs=4)
    assert list(result) == [p * p for p in points]
    assert len(result) == 23
    assert result[5] == 25


@pytest.mark.parametrize("path", PATHS)
def test_parallel_equals_serial(path):
    points = list(range(40))
    serial = sweep(_square, points)
    parallel = sweep_on(path, _square, points, jobs=3)
    assert serial.values == parallel.values


@pytest.mark.parametrize("path", PATHS)
def test_exceptions_propagate(path):
    with pytest.raises(RuntimeError, match="point 7 exploded"):
        sweep_on(path, _explode_on_seven, range(10), jobs=2)


def test_lowest_indexed_failure_wins():
    # Both -1 and -5 raise; the engine must deterministically surface
    # the earlier point's error regardless of worker scheduling.
    points = [1, -1, 2, -5, 3]
    for _ in range(5):
        with pytest.raises(ValueError, match="negative point -1"):
            sweep(_explode_if_negative, points, jobs=2)


@pytest.mark.parametrize("path", PATHS)
def test_per_point_timing_is_captured(path):
    result = sweep_on(path, _square, range(8), jobs=2)
    assert len(result.timings) == 8
    assert all(t >= 0.0 for t in result.timings)
    assert result.point_s == pytest.approx(sum(result.timings))
    assert result.wall_s > 0.0


def test_empty_sweep():
    result = sweep(_square, [], jobs=4)
    assert result.values == ()
    assert result.timings == ()


def test_serial_executor_reports_one_job():
    result = sweep(_square, range(4), jobs=1)
    assert result.jobs == 1


def test_jobs_capped_by_point_count():
    result = sweep(_square, range(2), jobs=64)
    assert result.jobs == 2


def test_resolve_jobs():
    assert resolve_jobs(3) == 3
    assert resolve_jobs(None) >= 1
    assert resolve_jobs(0) >= 1
    with pytest.raises(ValueError):
        resolve_jobs(-2)


def test_result_is_a_value_object():
    result = sweep(_square, range(3))
    assert isinstance(result, SweepResult)
    assert 0.0 <= result.parallel_efficiency

"""Benchmark `sweep-engine`: the serial sweep loop and the model cache.

Measures the perf claims of the sweep substrate and emits the
machine-readable ``benchmarks/BENCH_sweeps.json`` trajectory artifact so
successive PRs can see the curve:

* the serial resilience sweep scales linearly in the fault-rate ladder
  (2k, 20k and 200k rates; a process pool lost to it at every size);
* the engine's per-point overhead stays small;
* the model-evaluation cache turns repeat sweeps into lookups.
"""

import json
import os
import time
from datetime import datetime, timezone
from pathlib import Path

import pytest

from repro.analysis.resilience import resilience_sweep
from repro.perf import ModelCache, sweep

#: A fault-rate ladder heavy enough that per-point compute dominates the
#: engine's scheduling overhead (200 throughput evaluations per entry).
RATES = tuple(i / 1000.0 for i in range(1, 201))

#: Ladder lengths for the scaling record: an evenly spaced ladder over
#: [0, 1) with this many rates, swept at the CLI's default n = 16.
LADDER_SIZES = (2_000, 20_000, 200_000)

TRAJECTORY_PATH = Path(__file__).resolve().parent / "BENCH_sweeps.json"

#: Filled by the tests below, flushed by test_emit_trajectory_artifact.
_RESULTS: dict = {}


def _measure(fn, repeats: int = 3) -> float:
    return min(_timed(fn) for _ in range(repeats))


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_serial_resilience_sweep(benchmark):
    points = benchmark(lambda: resilience_sweep(RATES, n=64))
    assert len(points) == 25
    _RESULTS["serial_s"] = _measure(lambda: resilience_sweep(RATES, n=64))


@pytest.mark.parametrize("size", LADDER_SIZES)
def test_serial_resilience_sweep_scaling(size):
    rates = tuple(i / size for i in range(size))
    points = resilience_sweep(rates)
    assert len(points) == 25 and all(len(p.throughput) == size for p in points)
    _RESULTS[f"serial_{size}_rates_s"] = _measure(lambda: resilience_sweep(rates))


def test_sweep_engine_overhead(benchmark):
    """Serial engine dispatch vs a bare loop: overhead must stay small."""

    def engine_pass():
        return tuple(sweep(_int_square, range(500)))

    values = benchmark(engine_pass)
    assert values == tuple(x * x for x in range(500))


def _int_square(x):
    return x * x


def test_model_cache_hit_rate(benchmark):
    def repeat_survey():
        cache = ModelCache()
        for _ in range(5):
            points = evaluate_survey_with_cache(cache)
        return cache, points

    cache, points = benchmark(repeat_survey)
    stats = cache.stats
    assert len(points) == 25
    # 5 passes over 25 records: everything after the first pass hits,
    # and duplicate signatures hit within the first pass too.
    assert stats.hit_rate > 0.5
    _RESULTS["cache_hit_rate"] = round(stats.hit_rate, 4)
    _RESULTS["cache_lookups"] = stats.lookups


def evaluate_survey_with_cache(cache):
    from repro.analysis.survey_costs import cost_point
    from repro.registry.architectures import all_architectures

    return [
        cost_point(record, default_n=16, cache=cache)
        for record in all_architectures()
    ]


def test_emit_trajectory_artifact():
    """Append this run to the BENCH_sweeps.json perf trajectory."""
    record = {
        "utc": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "cpu_count": os.cpu_count() or 1,
        "rates": len(RATES),
        "survey_entries": 25,
    }
    record.update(_RESULTS)
    if TRAJECTORY_PATH.exists():
        trajectory = json.loads(TRAJECTORY_PATH.read_text())
    else:
        trajectory = {"schema": 1, "runs": []}
    trajectory["runs"].append(record)
    TRAJECTORY_PATH.write_text(json.dumps(trajectory, indent=2) + "\n")
    assert TRAJECTORY_PATH.exists()

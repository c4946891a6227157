"""Benchmark `sweep-engine`: serial vs pooled sweeps and the model cache.

Measures the two perf claims of the sweep substrate and emits the
machine-readable ``benchmarks/BENCH_sweeps.json`` trajectory artifact so
successive PRs can see the curve:

* a process-pool resilience sweep beats the serial loop on multi-core
  hardware (and never changes the results);
* the model-evaluation cache turns repeat sweeps into lookups.
"""

import json
import os
import time
from datetime import datetime, timezone
from pathlib import Path

from repro.analysis.resilience import resilience_sweep
from repro.perf import ModelCache, sweep

#: A fault-rate ladder heavy enough that per-point compute dominates the
#: engine's scheduling overhead (200 throughput evaluations per entry).
RATES = tuple(i / 1000.0 for i in range(1, 201))

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
    points = benchmark(lambda: resilience_sweep(RATES, n=64, jobs=1))
    assert len(points) == 25
    _RESULTS["serial_s"] = _measure(lambda: resilience_sweep(RATES, n=64, jobs=1))


def test_parallel_resilience_sweep(benchmark):
    jobs = os.cpu_count() or 1
    parallel = benchmark(lambda: resilience_sweep(RATES, n=64, jobs=jobs))
    assert parallel == resilience_sweep(RATES, n=64, jobs=1)
    _RESULTS["jobs"] = jobs
    _RESULTS["parallel_s"] = _measure(
        lambda: resilience_sweep(RATES, n=64, jobs=jobs)
    )


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
    serial = record.get("serial_s")
    parallel = record.get("parallel_s")
    if serial and parallel:
        record["sweep_speedup"] = round(serial / parallel, 3)
    if TRAJECTORY_PATH.exists():
        trajectory = json.loads(TRAJECTORY_PATH.read_text())
    else:
        trajectory = {"schema": 1, "runs": []}
    trajectory["runs"].append(record)
    TRAJECTORY_PATH.write_text(json.dumps(trajectory, indent=2) + "\n")
    assert TRAJECTORY_PATH.exists()

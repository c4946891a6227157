"""Benchmark `obs-overhead`: disabled instrumentation must be ~free.

The observability layer's contract (`docs/observability.md`) is that a
process which never enables tracing pays almost nothing for the
instrumentation compiled into the sweep engine, the machines and the
cache. This file *enforces* that contract:

* ``test_disabled_overhead_budget`` compares the instrumented serial
  sweep (tracing disabled — the default) against a bare reference loop
  that replicates the engine's pre-instrumentation semantics (per-point
  timing, ordered collection) and asserts the **median** overhead stays
  under 5%.
* ``test_enabled_tracing_is_bounded`` sanity-checks the *enabled* path:
  spans are allowed to cost real time, but a traced sweep of the same
  workload must stay within a generous envelope — catching accidental
  quadratic behaviour in the span machinery.
"""

import statistics
import time

from repro.obs import trace
from repro.perf import sweep
from repro.perf.engine import _run_chunk

#: Enough per-point arithmetic that the workload dominates scheduling
#: noise, and enough points that dispatch overhead would register.
POINTS = 400
REPEATS = 9


def _work(x):
    total = 0
    for i in range(120):
        total += (x + i) * (x - i)
    return total


def _reference_pass():
    """What the serial engine did before `repro.obs` existed."""
    indexed = list(enumerate(range(POINTS)))
    start = time.perf_counter()
    results = _run_chunk(_work, indexed)
    wall = time.perf_counter() - start
    return tuple(r.value for r in results), wall


def _instrumented_pass():
    return tuple(sweep(_work, range(POINTS)))


def _median_time(fn, repeats=REPEATS):
    samples = []
    for _ in range(repeats):
        begin = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - begin)
    return statistics.median(samples)


def test_disabled_overhead_budget():
    """Median instrumented-but-disabled time <= 1.05x the bare loop."""
    assert not trace.enabled(), "bench requires the default (disabled) tracer"
    expected = tuple(_work(x) for x in range(POINTS))
    assert _instrumented_pass() == expected
    assert _reference_pass()[0] == expected

    # Interleave the measurements so frequency scaling and cache state
    # bias neither side.
    instrumented, reference = [], []
    for _ in range(REPEATS):
        begin = time.perf_counter()
        _instrumented_pass()
        instrumented.append(time.perf_counter() - begin)
        begin = time.perf_counter()
        _reference_pass()
        reference.append(time.perf_counter() - begin)
    ratio = statistics.median(instrumented) / statistics.median(reference)
    assert ratio <= 1.05, (
        f"disabled instrumentation costs {ratio:.3f}x the bare loop "
        f"(budget 1.05x); median instrumented "
        f"{statistics.median(instrumented):.6f}s vs reference "
        f"{statistics.median(reference):.6f}s"
    )


def test_disabled_sweep_benchmark(benchmark):
    """pytest-benchmark record for the default (disabled) path."""
    values = benchmark(_instrumented_pass)
    assert len(values) == POINTS


def test_enabled_tracing_is_bounded():
    """Per-point spans cost real time, but linear time — not explosive."""
    disabled = _median_time(_instrumented_pass, repeats=5)

    def traced_pass():
        trace.reset()
        trace.enable()
        try:
            return _instrumented_pass()
        finally:
            trace.disable()
            trace.reset()

    try:
        enabled = _median_time(traced_pass, repeats=5)
    finally:
        trace.disable()
        trace.reset()
    # A traced sweep allocates one span per point; 3x the disabled cost
    # is a deliberately loose ceiling that still catches superlinear
    # span bookkeeping.
    assert enabled <= disabled * 3.0, (
        f"enabled tracing costs {enabled / disabled:.2f}x the disabled path"
    )

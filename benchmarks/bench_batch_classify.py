"""Benchmark the columnar batch-classification kernel.

Measures the perf claim of :mod:`repro.core.batch` — classify and
flexibility-score whole signature populations through flat decision
tables and structure-of-arrays columns — against the scalar
per-signature loop it is bit-exact with (``canonical_class`` +
``score_signature``, the same work on both sides), and emits the
machine-readable ``benchmarks/BENCH_batch.json`` trajectory artifact so
successive changes can see the signatures/sec curve:

* the warm kernel (tables compiled once per process) must sustain a
  >= 50x per-signature throughput advantage over the scalar loop at a
  10k-signature batch;
* capacity is recorded at several batch sizes so the trajectory shows
  where fixed overheads stop mattering.
"""

import json
import os
import time
from datetime import datetime, timezone
from pathlib import Path

from repro.core.batch import SignatureBatch, classify_batch, compile_taxonomy
from repro.core.classify import canonical_class
from repro.core.flexibility import score_signature
from repro.registry.populations import PopulationSpec, generate_signatures

#: The headline population: 10k signatures stratified over the 47-class
#: space, counts decorated up to 256 (seed 7 — any seed would do, the
#: kernel is bit-exact on all of them).
POPULATION = PopulationSpec(size=10_000, seed=7, max_n=256)

#: How many signatures the scalar loop classifies when it stands in for
#: the whole population — per-signature cost is flat, the loop is just slow.
SCALAR_SAMPLE = 1_000

#: Batch sizes for the capacity table (signatures/sec vs batch size).
CAPACITY_SIZES = (1_000, 10_000, 100_000)

TRAJECTORY_PATH = Path(__file__).resolve().parent / "BENCH_batch.json"

#: Filled by the tests below, flushed by test_emit_trajectory_artifact.
_RESULTS: dict = {}


def _measure(fn, repeats: int = 3) -> float:
    return min(_timed(fn) for _ in range(repeats))


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _scalar_pass(signatures):
    """The loop the kernel replaces: classify and score each signature."""
    return [
        (canonical_class(signature).serial, score_signature(signature).total)
        for signature in signatures
    ]


def _kernel_pass(batch):
    """The vectorized equivalent over prebuilt SoA columns."""
    return classify_batch(batch)


def test_compile_taxonomy(benchmark):
    """The one-time table build; amortised over every later batch."""
    compile_taxonomy.cache_clear()
    compiled = benchmark.pedantic(
        compile_taxonomy, setup=compile_taxonomy.cache_clear, rounds=3
    )
    assert int(compiled.valid.sum()) == 406
    compile_taxonomy.cache_clear()
    _RESULTS["compile_s"] = round(_measure(compile_taxonomy, repeats=1), 6)


def test_scalar_loop(benchmark):
    """Per-signature scalar cost over a population sample."""
    signatures = generate_signatures(POPULATION)[:SCALAR_SAMPLE]
    rows = benchmark(lambda: _scalar_pass(signatures))
    assert len(rows) == SCALAR_SAMPLE
    scalar_s = _measure(lambda: _scalar_pass(signatures))
    _RESULTS["scalar_sample"] = SCALAR_SAMPLE
    _RESULTS["scalar_us_per_sig"] = round(scalar_s / SCALAR_SAMPLE * 1e6, 3)


def test_classify_kernel(benchmark):
    """Warm-kernel cost over the full 10k population (tables prebuilt)."""
    signatures = generate_signatures(POPULATION)
    batch = SignatureBatch.from_signatures(signatures)
    compile_taxonomy()  # warm: the compile is priced by test_compile_taxonomy
    classified = benchmark(lambda: _kernel_pass(batch))
    assert len(classified) == POPULATION.size
    kernel_s = _measure(lambda: _kernel_pass(batch))
    build_s = _measure(lambda: SignatureBatch.from_signatures(signatures))
    _RESULTS["batch_size"] = POPULATION.size
    _RESULTS["kernel_us_per_sig"] = round(kernel_s / POPULATION.size * 1e6, 3)
    _RESULTS["soa_build_us_per_sig"] = round(build_s / POPULATION.size * 1e6, 3)


def test_kernel_speedup_floor():
    """The acceptance gate: >= 50x per-signature throughput at 10k."""
    scalar = _RESULTS["scalar_us_per_sig"]
    kernel = _RESULTS["kernel_us_per_sig"]
    speedup = scalar / kernel
    _RESULTS["speedup"] = round(speedup, 2)
    assert speedup >= 50.0, (
        f"kernel speedup {speedup:.1f}x below the 50x floor "
        f"(scalar {scalar:.1f}us/sig, kernel {kernel:.3f}us/sig)"
    )


def test_capacity_curve():
    """Signatures/sec at several batch sizes — the docs capacity table."""
    compile_taxonomy()
    capacity = {}
    for size in CAPACITY_SIZES:
        spec = PopulationSpec(size=size, seed=POPULATION.seed, max_n=POPULATION.max_n)
        batch = SignatureBatch.from_signatures(generate_signatures(spec))
        seconds = _measure(lambda batch=batch: _kernel_pass(batch))
        capacity[str(size)] = int(size / seconds)
    _RESULTS["signatures_per_s"] = capacity
    assert capacity[str(CAPACITY_SIZES[-1])] > capacity[str(CAPACITY_SIZES[0])]


def test_emit_trajectory_artifact():
    """Append this run to the BENCH_batch.json perf trajectory."""
    record = {
        "utc": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "cpu_count": os.cpu_count() or 1,
    }
    record.update(_RESULTS)
    if TRAJECTORY_PATH.exists():
        trajectory = json.loads(TRAJECTORY_PATH.read_text())
    else:
        trajectory = {"schema": 1, "runs": []}
    trajectory["runs"].append(record)
    TRAJECTORY_PATH.write_text(json.dumps(trajectory, indent=2) + "\n")
    assert TRAJECTORY_PATH.exists()

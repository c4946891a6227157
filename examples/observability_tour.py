#!/usr/bin/env python3
"""Observability tour: trace a sweep, read the metrics, profile a run.

Exercises all three parts of `repro.obs` against the real analyses —
the same instrumentation the CLI exposes as `--trace`, `--profile` and
the `metrics` subcommand — and prints what each one captured:

1. enable tracing, run the survey cost sweep, render the span tree;
2. read the always-on metrics registry (sweep runs, points and
   timings, machine cycle counters);
3. profile a design-space exploration and show the hottest functions.

Run:  python examples/observability_tour.py
"""

import json

from repro.analysis.dse import Objective, Requirements, explore
from repro.analysis.survey_costs import evaluate_survey
from repro.machine.array_processor import ArrayProcessor, ArraySubtype
from repro.machine.kernels import simd_vector_add
from repro.obs import REGISTRY, Profiler, trace, validate_trace


def traced_sweep() -> None:
    """Record the survey cost sweep as a span tree and render it."""
    trace.reset()
    trace.enable()
    with trace.span("tour.survey", default_n=16):
        evaluate_survey(default_n=16)
    trace.disable()

    payload = trace.tracer().to_dict()
    validate_trace(payload)  # raises ValueError on a malformed tree
    print("=== span tree (tour.survey -> analysis.survey_costs -> perf.sweep) ===")
    print(trace.tracer().render_text())
    print(f"schema version: {payload['schema']}")
    print()


def machine_and_metrics() -> None:
    """Run one machine kernel, then read the process metrics registry."""
    lanes = 8
    machine = ArrayProcessor(lanes, ArraySubtype.IAP_IV)
    machine.scatter(0, list(range(lanes * 4)))
    machine.scatter(64, list(range(lanes * 4)))
    machine.run(simd_vector_add(4))

    print("=== metrics registry (always on; aggregates only) ===")
    print(REGISTRY.render())
    print()

    snapshot = REGISTRY.snapshot()
    runs = snapshot["sweep.runs"]["value"]
    points = snapshot["sweep.points"]["value"]
    print(f"sweep.runs = {runs}, sweep.points = {points}")
    print("machine-readable form:",
          json.dumps(snapshot["machine.runs"], sort_keys=True))
    print()


def profiled_dse() -> None:
    """Profile a DSE run and print the top of the cProfile table."""
    with Profiler("tour-dse", top=5) as prof:
        recommendation = explore(
            Requirements(min_flexibility=2), objective=Objective.AREA
        )
    assert prof.report is not None
    print("=== profile of explore() (top 5 by cumulative time) ===")
    print(prof.report.render())
    print(f"recommended class: {recommendation.best.name}")


def main() -> None:
    traced_sweep()
    machine_and_metrics()
    profiled_dse()


if __name__ == "__main__":
    main()

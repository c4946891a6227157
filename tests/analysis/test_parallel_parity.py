"""Parallel analysis sweeps must be indistinguishable from serial ones.

The acceptance bar for the sweep engine: ``--jobs N`` is a wall-clock
knob, never a results knob. Every rewired analysis is checked for exact
equality between its serial and parallel forms, including the rendered
artifacts the CLI writes to disk. The ``process`` cases call the
analysis from the main thread, the ``thread`` cases from a worker thread
(a library caller's or a job runner's context); both run the pool.
"""

import pytest

from repro.analysis.dse import Objective, Requirements, explore
from repro.analysis.pareto import evaluate_classes, pareto_frontier
from repro.analysis.resilience import (
    render_resilience_table,
    resilience_csv_rows,
    resilience_sweep,
)
from repro.analysis.survey_costs import evaluate_survey, survey_cost_table
from tests.perf.sweep_paths import on_thread


def _call_from(caller, fn, **kwargs):
    """``fn(**kwargs)`` on the main thread (``process``) or a worker thread."""
    return fn(**kwargs) if caller == "process" else on_thread(fn, **kwargs)


@pytest.mark.parametrize("caller", ["thread", "process"])
def test_resilience_sweep_parity(caller):
    serial = resilience_sweep(jobs=1)
    parallel = _call_from(caller, resilience_sweep, jobs=4)
    assert serial == parallel


def test_resilience_artifact_bytes_are_jobs_invariant():
    serial = resilience_sweep(n=32, spares=1, jobs=1)
    parallel = resilience_sweep(n=32, spares=1, jobs=3)
    assert resilience_csv_rows(serial) == resilience_csv_rows(parallel)
    assert render_resilience_table(serial) == render_resilience_table(parallel)


@pytest.mark.parametrize("caller", ["thread", "process"])
def test_survey_costs_parity(caller):
    serial = evaluate_survey(jobs=1)
    parallel = _call_from(caller, evaluate_survey, jobs=4)
    assert serial == parallel


def test_survey_cost_table_is_jobs_invariant():
    assert survey_cost_table(default_n=16, jobs=1) == survey_cost_table(
        default_n=16, jobs=2
    )


@pytest.mark.parametrize("caller", ["thread", "process"])
def test_evaluate_classes_parity(caller):
    serial = evaluate_classes(n=16, jobs=1)
    parallel = _call_from(caller, evaluate_classes, n=16, jobs=4)
    assert serial == parallel
    assert pareto_frontier(serial) == pareto_frontier(parallel)


def test_dse_recommendation_parity():
    requirements = Requirements(min_flexibility=4)
    serial = explore(requirements, objective=Objective.AREA, jobs=1)
    parallel = explore(requirements, objective=Objective.AREA, jobs=4)
    assert serial.feasible == parallel.feasible
    assert serial.infeasible == parallel.infeasible
    assert serial.explain() == parallel.explain()

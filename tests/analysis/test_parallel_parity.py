"""An analysis gives the same answer however its sweep is called.

A deadline changes how each point is evaluated: ``SIGALRM`` on the main
thread (the ``process`` cases, the CLI's context), a watchdog thread
off it (the ``thread`` cases, a job runner's context). Neither may
change a value, so every analysis is checked for exact equality with a
plain call.
"""

import pytest

from repro.analysis.dse import Objective, Requirements, explore
from repro.analysis.pareto import evaluate_classes, pareto_frontier
from repro.analysis.resilience import resilience_sweep
from repro.analysis.survey_costs import evaluate_survey
from tests.perf.sweep_paths import on_thread

#: Generous enough that no point ever hits it.
DEADLINE_S = 30.0


def _call_from(caller, fn, *args, **kwargs):
    """``fn`` with a deadline, on the main thread (``process``) or a worker thread."""
    kwargs["timeout_s"] = DEADLINE_S
    if caller == "process":
        return fn(*args, **kwargs)
    return on_thread(fn, *args, **kwargs)


@pytest.mark.parametrize("caller", ["thread", "process"])
def test_resilience_sweep_parity(caller):
    assert resilience_sweep() == _call_from(caller, resilience_sweep)


@pytest.mark.parametrize("caller", ["thread", "process"])
def test_survey_costs_parity(caller):
    assert evaluate_survey() == _call_from(caller, evaluate_survey)


@pytest.mark.parametrize("caller", ["thread", "process"])
def test_evaluate_classes_parity(caller):
    plain = evaluate_classes(n=16)
    called = _call_from(caller, evaluate_classes, n=16)
    assert plain == called
    assert pareto_frontier(plain) == pareto_frontier(called)


def test_dse_recommendation_parity():
    requirements = Requirements(min_flexibility=4)
    plain = explore(requirements, objective=Objective.AREA)
    called = _call_from("thread", explore, requirements, objective=Objective.AREA)
    assert plain.feasible == called.feasible
    assert plain.infeasible == called.infeasible
    assert plain.explain() == called.explain()

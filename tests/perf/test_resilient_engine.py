"""The sweep engine's resilience contracts: policies, deadlines, resume.

These tests pin down the failure-policy semantics (`on_error`), the
deterministic seeded backoff schedule, per-point deadlines along every
path a sweep runs (see ``sweep_paths``), and the checkpoint/resume
property: an interrupted sweep resumed from its journal is
bit-identical to one that never stopped.
"""

import functools
import os
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perf import (
    ON_ERROR_POLICIES,
    POINT_STATUSES,
    PointTimeout,
    RetryPolicy,
    engine,
    sweep,
)
from tests.perf.sweep_paths import PATHS, sweep_on


def _square(x):
    return x * x


def _explode_on_odd(x):
    if x % 2:
        raise ValueError(f"odd point {x}")
    return x * x


def _succeed_after(x, *, marker_dir, needed):
    """Fail the first ``needed`` attempts for ``x``, then succeed."""
    path = os.path.join(marker_dir, f"attempts-{x}")
    count = int(open(path).read()) if os.path.exists(path) else 0
    if count < needed:
        with open(path, "w") as handle:
            handle.write(str(count + 1))
        raise RuntimeError(f"attempt {count + 1} for {x}")
    return x * x


def _sleepy_on_three(x):
    if x == 3:
        time.sleep(0.8)
    return x * x


# -- on_error policies -----------------------------------------------------


def test_policy_tuples_are_exported():
    assert ON_ERROR_POLICIES == ("raise", "skip", "retry")
    assert POINT_STATUSES == ("ok", "failed", "timed_out", "crashed", "skipped")


@pytest.mark.parametrize("path", PATHS)
def test_skip_keeps_sweeping_past_failures(path):
    result = sweep_on(path, _explode_on_odd, range(8), jobs=2, on_error="skip")
    assert list(result) == [x * x if x % 2 == 0 else None for x in range(8)]
    statuses = {o.index: o.status for o in result.outcomes}
    assert all(statuses[x] == ("failed" if x % 2 else "ok") for x in range(8))
    assert result.status_counts() == {"ok": 4, "failed": 4}
    assert len(result.failures) == 4
    assert all("odd point" in o.error for o in result.failures)
    assert all(not o.ok for o in result.failures)


@pytest.mark.parametrize("path", PATHS)
def test_retry_recovers_transient_failures(path, tmp_path, monkeypatch):
    monkeypatch.setattr(engine, "RETRY_POLICY", RetryPolicy(max_retries=3, backoff_s=0.001))
    fn = functools.partial(_succeed_after, marker_dir=str(tmp_path), needed=2)
    result = sweep_on(path, fn, range(6), jobs=2, on_error="retry")
    assert list(result) == [x * x for x in range(6)]
    assert all(o.status == "ok" for o in result.outcomes)
    assert all(o.attempts == 3 for o in result.outcomes)


def test_retry_budget_exhaustion_records_failure(monkeypatch):
    monkeypatch.setattr(engine, "RETRY_POLICY", RetryPolicy(max_retries=2, backoff_s=0.001))
    result = sweep(_explode_on_odd, range(4), on_error="retry")
    failed = {o.index: o for o in result.failures}
    assert set(failed) == {1, 3}
    assert all(o.attempts == 3 for o in failed.values())
    assert all(o.status == "failed" for o in failed.values())


def test_raise_is_the_default_and_propagates():
    with pytest.raises(ValueError, match="odd point 1"):
        sweep(_explode_on_odd, range(4))


def test_retry_policy_requires_retry_mode(monkeypatch):
    # The module's retry schedule applies under on_error="retry" only:
    # the default policy raises after the first attempt.
    monkeypatch.setattr(engine, "RETRY_POLICY", RetryPolicy(max_retries=3, backoff_s=0.001))
    calls = []

    def counted(x):
        calls.append(x)
        raise ValueError(f"point {x}")

    with pytest.raises(ValueError, match="point 0"):
        sweep(counted, range(3))
    assert calls == [0]


@pytest.mark.parametrize(
    "kwargs",
    [
        {"on_error": "explode"},
        {"timeout_s": 0.0},
        {"timeout_s": -1.0},
        {"jobs": -1},
    ],
)
def test_invalid_policy_arguments_are_rejected(kwargs):
    with pytest.raises(ValueError):
        sweep(_square, range(3), **kwargs)


# -- deadlines -------------------------------------------------------------


@pytest.mark.parametrize("path", PATHS)
def test_deadline_times_out_the_slow_point(path):
    result = sweep_on(
        path,
        _sleepy_on_three,
        range(5),
        jobs=2,
        timeout_s=0.15,
        on_error="skip",
    )
    statuses = {o.index: o.status for o in result.outcomes}
    assert statuses[3] == "timed_out"
    assert all(statuses[x] == "ok" for x in range(5) if x != 3)
    assert result[3] is None
    assert "deadline" in {o.index: o for o in result.outcomes}[3].error


def test_deadline_with_raise_propagates_point_timeout():
    with pytest.raises(PointTimeout, match="deadline"):
        sweep(_sleepy_on_three, range(5), timeout_s=0.15)


# -- the retry schedule is a pure function of the policy -------------------


def test_retry_policy_validation():
    with pytest.raises(ValueError, match="max_retries"):
        RetryPolicy(max_retries=-1)
    with pytest.raises(ValueError, match="backoff_s"):
        RetryPolicy(backoff_s=-0.1)
    with pytest.raises(ValueError, match="factor"):
        RetryPolicy(factor=0.5)
    with pytest.raises(ValueError, match="jitter"):
        RetryPolicy(jitter=1.5)
    with pytest.raises(ValueError, match="1-based"):
        RetryPolicy().delay_s(0, 0)


@given(seed=st.integers(0, 2**32), index=st.integers(0, 100_000))
@settings(max_examples=50, deadline=None)
def test_backoff_schedule_is_deterministic_under_a_fixed_seed(seed, index):
    first = RetryPolicy(max_retries=5, seed=seed)
    second = RetryPolicy(max_retries=5, seed=seed)
    assert first.schedule(index) == second.schedule(index)
    assert len(first.schedule(index)) == 5


@given(
    seed=st.integers(0, 2**32),
    index=st.integers(0, 100_000),
    attempt=st.integers(1, 8),
    backoff=st.floats(0.001, 1.0),
    factor=st.floats(1.0, 4.0),
    jitter=st.floats(0.0, 1.0),
)
@settings(max_examples=100, deadline=None)
def test_backoff_delays_stay_inside_the_jitter_band(
    seed, index, attempt, backoff, factor, jitter
):
    policy = RetryPolicy(
        max_retries=attempt, backoff_s=backoff, factor=factor, jitter=jitter, seed=seed
    )
    delay = policy.delay_s(index, attempt)
    base = backoff * factor ** (attempt - 1)
    assert base * (1.0 - 1e-9) <= delay <= base * (1.0 + jitter) * (1.0 + 1e-9)


# -- checkpoint / resume ---------------------------------------------------


def test_checkpointed_sweep_resumes_bit_identically(tmp_path):
    points = list(range(10))
    expected = sweep(_square, points)
    journal = ("unit", {"points": points})
    sweep(_square, points[:4], journal=journal, checkpoint_dir=tmp_path)
    resumed = sweep(_square, points, journal=journal, checkpoint_dir=tmp_path)
    assert resumed.values == expected.values
    assert resumed.resumed == 4
    counts = resumed.status_counts()
    assert counts == {"skipped": 4, "ok": 6}


def test_resume_ignores_journals_for_a_different_spec(tmp_path):
    sweep(_square, range(4), journal=("unit", {"n": 1}), checkpoint_dir=tmp_path)
    result = sweep(_square, range(4), journal=("unit", {"n": 2}), checkpoint_dir=tmp_path)
    assert result.resumed == 0


def test_fully_journalled_sweep_recomputes_nothing(tmp_path):
    calls = []

    def counted(x):
        calls.append(x)
        return x * x

    journal = ("unit", {"points": 6})
    sweep(counted, range(6), journal=journal, checkpoint_dir=tmp_path)
    assert len(calls) == 6
    result = sweep(counted, range(6), journal=journal, checkpoint_dir=tmp_path)
    assert len(calls) == 6  # nothing recomputed
    assert list(result) == [x * x for x in range(6)]
    assert result.resumed == 6


@given(interrupt_after=st.integers(min_value=1, max_value=9))
@settings(max_examples=15, deadline=None)
def test_resume_after_interrupt_matches_the_uninterrupted_run(interrupt_after):
    points = list(range(10))
    expected = sweep(lambda x: x / 7.0, points).values
    with tempfile.TemporaryDirectory() as tmp:
        calls = {"n": 0}

        def bomb(x):
            calls["n"] += 1
            if calls["n"] > interrupt_after:
                raise KeyboardInterrupt
            return x / 7.0

        journal = ("prop", {"points": points})
        with pytest.raises(KeyboardInterrupt):
            sweep(bomb, points, journal=journal, checkpoint_dir=tmp)
        resumed = sweep(lambda x: x / 7.0, points, journal=journal, checkpoint_dir=tmp)
        assert resumed.values == expected
        assert resumed.resumed == interrupt_after
        assert all(o.ok for o in resumed.outcomes)


def test_failed_points_are_rerun_on_resume(tmp_path):
    journal = ("unit", {"points": 4})
    sweep(_explode_on_odd, range(4), on_error="skip", journal=journal, checkpoint_dir=tmp_path)
    result = sweep(_square, range(4), journal=journal, checkpoint_dir=tmp_path)
    # The even points were journalled ok; the odd ones re-ran (with the
    # healthy function this time) and now succeed.
    assert result.resumed == 2
    assert list(result) == [0, 1, 4, 9]

"""The job plane's retry backoff is a pure function of its policy."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.jobs import RetryPolicy


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

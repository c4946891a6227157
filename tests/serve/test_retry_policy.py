"""The job plane's retry backoff is a pure function of the job and attempt."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.jobs import BACKOFF_FACTOR, BACKOFF_JITTER, BACKOFF_S, backoff_delay

#: ``backoff_delay`` for three job ids at attempts 1-3, as ``float.hex``.
#: Recorded from the seeded policy the job plane has always used
#: (0.1 s base, factor 2, jitter 0.25, seed 0); a retry scheduled by an
#: older process must come due at the same instant.
PINNED = {
    "j-1": ("0x1.dd1db458043cap-4", "0x1.ea0bc277680f7p-3", "0x1.f879d19585cbap-2"),
    "j-abc": ("0x1.c539396b81737p-4", "0x1.c64c51e567fe5p-3", "0x1.a6de0772952e2p-2"),
    "j-0123456789abcdef": (
        "0x1.cde882029d1cdp-4",
        "0x1.b40f47dc2ab62p-3",
        "0x1.bf0ea8167b96cp-2",
    ),
}


@pytest.mark.parametrize("job_id", sorted(PINNED))
def test_backoff_delays_are_pinned(job_id):
    delays = tuple(backoff_delay(job_id, attempt).hex() for attempt in (1, 2, 3))
    assert delays == PINNED[job_id]


def test_backoff_delay_is_one_based():
    with pytest.raises(ValueError, match="1-based"):
        backoff_delay("j-1", 0)


@given(job_id=st.text(max_size=40), attempt=st.integers(1, 8))
@settings(max_examples=50, deadline=None)
def test_backoff_schedule_is_deterministic_under_a_fixed_seed(job_id, attempt):
    assert backoff_delay(job_id, attempt) == backoff_delay(job_id, attempt)


@given(job_id=st.text(max_size=40), attempt=st.integers(1, 8))
@settings(max_examples=100, deadline=None)
def test_backoff_delays_stay_inside_the_jitter_band(job_id, attempt):
    delay = backoff_delay(job_id, attempt)
    base = BACKOFF_S * BACKOFF_FACTOR ** (attempt - 1)
    assert base * (1.0 - 1e-9) <= delay <= base * (1.0 + BACKOFF_JITTER) * (1.0 + 1e-9)

"""The sweep engine's checkpoint/resume contracts.

A sweep given ``journal=(name, spec)`` and a ``checkpoint_dir`` (the
way ``/v1/jobs`` runs every job) journals each point as it completes;
an interrupted sweep resumed from its journal is bit-identical to one
that never stopped.
"""

import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perf import sweep
from repro.perf.journal import dump_record


def _square(x):
    return x * x


def test_checkpointed_sweep_resumes_bit_identically(tmp_path):
    points = list(range(10))
    expected = sweep(_square, points)
    journal = ("unit", {"points": points})
    sweep(_square, points[:4], journal=journal, checkpoint_dir=tmp_path)
    resumed = sweep(_square, points, journal=journal, checkpoint_dir=tmp_path)
    assert resumed.values == expected.values
    assert resumed.resumed == 4
    assert [o.status for o in resumed.outcomes] == ["skipped"] * 4 + ["ok"] * 6


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


def test_failed_points_are_rerun_on_resume(tmp_path):
    # Journals written by earlier builds can hold "failed" records.
    journal = ("unit", {"points": 4})
    sweep(_square, [0], journal=journal, checkpoint_dir=tmp_path)
    (path,) = tmp_path.glob("unit-*.jsonl")
    with open(path, "a", encoding="utf-8") as handle:
        for index in (1, 3):
            failed = {"index": index, "status": "failed", "attempts": 3, "value": None}
            handle.write(dump_record(failed))
    result = sweep(_square, range(4), journal=journal, checkpoint_dir=tmp_path)
    # Point 0 was journalled ok; the failed ones re-ran and now succeed.
    assert result.resumed == 1
    assert list(result) == [0, 1, 4, 9]


def test_a_journal_needs_a_checkpoint_dir():
    with pytest.raises(ValueError, match="checkpoint_dir"):
        sweep(_square, range(3), journal=("unit", {}))

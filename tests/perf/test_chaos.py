"""Chaos tests: sweeps must survive workers dying mid-flight.

The point functions here genuinely SIGKILL (or ``os._exit``) their own
worker process — not a raised exception, an abrupt death the pool
reports as :class:`BrokenProcessPool`. The engine's contract is that
the sweep still completes with every point accounted for.
"""

import functools
import os
import signal

from repro.perf import SweepCheckpoint, engine, sweep
from repro.perf.engine import _DEFAULT_SPEC, _EvalSpec, _sweep_last_resort


def _kill_worker_once(x, *, marker):
    """SIGKILL this worker the first time point 5 is attempted."""
    if x == 5:
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return x * x  # second attempt: the crash is not repeated
        os.close(fd)
        os.kill(os.getpid(), signal.SIGKILL)
    return x * x


def _poison(x):
    """Point 3 always kills whatever worker hosts it."""
    if x == 3:
        os._exit(17)
    return x * x


def test_sigkilled_worker_mid_sweep_recovers_fully(tmp_path):
    fn = functools.partial(_kill_worker_once, marker=str(tmp_path / "killed"))
    result = sweep(fn, range(12), jobs=2)
    assert list(result) == [x * x for x in range(12)]
    assert result.respawns >= 1
    assert all(o.status == "ok" for o in result.outcomes)
    assert len(result.outcomes) == 12


def test_sigkill_recovery_degrades_to_serial_when_respawns_run_out(tmp_path, monkeypatch):
    # MAX_RESPAWNS=0: the first crash already exhausts the budget, so the
    # survivors (and the once-crashing point, now marked) run in-parent.
    monkeypatch.setattr(engine, "MAX_RESPAWNS", 0)
    fn = functools.partial(_kill_worker_once, marker=str(tmp_path / "killed"))
    result = sweep(fn, range(12), jobs=2)
    assert list(result) == [x * x for x in range(12)]
    assert result.respawns == 1
    assert all(o.status == "ok" for o in result.outcomes)


def test_poison_point_is_identified_not_fatal(monkeypatch):
    # A point that reliably kills its worker must end up isolated in its
    # own single-worker pool and reported as "crashed" — every other
    # point still computes.
    monkeypatch.setattr(engine, "MAX_RESPAWNS", 1)
    result = sweep(_poison, range(8), jobs=2, on_error="skip")
    statuses = {o.index: o.status for o in result.outcomes}
    assert statuses[3] == "crashed"
    assert all(status == "ok" for index, status in statuses.items() if index != 3)
    assert result[3] is None
    assert [result[x] for x in range(8) if x != 3] == [x * x for x in range(8) if x != 3]
    assert result.status_counts()["crashed"] == 1


def test_crashes_are_journalled_for_the_post_mortem(tmp_path, monkeypatch):
    monkeypatch.setattr(engine, "MAX_RESPAWNS", 0)
    spec = {"points": 8}
    sweep(
        _poison, range(8), jobs=2, on_error="skip", journal=("chaos", spec), checkpoint_dir=tmp_path
    )
    (journal,) = tmp_path.glob("chaos-*.jsonl")
    lines = journal.read_text().splitlines()
    records = [line for line in lines[1:] if '"crashed"' in line]
    assert len(records) == 1
    # Crashed points do not count as done: a resume recomputes them.
    reopened = SweepCheckpoint.open("chaos", spec, directory=tmp_path)
    try:
        assert 3 not in reopened.load()
        assert reopened.completed == 7
    finally:
        reopened.close()


class _SpanStub:
    """Just enough span surface for calling engine internals directly."""

    def add_event(self, name, **attrs):
        pass


def test_last_resort_isolation_completes_healthy_points():
    results = _sweep_last_resort(
        _poison,
        [(2, 2), (3, 3), (4, 4)],
        _EvalSpec(on_error="skip"),
        _SpanStub(),
        None,
    )
    by_index = {r.index: r for r in results}
    assert by_index[2].value == 4 and by_index[2].status == "ok"
    assert by_index[3].status == "crashed" and by_index[3].value is None
    assert by_index[4].value == 16 and by_index[4].status == "ok"


def test_last_resort_serial_mode_runs_in_parent():
    results = _sweep_last_resort(
        lambda x: x + 1, [(0, 10), (1, 11)], _DEFAULT_SPEC, _SpanStub(), None
    )
    assert [r.value for r in results] == [11, 12]
    assert all(r.status == "ok" for r in results)

"""The sweep engine.

A *sweep* evaluates one pure function over a grid of points, through
one call shape::

    sweep(fn, points, *, journal=None, checkpoint_dir=None)

Every sweep is one plain loop in the calling process: the paper's
sweeps are 25 machines, 47 classes or a handful of fault rates, and the
serial loop beat a process pool at every measured size (see
``docs/performance.md``). The engine owns the concerns every sweep in
this package shares:

* **ordering** — results come back in input order;
* **per-point timing** — each point's evaluation time is captured
  around the point function alone, so the benchmark suite can separate
  compute from engine overhead;
* **errors** — the first point that raises ends the sweep with that
  exception. Every point function is pure and deterministic, so
  re-running a failed point would fail the same way;
* **checkpoint/resume** — pass ``journal=(name, spec)`` and
  ``checkpoint_dir`` and the engine opens that
  :class:`repro.perf.journal.SweepCheckpoint`, journals every completed
  point as it finishes and closes it again; a re-run over the same spec
  restores those points (status ``"skipped"``) without recomputing
  them. ``/v1/jobs`` runs every job sweep this way, so a job whose
  server was killed resumes where it stopped.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.obs import metrics as _metrics
from repro.obs import trace as _trace

__all__ = ["PointResult", "SweepResult", "sweep"]

# Always-on aggregate metrics — incremented per sweep() call (never in
# the per-point hot loop), so the disabled-instrumentation overhead
# stays inside the bench_obs_overhead budget.
_SWEEP_RUNS = _metrics.REGISTRY.counter("sweep.runs", help="sweep() invocations")
_SWEEP_POINTS = _metrics.REGISTRY.counter("sweep.points", help="points evaluated across all sweeps")
_SWEEP_WALL = _metrics.REGISTRY.histogram("sweep.wall_s", help="whole-sweep wall time (s)")
_SWEEP_COMPUTE = _metrics.REGISTRY.histogram(
    "sweep.point_s", help="summed per-point compute time per sweep (s)"
)
_SWEEP_RESUMED = _metrics.REGISTRY.counter(
    "sweep.resumed_points", help="points restored from a checkpoint journal"
)


@dataclass(frozen=True, slots=True)
class PointResult:
    """One evaluated sweep point.

    ``status`` is ``"ok"`` (computed by this sweep) or ``"skipped"``
    (restored from a checkpoint journal, not recomputed).
    """

    index: int
    point: Any
    value: Any
    elapsed_s: float
    status: str = "ok"


@dataclass(frozen=True, slots=True)
class SweepResult:
    """A completed sweep: values in input order plus execution telemetry."""

    values: tuple[Any, ...]
    timings: tuple[float, ...]
    wall_s: float
    outcomes: "tuple[PointResult, ...]" = ()
    resumed: int = 0

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, index: int) -> Any:
        return self.values[index]

    @property
    def point_s(self) -> float:
        """Total per-point compute time across all points."""
        return sum(self.timings)


def _eval_point(fn: Callable[[Any], Any], index: int, point: Any) -> PointResult:
    """Evaluate and time one point."""
    start = time.perf_counter()
    value = fn(point)
    return PointResult(index, point, value, time.perf_counter() - start)


def _restore_from_checkpoint(
    checkpoint: Any, indexed: "list[tuple[int, Any]]"
) -> "tuple[list[PointResult], list[tuple[int, Any]]]":
    """Split ``indexed`` into journalled points and points still to run.

    Journalled points come back as ``status='skipped'``
    :class:`PointResult` values restored bit-identically from the
    checkpoint; the remainder keeps its original (index, point) pairs.
    """
    if checkpoint is None or not indexed:
        return [], indexed
    done = checkpoint.load()
    if not done:
        return [], indexed
    restored = [
        PointResult(index, point, done[index].value, done[index].elapsed_s, "skipped")
        for index, point in indexed
        if index in done
    ]
    remaining = [(index, point) for index, point in indexed if index not in done]
    return restored, remaining


def _open_journal(
    journal: "tuple[str, Any] | None", checkpoint_dir: "str | os.PathLike | None"
) -> Any:
    """The sweep's checkpoint as a context manager (``None`` without one)."""
    if journal is None:
        return contextlib.nullcontext()
    if checkpoint_dir is None:
        raise ValueError("a journalled sweep needs a checkpoint_dir")
    from repro.perf.journal import SweepCheckpoint

    name, spec = journal
    return SweepCheckpoint.open(name, spec, directory=checkpoint_dir)


# -- the public entry point ------------------------------------------------


def sweep(
    fn: Callable[[Any], Any],
    points: "Iterable[Any]",
    *,
    journal: "tuple[str, Any] | None" = None,
    checkpoint_dir: "str | os.PathLike | None" = None,
) -> SweepResult:
    """Evaluate ``fn`` over ``points`` in a plain loop, in input order.

    ``journal=(name, spec)`` checkpoints the sweep under
    ``checkpoint_dir``: the engine opens that journal, restores the
    points it already holds, appends each fresh one and closes it,
    however the sweep ends.
    """
    with _open_journal(journal, checkpoint_dir) as checkpoint:
        return _sweep(fn, list(enumerate(points)), checkpoint)


def _sweep(
    fn: Callable[[Any], Any], indexed: "list[tuple[int, Any]]", checkpoint: Any
) -> SweepResult:
    """Restore, run and account for one sweep (checkpoint already open)."""
    restored, indexed = _restore_from_checkpoint(checkpoint, indexed)
    if not indexed and not restored:
        return SweepResult((), (), 0.0)
    start = time.perf_counter()
    with _trace.span("perf.sweep", points=len(indexed) + len(restored)) as sweep_span:
        if restored:
            sweep_span.add_event("resume", restored=len(restored), remaining=len(indexed))
        fresh = _sweep_serial(fn, indexed, checkpoint)
        outcomes = sorted(restored + fresh, key=lambda r: r.index)
        wall = time.perf_counter() - start
        result = SweepResult(
            values=tuple(r.value for r in outcomes),
            timings=tuple(r.elapsed_s for r in outcomes),
            wall_s=wall,
            outcomes=tuple(outcomes),
            resumed=len(restored),
        )
        sweep_span.set_attributes(
            wall_s=result.wall_s,
            point_s=result.point_s,
            resumed=result.resumed,
        )
    _SWEEP_RUNS.inc()
    _SWEEP_POINTS.inc(len(result))
    _SWEEP_WALL.observe(result.wall_s)
    _SWEEP_COMPUTE.observe(result.point_s)
    if restored:
        _SWEEP_RESUMED.inc(len(restored))
    return result


def _sweep_serial(
    fn: Callable[[Any], Any], indexed: "list[tuple[int, Any]]", checkpoint: Any
) -> list[PointResult]:
    """The loop itself: per-point spans when traced, each point journalled."""
    traced = _trace.GLOBAL_TRACER.enabled
    results: list[PointResult] = []
    for index, point in indexed:
        if traced:
            with _trace.span("perf.point", index=index) as point_span:
                outcome = _eval_point(fn, index, point)
                point_span.set_attributes(elapsed_s=outcome.elapsed_s)
        else:
            outcome = _eval_point(fn, index, point)
        if checkpoint is not None:
            checkpoint.record(outcome)
        results.append(outcome)
    return results

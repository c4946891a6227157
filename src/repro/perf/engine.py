"""The sweep engine.

A *sweep* evaluates one pure function over a grid of points, through
one call shape::

    sweep(fn, points, *, on_error="raise", timeout_s=None, journal=None)

Every sweep is one plain loop in the calling process: the paper's
sweeps are 25 machines, 47 classes or a handful of fault rates, and the
serial loop beat a process pool at every measured size (see
``docs/performance.md``). The engine owns the concerns every sweep in
this package shares:

* **ordering** — results come back in input order;
* **per-point timing** — each point's evaluation time is captured
  around the point function alone, so the benchmark suite can separate
  compute from engine overhead;
* **failure policy** — ``on_error`` decides what a failing point does
  to the sweep: ``"raise"`` (the default: propagate the lowest-indexed
  failing point's exception, exactly the historical behaviour),
  ``"skip"`` (record the failure in the point's
  :class:`PointResult` and keep sweeping) or ``"retry"`` (re-attempt
  the point on a deterministic seeded backoff schedule, then record the
  failure if the budget runs out);
* **deadlines** — ``timeout_s`` bounds each point attempt; an attempt
  over budget raises :class:`PointTimeout` (status ``"timed_out"``
  under ``skip``/``retry``);
* **checkpoint/resume** — pass ``journal=(name, spec)`` and the engine
  opens that :class:`repro.perf.journal.SweepCheckpoint`, journals every
  completed point as it finishes and closes it again; a re-run over the
  same spec restores those points (status ``"skipped"``) without
  recomputing them.
"""

from __future__ import annotations

import contextlib
import os
import random
import signal
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.obs import metrics as _metrics
from repro.obs import trace as _trace

__all__ = [
    "ON_ERROR_POLICIES",
    "POINT_STATUSES",
    "PointResult",
    "PointTimeout",
    "RetryPolicy",
    "SweepResult",
    "sweep",
]

#: Recognised ``on_error`` policies.
ON_ERROR_POLICIES: tuple[str, ...] = ("raise", "skip", "retry")

#: Every status a :class:`PointResult` can carry.
POINT_STATUSES: tuple[str, ...] = ("ok", "failed", "timed_out", "skipped")

# Always-on aggregate metrics — incremented per sweep() call (never in
# the per-point hot loop), so the disabled-instrumentation overhead
# stays inside the bench_obs_overhead budget.
_SWEEP_RUNS = _metrics.REGISTRY.counter("sweep.runs", help="sweep() invocations")
_SWEEP_POINTS = _metrics.REGISTRY.counter("sweep.points", help="points evaluated across all sweeps")
_SWEEP_WALL = _metrics.REGISTRY.histogram("sweep.wall_s", help="whole-sweep wall time (s)")
_SWEEP_COMPUTE = _metrics.REGISTRY.histogram(
    "sweep.point_s", help="summed per-point compute time per sweep (s)"
)
_SWEEP_RETRIES = _metrics.REGISTRY.counter(
    "sweep.retries", help="extra point attempts spent by the retry policy"
)
_SWEEP_FAILED = _metrics.REGISTRY.counter(
    "sweep.failed_points", help="points that exhausted their error policy (status=failed)"
)
_SWEEP_TIMEOUTS = _metrics.REGISTRY.counter(
    "sweep.timeouts", help="points whose final attempt exceeded the deadline"
)
_SWEEP_RESUMED = _metrics.REGISTRY.counter(
    "sweep.resumed_points", help="points restored from a checkpoint journal"
)


class PointTimeout(TimeoutError):
    """A sweep point attempt exceeded its ``timeout_s`` deadline."""


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Deterministic seeded exponential backoff for ``on_error='retry'``.

    The delay before retry ``attempt`` (1-based) of point ``index`` is::

        backoff_s * factor**(attempt - 1) * (1 + jitter * u)

    where ``u`` is drawn from a PRNG seeded purely by ``(seed, index,
    attempt)`` — the schedule is a pure function of the policy, so two
    runs with the same seed back off identically (a tested property).

        >>> RetryPolicy(seed=7).schedule(3) == RetryPolicy(seed=7).schedule(3)
        True
    """

    max_retries: int = 2
    backoff_s: float = 0.05
    factor: float = 2.0
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_s < 0.0:
            raise ValueError(f"backoff_s must be >= 0, got {self.backoff_s}")
        if self.factor < 1.0:
            raise ValueError(f"factor must be >= 1, got {self.factor}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must lie in [0, 1], got {self.jitter}")

    def delay_s(self, index: int, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based) of point ``index``."""
        if attempt < 1:
            raise ValueError(f"attempt is 1-based, got {attempt}")
        mixed = (self.seed & 0xFFFFFFFF) * 0x9E3779B1 + index
        mixed = (mixed ^ (mixed >> 16)) * 0x85EBCA6B + attempt
        noise = random.Random(mixed).random()
        return self.backoff_s * self.factor ** (attempt - 1) * (1.0 + self.jitter * noise)

    def schedule(self, index: int) -> tuple[float, ...]:
        """The full backoff schedule for ``index``, one delay per retry."""
        return tuple(self.delay_s(index, attempt) for attempt in range(1, self.max_retries + 1))


#: The backoff schedule ``on_error="retry"`` follows.
RETRY_POLICY = RetryPolicy()


@dataclass(frozen=True, slots=True)
class _EvalSpec:
    """The per-point evaluation policy: error handling, retries, deadline."""

    on_error: str = "raise"
    retry: "RetryPolicy | None" = None
    timeout_s: "float | None" = None


_DEFAULT_SPEC = _EvalSpec()


@dataclass(frozen=True, slots=True)
class PointResult:
    """One evaluated sweep point, including how its evaluation went.

    ``status`` is one of :data:`POINT_STATUSES`: ``"ok"`` (value is
    valid), ``"failed"`` / ``"timed_out"`` (value is ``None``,
    ``error`` holds the repr of the final failure) or
    ``"skipped"`` (restored from a checkpoint journal, not recomputed).
    """

    index: int
    point: Any
    value: Any
    elapsed_s: float
    status: str = "ok"
    attempts: int = 1
    error: "str | None" = None

    @property
    def ok(self) -> bool:
        """Whether this point carries a usable value."""
        return self.status in ("ok", "skipped")


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

    @property
    def failures(self) -> "tuple[PointResult, ...]":
        """Every point that ended without a value, in input order."""
        return tuple(o for o in self.outcomes if not o.ok)

    def status_counts(self) -> dict[str, int]:
        """How many points landed in each status (zero counts omitted)."""
        counts: dict[str, int] = {}
        for outcome in self.outcomes:
            counts[outcome.status] = counts.get(outcome.status, 0) + 1
        return counts


# -- deadline enforcement --------------------------------------------------


def _call_with_deadline(fn: Callable[[Any], Any], point: Any, timeout_s: "float | None") -> Any:
    """Evaluate ``fn(point)``, raising :class:`PointTimeout` past the deadline.

    On a POSIX main thread with no interval timer already armed the
    deadline truly preempts pure-Python code
    via ``SIGALRM``. Elsewhere — a sweep called off the main thread,
    such as a job runner's, or under a nested timer — a watchdog thread
    enforces it cooperatively: the sweep moves on, but the abandoned
    attempt occupies its thread until it returns.
    """
    if timeout_s is None:
        return fn(point)
    if (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
        and signal.getitimer(signal.ITIMER_REAL)[0] == 0.0
    ):
        return _call_with_alarm(fn, point, timeout_s)
    return _call_with_watchdog(fn, point, timeout_s)


def _call_with_alarm(fn: Callable[[Any], Any], point: Any, timeout_s: float) -> Any:
    """SIGALRM-based deadline: preempts the attempt wherever it is."""

    def _expired(signum: int, frame: Any) -> None:
        raise PointTimeout(f"point exceeded its {timeout_s:g}s deadline")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        return fn(point)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _call_with_watchdog(fn: Callable[[Any], Any], point: Any, timeout_s: float) -> Any:
    """Thread-based deadline for contexts where SIGALRM is unavailable."""
    outcome: list[Any] = []

    def _runner() -> None:
        try:
            outcome.append(("value", fn(point)))
        except BaseException as exc:  # noqa: BLE001 - relayed to the caller
            outcome.append(("error", exc))

    worker = threading.Thread(target=_runner, daemon=True)
    worker.start()
    worker.join(timeout_s)
    if worker.is_alive():
        raise PointTimeout(f"point exceeded its {timeout_s:g}s deadline")
    kind, payload = outcome[0]
    if kind == "error":
        raise payload
    return payload


# -- point evaluation ------------------------------------------------------


def _eval_point(
    fn: Callable[[Any], Any], index: int, point: Any, spec: _EvalSpec = _DEFAULT_SPEC
) -> PointResult:
    """Evaluate one point under the sweep's error policy and deadline."""
    max_attempts = 1 + (spec.retry.max_retries if spec.retry is not None else 0)
    start = time.perf_counter()
    last_error: "BaseException | None" = None
    status = "failed"
    for attempt in range(1, max_attempts + 1):
        try:
            value = _call_with_deadline(fn, point, spec.timeout_s)
            return PointResult(
                index=index,
                point=point,
                value=value,
                elapsed_s=time.perf_counter() - start,
                attempts=attempt,
            )
        except PointTimeout as exc:
            last_error, status = exc, "timed_out"
        except Exception as exc:  # KeyboardInterrupt/SystemExit still propagate
            last_error, status = exc, "failed"
        if attempt < max_attempts:
            assert spec.retry is not None
            time.sleep(spec.retry.delay_s(index, attempt))
    assert last_error is not None
    if spec.on_error == "raise":
        raise last_error
    return PointResult(
        index=index,
        point=point,
        value=None,
        elapsed_s=time.perf_counter() - start,
        status=status,
        attempts=max_attempts,
        error=repr(last_error),
    )


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
        PointResult(
            index=index,
            point=point,
            value=done[index].value,
            elapsed_s=done[index].elapsed_s,
            status="skipped",
            attempts=done[index].attempts,
        )
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
    from repro.perf.journal import SweepCheckpoint

    name, spec = journal
    return SweepCheckpoint.open(name, spec, directory=checkpoint_dir)


# -- the public entry point ------------------------------------------------


def sweep(
    fn: Callable[[Any], Any],
    points: "Iterable[Any]",
    *,
    on_error: str = "raise",
    timeout_s: "float | None" = None,
    journal: "tuple[str, Any] | None" = None,
    checkpoint_dir: "str | os.PathLike | None" = None,
) -> SweepResult:
    """Evaluate ``fn`` over ``points`` in a plain loop, in input order.

    ``on_error`` and ``timeout_s`` set the per-point failure policy (see
    the module docstring). ``journal=(name, spec)`` checkpoints the
    sweep for ``--resume``: the engine opens that journal (under
    ``checkpoint_dir``, default :func:`~repro.perf.journal.checkpoint_directory`),
    restores the points it already holds, appends each fresh one and
    closes it, however the sweep ends.
    """
    if on_error not in ON_ERROR_POLICIES:
        raise ValueError(
            f"unknown on_error {on_error!r}: expected one of {', '.join(ON_ERROR_POLICIES)}"
        )
    if timeout_s is not None and not timeout_s > 0.0:
        raise ValueError(f"timeout_s must be positive, got {timeout_s}")
    spec = _EvalSpec(
        on_error=on_error,
        retry=RETRY_POLICY if on_error == "retry" else None,
        timeout_s=timeout_s,
    )
    with _open_journal(journal, checkpoint_dir) as checkpoint:
        return _sweep(fn, list(enumerate(points)), spec, checkpoint)


def _sweep(
    fn: Callable[[Any], Any],
    indexed: "list[tuple[int, Any]]",
    spec: _EvalSpec,
    checkpoint: Any,
) -> SweepResult:
    """Restore, run and account for one sweep (checkpoint already open)."""
    restored, indexed = _restore_from_checkpoint(checkpoint, indexed)
    if not indexed and not restored:
        return SweepResult((), (), 0.0)
    start = time.perf_counter()
    with _trace.span(
        "perf.sweep",
        points=len(indexed) + len(restored),
        on_error=spec.on_error,
    ) as sweep_span:
        if restored:
            sweep_span.add_event("resume", restored=len(restored), remaining=len(indexed))
        fresh = _sweep_serial(fn, indexed, spec=spec, checkpoint=checkpoint)
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
    _observe_outcomes(fresh, restored)
    return result


def _observe_outcomes(fresh: "list[PointResult]", restored: "list[PointResult]") -> None:
    """Fold one sweep's resilience telemetry into the metrics registry."""
    if restored:
        _SWEEP_RESUMED.inc(len(restored))
    retries = sum(o.attempts - 1 for o in fresh if o.attempts > 1)
    if retries:
        _SWEEP_RETRIES.inc(retries)
    for outcome in fresh:
        if outcome.status == "failed":
            _SWEEP_FAILED.inc()
        elif outcome.status == "timed_out":
            _SWEEP_TIMEOUTS.inc()


def _sweep_serial(
    fn: Callable[[Any], Any],
    indexed: "list[tuple[int, Any]]",
    *,
    spec: _EvalSpec,
    checkpoint: Any,
) -> list[PointResult]:
    """The loop itself: per-point spans when traced, each point journalled."""
    traced = _trace.GLOBAL_TRACER.enabled
    results: list[PointResult] = []
    for index, point in indexed:
        if traced:
            with _trace.span("perf.point", index=index) as point_span:
                outcome = _eval_point(fn, index, point, spec)
                point_span.set_attributes(elapsed_s=outcome.elapsed_s, status=outcome.status)
        else:
            outcome = _eval_point(fn, index, point, spec)
        if checkpoint is not None:
            checkpoint.record(outcome)
        results.append(outcome)
    return results

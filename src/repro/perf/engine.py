"""The sweep engine.

A *sweep* evaluates one pure function over a grid of points, through
one call shape::

    sweep(fn, points, *, jobs=1, on_error="raise", timeout_s=None, journal=None)

The engine owns the concerns every sweep in this package shares:

* **path choice** — ``jobs`` alone picks it: a resolved worker count of
  1 runs a plain loop in the calling process (zero overhead, no pool
  imported), anything larger runs a process pool;
* **deterministic ordering** — results come back in input order no
  matter which worker finished first, so parallel artifacts are
  byte-identical to serial ones;
* **per-point timing** — each point's evaluation time is captured in
  the worker itself (excluding scheduling and serialisation), so the
  benchmark suite can separate compute from orchestration overhead;
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
* **worker-crash isolation** — a process worker killed mid-chunk
  (``BrokenProcessPool``) no longer aborts the sweep: the surviving
  points are requeued on a rebuilt pool, up to :data:`MAX_RESPAWNS`
  times, after which the engine degrades to a serial last resort;
* **checkpoint/resume** — pass ``journal=(name, spec)`` and the engine
  opens that :class:`repro.perf.journal.SweepCheckpoint`, journals every
  completed point as it finishes and closes it again; a re-run over the
  same spec restores those points (status ``"skipped"``) without
  recomputing them.

Point functions swept with ``jobs`` > 1 must be picklable: module-level
functions, or :func:`functools.partial` over one.
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
    "resolve_jobs",
    "sweep",
]

#: Recognised ``on_error`` policies.
ON_ERROR_POLICIES: tuple[str, ...] = ("raise", "skip", "retry")

#: Every status a :class:`PointResult` can carry.
POINT_STATUSES: tuple[str, ...] = ("ok", "failed", "timed_out", "crashed", "skipped")

# Always-on aggregate metrics — incremented per sweep() call (never in
# the per-point hot loop), so the disabled-instrumentation overhead
# stays inside the bench_obs_overhead budget.
_SWEEP_RUNS = _metrics.REGISTRY.counter("sweep.runs", help="sweep() invocations")
_SWEEP_POINTS = _metrics.REGISTRY.counter("sweep.points", help="points evaluated across all sweeps")
_SWEEP_WALL = _metrics.REGISTRY.histogram("sweep.wall_s", help="whole-sweep wall time (s)")
_SWEEP_COMPUTE = _metrics.REGISTRY.histogram(
    "sweep.point_s", help="summed in-worker compute time per sweep (s)"
)
_QUEUE_WAIT = _metrics.REGISTRY.histogram(
    "sweep.queue_wait_s", help="submit-to-start executor queue wait per chunk (s)"
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
_SWEEP_CRASHES = _metrics.REGISTRY.counter(
    "sweep.crashes", help="points lost to a worker crash even in isolation"
)
_SWEEP_RESPAWNS = _metrics.REGISTRY.counter(
    "sweep.pool_respawns", help="process pools rebuilt after a worker crash"
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


#: Points per process-pool task. One keeps a worker crash from taking
#: any point but its own down with it.
CHUNKSIZE = 1

#: The backoff schedule ``on_error="retry"`` follows.
RETRY_POLICY = RetryPolicy()

#: Times a crashed process pool is rebuilt before the serial last resort.
MAX_RESPAWNS = 2


@dataclass(frozen=True, slots=True)
class _EvalSpec:
    """The per-point evaluation policy shipped to workers with each chunk."""

    on_error: str = "raise"
    retry: "RetryPolicy | None" = None
    timeout_s: "float | None" = None


_DEFAULT_SPEC = _EvalSpec()


@dataclass(frozen=True, slots=True)
class PointResult:
    """One evaluated sweep point, including how its evaluation went.

    ``status`` is one of :data:`POINT_STATUSES`: ``"ok"`` (value is
    valid), ``"failed"`` / ``"timed_out"`` / ``"crashed"`` (value is
    ``None``, ``error`` holds the repr of the final failure) or
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
    jobs: int
    wall_s: float
    outcomes: "tuple[PointResult, ...]" = ()
    resumed: int = 0
    respawns: int = 0

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, index: int) -> Any:
        return self.values[index]

    @property
    def point_s(self) -> float:
        """Total in-worker compute time across all points."""
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

    @property
    def parallel_efficiency(self) -> float:
        """Compute-to-wall ratio per worker: 1.0 means perfect scaling.

        Serial sweeps report the bare compute/wall ratio (< 1.0 measures
        engine overhead); parallel sweeps divide by the worker count.
        """
        if self.wall_s <= 0.0:
            return 0.0
        return self.point_s / (self.wall_s * max(self.jobs, 1))


def resolve_jobs(jobs: "int | None") -> int:
    """Normalise a ``--jobs`` value: ``None``/0 means all cores."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be positive, got {jobs}")
    return jobs


# -- deadline enforcement --------------------------------------------------


def _call_with_deadline(fn: Callable[[Any], Any], point: Any, timeout_s: "float | None") -> Any:
    """Evaluate ``fn(point)``, raising :class:`PointTimeout` past the deadline.

    In a process worker (or any POSIX main thread with no interval
    timer already armed) the deadline truly preempts pure-Python code
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


def _run_chunk(
    fn: Callable[[Any], Any],
    chunk: "list[tuple[int, Any]]",
    spec: _EvalSpec = _DEFAULT_SPEC,
) -> list[PointResult]:
    """Worker entry point: evaluate one chunk of (index, point) pairs."""
    return [_eval_point(fn, index, point, spec) for index, point in chunk]


def _run_chunk_stamped(
    fn: Callable[[Any], Any],
    chunk: "list[tuple[int, Any]]",
    spec: _EvalSpec = _DEFAULT_SPEC,
) -> tuple[float, list[PointResult]]:
    """Pool worker entry point: chunk results plus the worker start time.

    The start stamp uses :func:`time.monotonic` (CLOCK_MONOTONIC — one
    system-wide epoch on the platforms we support), so the parent can
    subtract its submit stamp to get the pool queue wait.
    """
    return (time.monotonic(), _run_chunk(fn, chunk, spec))


def _record(checkpoint: Any, outcomes: "Iterable[PointResult]") -> None:
    """Journal freshly computed outcomes (no-op without a checkpoint)."""
    if checkpoint is None:
        return
    for outcome in outcomes:
        checkpoint.record(outcome)


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
    jobs: "int | None" = 1,
    on_error: str = "raise",
    timeout_s: "float | None" = None,
    journal: "tuple[str, Any] | None" = None,
    checkpoint_dir: "str | os.PathLike | None" = None,
) -> SweepResult:
    """Evaluate ``fn`` over ``points``; results come back in input order.

    ``jobs`` (``None``/0 = all cores, capped at the points left to run)
    picks the path: 1 runs a plain loop in the calling process — no
    pool, no pickling, bitwise the behaviour the pool must reproduce —
    and anything larger fans the points out over a process pool.

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
    if timeout_s is not None and timeout_s <= 0.0:
        raise ValueError(f"timeout_s must be positive, got {timeout_s}")
    max_jobs = resolve_jobs(jobs)
    spec = _EvalSpec(
        on_error=on_error,
        retry=RETRY_POLICY if on_error == "retry" else None,
        timeout_s=timeout_s,
    )
    with _open_journal(journal, checkpoint_dir) as checkpoint:
        return _sweep(fn, list(enumerate(points)), max_jobs, spec, checkpoint)


def _sweep(
    fn: Callable[[Any], Any],
    indexed: "list[tuple[int, Any]]",
    max_jobs: int,
    spec: _EvalSpec,
    checkpoint: Any,
) -> SweepResult:
    """Restore, run and account for one sweep (checkpoint already open)."""
    restored, indexed = _restore_from_checkpoint(checkpoint, indexed)
    n_jobs = min(max_jobs, max(len(indexed), 1))
    if not indexed and not restored:
        return SweepResult((), (), n_jobs, 0.0)
    respawns = 0
    start = time.perf_counter()
    with _trace.span(
        "perf.sweep",
        jobs=n_jobs,
        points=len(indexed) + len(restored),
        on_error=spec.on_error,
    ) as sweep_span:
        if restored:
            sweep_span.add_event("resume", restored=len(restored), remaining=len(indexed))
        if not indexed:
            fresh: list[PointResult] = []
        elif n_jobs == 1:
            fresh = _sweep_serial(fn, indexed, spec=spec, checkpoint=checkpoint)
        else:
            fresh, respawns = _sweep_pooled(
                fn,
                indexed,
                n_jobs=n_jobs,
                sweep_span=sweep_span,
                spec=spec,
                checkpoint=checkpoint,
            )
        outcomes = sorted(restored + fresh, key=lambda r: r.index)
        wall = time.perf_counter() - start
        result = SweepResult(
            values=tuple(r.value for r in outcomes),
            timings=tuple(r.elapsed_s for r in outcomes),
            jobs=n_jobs,
            wall_s=wall,
            outcomes=tuple(outcomes),
            resumed=len(restored),
            respawns=respawns,
        )
        sweep_span.set_attributes(
            wall_s=result.wall_s,
            point_s=result.point_s,
            resumed=result.resumed,
            respawns=result.respawns,
        )
    _SWEEP_RUNS.inc()
    _SWEEP_POINTS.inc(len(result))
    _SWEEP_WALL.observe(result.wall_s)
    _SWEEP_COMPUTE.observe(result.point_s)
    _observe_outcomes(fresh, restored, respawns)
    return result


def _observe_outcomes(
    fresh: "list[PointResult]", restored: "list[PointResult]", respawns: int
) -> None:
    """Fold one sweep's resilience telemetry into the metrics registry."""
    if restored:
        _SWEEP_RESUMED.inc(len(restored))
    if respawns:
        _SWEEP_RESPAWNS.inc(respawns)
    retries = sum(o.attempts - 1 for o in fresh if o.attempts > 1)
    if retries:
        _SWEEP_RETRIES.inc(retries)
    for outcome in fresh:
        if outcome.status == "failed":
            _SWEEP_FAILED.inc()
        elif outcome.status == "timed_out":
            _SWEEP_TIMEOUTS.inc()
        elif outcome.status == "crashed":
            _SWEEP_CRASHES.inc()


def _sweep_serial(
    fn: Callable[[Any], Any],
    indexed: "list[tuple[int, Any]]",
    *,
    spec: _EvalSpec,
    checkpoint: Any,
) -> list[PointResult]:
    """The in-process path: a plain loop, per-point spans when traced."""
    traced = _trace.GLOBAL_TRACER.enabled
    results: list[PointResult] = []
    for index, point in indexed:
        if traced:
            with _trace.span("perf.point", index=index) as point_span:
                outcome = _eval_point(fn, index, point, spec)
                point_span.set_attributes(elapsed_s=outcome.elapsed_s, status=outcome.status)
        else:
            outcome = _eval_point(fn, index, point, spec)
        _record(checkpoint, (outcome,))
        results.append(outcome)
    return results


def _sweep_pooled(
    fn: Callable[[Any], Any],
    indexed: "list[tuple[int, Any]]",
    *,
    n_jobs: int,
    sweep_span: Any,
    spec: _EvalSpec,
    checkpoint: Any,
) -> "tuple[list[PointResult], int]":
    """The pool path: chunked dispatch with worker-crash isolation.

    A process pool that loses a worker (``BrokenProcessPool``) keeps
    every chunk that already came back, rebuilds the pool and requeues
    the rest — up to :data:`MAX_RESPAWNS` times, after which the
    surviving points run through :func:`_sweep_last_resort`.
    """
    chunks = [indexed[i : i + CHUNKSIZE] for i in range(0, len(indexed), CHUNKSIZE)]
    pending = list(enumerate(chunks))
    results: list[PointResult] = []
    respawns = 0
    while pending:
        completed, error, broken = _run_round(
            n_jobs, fn, pending, spec, sweep_span, checkpoint
        )
        for chunk_results in completed.values():
            results.extend(chunk_results)
        if error is not None:
            raise error
        if not broken:
            break
        pending = [(index, chunk) for index, chunk in pending if index not in completed]
        respawns += 1
        sweep_span.add_event("pool_respawn", respawn=respawns, chunks_left=len(pending))
        if respawns > MAX_RESPAWNS:
            leftover = [pair for _, chunk in pending for pair in chunk]
            results.extend(
                _sweep_last_resort(fn, leftover, spec, sweep_span, checkpoint)
            )
            break
        n_jobs = min(n_jobs, max(len(pending), 1))
    return results, respawns


def _run_round(
    n_jobs: int,
    fn: Callable[[Any], Any],
    tasks: "list[tuple[int, list[tuple[int, Any]]]]",
    spec: _EvalSpec,
    sweep_span: Any,
    checkpoint: Any,
) -> "tuple[dict[int, list[PointResult]], BaseException | None, bool]":
    """Submit every task to one pool; returns (completed, error, broken).

    Completed chunks are journalled and kept even when the pool breaks
    mid-round. Error scanning walks futures in submission order, so with
    ``on_error='raise'`` the lowest-indexed failing point's exception
    surfaces deterministically — exactly the historical contract.
    """
    from concurrent.futures import (
        FIRST_EXCEPTION,
        BrokenExecutor,
        ProcessPoolExecutor,
        wait,
    )

    completed: dict[int, list[PointResult]] = {}
    error: "BaseException | None" = None
    broken = False
    pool = ProcessPoolExecutor(max_workers=n_jobs)
    try:
        submitted: dict[int, float] = {}
        futures: dict[Any, int] = {}
        try:
            for chunk_index, chunk in tasks:
                submitted[chunk_index] = time.monotonic()
                futures[pool.submit(_run_chunk_stamped, fn, chunk, spec)] = chunk_index
            wait(list(futures), return_when=FIRST_EXCEPTION)
        except BrokenExecutor:
            broken = True
        for future, chunk_index in futures.items():
            if error is not None:
                future.cancel()
                continue
            if future.cancelled():
                continue
            exc = future.exception()
            if exc is None:
                started, chunk_results = future.result()
                queue_wait = max(0.0, started - submitted[chunk_index])
                _QUEUE_WAIT.observe(queue_wait)
                sweep_span.add_event(
                    "chunk",
                    index=chunk_index,
                    points=len(chunk_results),
                    queue_wait_s=queue_wait,
                )
                _record(checkpoint, chunk_results)
                completed[chunk_index] = chunk_results
            elif isinstance(exc, BrokenExecutor):
                broken = True
            else:
                error = exc
    except KeyboardInterrupt:
        # Orderly teardown on Ctrl-C: drop queued work, don't block on
        # running workers, let the caller report and exit 130.
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    pool.shutdown(wait=not broken, cancel_futures=True)
    return completed, error, broken


def _sweep_last_resort(
    fn: Callable[[Any], Any],
    pairs: "list[tuple[int, Any]]",
    spec: _EvalSpec,
    sweep_span: Any,
    checkpoint: Any,
) -> list[PointResult]:
    """Finish a sweep whose process pool kept dying.

    With ``on_error='raise'`` the surviving points run serially in the
    parent — the historical trust level. Otherwise each point gets its
    own single-worker pool, so a point that reliably kills its worker is
    *identified* (status ``"crashed"``) instead of taking the sweep (or
    the parent) down with it.
    """
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

    mode = "serial" if spec.on_error == "raise" else "isolate"
    sweep_span.add_event("last_resort", points=len(pairs), mode=mode)
    results: list[PointResult] = []
    for index, point in pairs:
        if mode == "serial":
            outcome = _eval_point(fn, index, point, spec)
        else:
            try:
                with ProcessPoolExecutor(max_workers=1) as solo:
                    _, chunk_results = solo.submit(
                        _run_chunk_stamped, fn, [(index, point)], spec
                    ).result()
                outcome = chunk_results[0]
            except BrokenExecutor as exc:
                outcome = PointResult(
                    index=index,
                    point=point,
                    value=None,
                    elapsed_s=0.0,
                    status="crashed",
                    attempts=1,
                    error=repr(exc),
                )
        _record(checkpoint, (outcome,))
        results.append(outcome)
    return results

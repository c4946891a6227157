"""Admission control: deadlines, token-bucket rate limiting, worker pool.

These are the service's load-shedding primitives. The design point is
the survey's synchronization lesson: a server under overload must fail
*fast and predictably* — a bounded queue plus explicit rejection keeps
the latency of the work it does accept within its deadline, where an
unbounded backlog would grow without limit and time every request out.

Three pieces, each independently testable with an injected clock:

* :class:`Deadline` — a monotonic time budget carried by each request;
* :class:`TokenBucket` — rate limiting (reject with 429 + Retry-After);
* :class:`WorkerPool` — a fixed pool of worker threads behind a
  depth-bounded admission queue (reject with 503 when full). Jobs whose
  deadline expires while still queued are *cancelled*: the worker skips
  them entirely, so an expired request never occupies a worker and
  never strands the responding thread.
"""

from __future__ import annotations

import collections
import threading
import time
from typing import Any, Callable

from repro.obs import metrics as _metrics
from repro.serve.errors import DeadlineExceededError, OverloadedError, RateLimitedError

__all__ = ["Deadline", "TokenBucket", "Job", "WorkerPool"]


_QUEUE_DEPTH = _metrics.REGISTRY.gauge(
    "serve.queue_depth", help="jobs waiting in the admission queue"
)
_INFLIGHT = _metrics.REGISTRY.gauge(
    "serve.inflight", help="jobs currently executing on pool workers"
)
_CANCELLED = _metrics.REGISTRY.counter(
    "serve.cancelled_jobs", help="queued jobs cancelled before execution (expired deadlines)"
)


class Deadline:
    """A monotonic time budget: ``deadline = now + budget_s``.

    ``None`` budget means unbounded. The clock is injectable so deadline
    behaviour can be tested without sleeping.
    """

    __slots__ = ("budget_s", "_clock", "_expires_at")

    def __init__(
        self,
        budget_s: "float | None",
        *,
        clock: Callable[[], float] = time.monotonic,
    ):
        if budget_s is not None and budget_s <= 0:
            raise ValueError(f"deadline budget must be positive, got {budget_s}")
        self.budget_s = budget_s
        self._clock = clock
        self._expires_at = None if budget_s is None else clock() + budget_s

    def remaining_s(self) -> "float | None":
        """Seconds left (may be negative once expired); None if unbounded."""
        if self._expires_at is None:
            return None
        return self._expires_at - self._clock()

    @property
    def expired(self) -> bool:
        """True once the budget has run out."""
        remaining = self.remaining_s()
        return remaining is not None and remaining <= 0.0

    def check(self, what: str) -> None:
        """Raise :class:`DeadlineExceededError` if the budget is spent."""
        if self.expired:
            raise DeadlineExceededError(
                f"deadline of {self.budget_s:.3f}s exceeded while {what}"
            )


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/s, ``burst`` capacity.

    ``rate=0`` disables limiting (every acquire succeeds). The bucket
    is thread-safe and refills lazily on each acquire, so it costs one
    clock read per admitted request.
    """

    def __init__(
        self,
        rate: float,
        burst: "int | None" = None,
        *,
        clock: Callable[[], float] = time.monotonic,
    ):
        if rate < 0:
            raise ValueError(f"rate must be >= 0, got {rate}")
        self.rate = float(rate)
        self.burst = float(burst if burst is not None else max(1.0, rate))
        if rate > 0 and self.burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self._clock = clock
        self._tokens = self.burst
        self._stamp = clock()
        self._lock = threading.Lock()

    def try_acquire(self) -> "float | None":
        """Take one token. Returns None on success, else seconds to wait."""
        if self.rate == 0:
            return None
        with self._lock:
            now = self._clock()
            self._tokens = min(self.burst, self._tokens + (now - self._stamp) * self.rate)
            self._stamp = now
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return None
            return (1.0 - self._tokens) / self.rate

    def admit(self) -> None:
        """Take one token or raise :class:`RateLimitedError` with a hint."""
        wait_s = self.try_acquire()
        if wait_s is not None:
            raise RateLimitedError(
                f"rate limit of {self.rate:g} requests/s exceeded",
                retry_after_s=wait_s,
            )


class Job:
    """One unit of admitted work: a thunk plus its completion state.

    The submitting thread waits on :meth:`wait`; a pool worker runs
    :meth:`execute`. :meth:`cancel` wins any race with the worker — a
    job transitions to exactly one of ``done`` or ``cancelled``.
    """

    __slots__ = ("fn", "deadline", "_event", "_lock", "_started", "_cancelled", "result", "error")

    def __init__(self, fn: Callable[[], Any], deadline: "Deadline | None" = None):
        self.fn = fn
        self.deadline = deadline
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._started = False
        self._cancelled = False
        self.result: Any = None
        self.error: "BaseException | None" = None

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` won the race against execution."""
        return self._cancelled

    @property
    def done(self) -> bool:
        """True once the job has a result or an error."""
        return self._event.is_set()

    def cancel(self) -> bool:
        """Cancel if not yet started; returns True when the job will be skipped."""
        with self._lock:
            if self._started:
                return False
            self._cancelled = True
            return True

    def execute(self) -> bool:
        """Run the thunk unless cancelled; returns False for a skipped job."""
        with self._lock:
            if self._cancelled:
                return False
            if self.deadline is not None and self.deadline.expired:
                # The deadline lapsed while queued: skip, don't burn a worker.
                self._cancelled = True
                return False
            self._started = True
        try:
            self.result = self.fn()
        except BaseException as error:  # noqa: BLE001 - transported to the waiter
            self.error = error
        finally:
            self._event.set()
        return True

    def wait(self, timeout_s: "float | None") -> bool:
        """Block until done (True) or the timeout lapses (False)."""
        return self._event.wait(timeout_s)


class WorkerPool:
    """``workers`` threads draining a queue bounded at ``queue_depth``.

    Admission is strict: a submit against a full queue raises
    :class:`OverloadedError` immediately rather than blocking — the
    caller turns that into a 503 + Retry-After, which is the only
    honest answer an overloaded server can give quickly.
    """

    def __init__(self, workers: int = 4, queue_depth: int = 16, *, name: str = "serve"):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if queue_depth < 0:
            raise ValueError(f"queue_depth must be >= 0, got {queue_depth}")
        self.workers = workers
        self.queue_depth = queue_depth
        self._queue: collections.deque[Job] = collections.deque()
        self._lock = threading.Lock()
        self._available = threading.Semaphore(0)
        self._inflight = 0
        self._shutdown = False
        self._threads = [
            threading.Thread(target=self._worker, name=f"{name}-worker-{i}", daemon=True)
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    def submit(self, fn: Callable[[], Any], *, deadline: "Deadline | None" = None) -> Job:
        """Queue a thunk; raises :class:`OverloadedError` when at depth."""
        job = Job(fn, deadline)
        with self._lock:
            if self._shutdown:
                raise OverloadedError("worker pool is shut down")
            # A submission only *waits* once every worker is busy; idle
            # workers turn the nominal queue bound into immediate pickup.
            idle = self.workers - self._inflight
            if len(self._queue) >= self.queue_depth + max(idle, 0):
                raise OverloadedError(
                    f"admission queue full ({self.queue_depth} waiting); retry later"
                )
            self._queue.append(job)
            _QUEUE_DEPTH.set(len(self._queue))
        self._available.release()
        return job

    def run(self, fn: Callable[[], Any], *, deadline: "Deadline | None" = None) -> Any:
        """Submit and wait under ``deadline``; cancels on expiry.

        Raises :class:`DeadlineExceededError` when the deadline lapses
        first — whether the job was still queued (it is cancelled and
        never runs) or already executing (the result is discarded; the
        worker finishes on its own without stranding this thread).
        """
        job = self.submit(fn, deadline=deadline)
        timeout = None if deadline is None else deadline.remaining_s()
        if job.wait(None if timeout is None else max(timeout, 0.0)):
            if job.error is not None:
                raise job.error
            return job.result
        if job.cancel():
            _CANCELLED.inc()
            raise DeadlineExceededError(
                f"deadline of {deadline.budget_s:.3f}s exceeded while queued"
            )
        raise DeadlineExceededError(
            f"deadline of {deadline.budget_s:.3f}s exceeded while executing"
        )

    def _worker(self) -> None:
        while True:
            self._available.acquire()
            with self._lock:
                if self._shutdown and not self._queue:
                    return
                job = self._queue.popleft() if self._queue else None
                _QUEUE_DEPTH.set(len(self._queue))
                if job is not None:
                    self._inflight += 1
                    _INFLIGHT.set(self._inflight)
            if job is None:
                continue
            try:
                if not job.execute():
                    _CANCELLED.inc()
            finally:
                with self._lock:
                    self._inflight -= 1
                    _INFLIGHT.set(self._inflight)

    @property
    def queued(self) -> int:
        """Jobs currently waiting in the admission queue."""
        with self._lock:
            return len(self._queue)

    def shutdown(self, *, drain_s: "float | None" = 5.0) -> bool:
        """Stop accepting, let workers finish, join within ``drain_s``.

        Returns True when every worker thread exited inside the budget.
        """
        with self._lock:
            self._shutdown = True
        for _ in self._threads:
            self._available.release()
        deadline = None if drain_s is None else time.monotonic() + drain_s
        clean = True
        for thread in self._threads:
            budget = None if deadline is None else max(deadline - time.monotonic(), 0.0)
            thread.join(budget)
            clean = clean and not thread.is_alive()
        return clean

"""Admission control: deadlines, token-bucket rate limiting, admission gate.

These are the service's load-shedding primitives. The design point is
the survey's synchronization lesson: a server under overload must fail
*fast and predictably* — a bounded queue plus explicit rejection keeps
the latency of the work it does accept within its deadline, where an
unbounded backlog would grow without limit and time every request out.

Three pieces, each independently testable with an injected clock:

* :class:`Deadline` — a monotonic time budget carried by each request;
* :class:`TokenBucket` — rate limiting (reject with 429 + Retry-After);
* :class:`AdmissionGate` — at most ``workers`` calls running and
  ``queue_depth`` waiting (reject with 503 beyond that). Each call runs
  on the thread that asked for it. A call whose deadline expires while
  it waits is *cancelled*: it never runs, so an expired request never
  occupies a slot.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

from repro.obs import metrics as _metrics
from repro.serve.errors import DeadlineExceededError, OverloadedError, RateLimitedError

__all__ = ["Deadline", "TokenBucket", "AdmissionGate"]


_QUEUE_DEPTH = _metrics.REGISTRY.gauge("serve.queue_depth", help="calls waiting for admission")
_INFLIGHT = _metrics.REGISTRY.gauge("serve.inflight", help="calls running under the admission gate")
_CANCELLED = _metrics.REGISTRY.counter(
    "serve.cancelled_jobs", help="calls whose deadline passed while waiting"
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


class AdmissionGate:
    """At most ``workers`` calls running at once, ``queue_depth`` waiting.

    Admission happens on the calling thread, which then runs the call
    itself: no hand-off to another thread, so a request wakes up once
    for its socket and never again for its result. A call past both
    bounds raises :class:`OverloadedError` immediately rather than
    blocking — the caller turns that into a 503 + Retry-After, which is
    the only honest answer an overloaded server can give quickly.
    """

    def __init__(self, workers: int = 4, queue_depth: int = 16):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if queue_depth < 0:
            raise ValueError(f"queue_depth must be >= 0, got {queue_depth}")
        self.workers = workers
        self.queue_depth = queue_depth
        self._slot_freed = threading.Condition()
        self._running = 0
        self._waiting = 0
        self._shutdown = False

    def run(self, fn: Callable[[], Any], *, deadline: "Deadline | None" = None) -> Any:
        """Admit under ``deadline``, then call ``fn`` on this thread.

        Raises :class:`DeadlineExceededError` when the deadline lapses
        before a slot is free (``fn`` never runs) or while ``fn`` runs
        (its result is discarded), and :class:`OverloadedError` when
        ``workers`` calls are running and ``queue_depth`` are waiting.
        """
        self._enter(deadline)
        try:
            result = fn()
        finally:
            self._leave()
        if deadline is not None and deadline.expired:
            raise DeadlineExceededError(
                f"deadline of {deadline.budget_s:.3f}s exceeded while executing"
            )
        return result

    def _enter(self, deadline: "Deadline | None") -> None:
        with self._slot_freed:
            self._check_admissible(deadline)
            if self._running < self.workers:
                self._take_slot()
                return
            if self._waiting >= self.queue_depth:
                raise OverloadedError(
                    f"admission queue full ({self.queue_depth} waiting); retry later"
                )
            self._waiting += 1
            _QUEUE_DEPTH.set(self._waiting)
            try:
                while self._running >= self.workers:
                    self._slot_freed.wait(None if deadline is None else deadline.remaining_s())
                    self._check_admissible(deadline)
            except BaseException:
                # Pass on a wake-up this waiter consumed but cannot use.
                if self._running < self.workers:
                    self._slot_freed.notify()
                raise
            finally:
                self._waiting -= 1
                _QUEUE_DEPTH.set(self._waiting)
            self._take_slot()

    def _check_admissible(self, deadline: "Deadline | None") -> None:
        if self._shutdown:
            raise OverloadedError("admission gate is shut down")
        if deadline is not None and deadline.expired:
            _CANCELLED.inc()
            raise DeadlineExceededError(
                f"deadline of {deadline.budget_s:.3f}s exceeded while queued"
            )

    def _take_slot(self) -> None:
        self._running += 1
        _INFLIGHT.set(self._running)

    def _leave(self) -> None:
        with self._slot_freed:
            self._running -= 1
            _INFLIGHT.set(self._running)
            if self._shutdown:
                self._slot_freed.notify_all()
            else:
                self._slot_freed.notify()

    @property
    def queued(self) -> int:
        """Calls currently waiting for a slot."""
        return self._waiting

    def shutdown(self, *, drain_s: "float | None" = 5.0) -> bool:
        """Refuse new calls, turn waiters away, wait for running ones.

        Returns True when no call was running any more within ``drain_s``.
        """
        with self._slot_freed:
            self._shutdown = True
            self._slot_freed.notify_all()
            return self._slot_freed.wait_for(lambda: self._running == 0, drain_s)

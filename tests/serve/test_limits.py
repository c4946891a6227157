"""Unit tests for the admission-control primitives (deadlines, bucket, gate)."""

import itertools
import sys
import threading
import time

import pytest

from repro.serve.errors import (
    DeadlineExceededError,
    OverloadedError,
    RateLimitedError,
)
from repro.serve.limits import AdmissionGate, Deadline, TokenBucket


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self, start: float = 0.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestDeadline:
    def test_counts_down_on_the_injected_clock(self):
        clock = FakeClock()
        deadline = Deadline(2.0, clock=clock)
        assert deadline.remaining_s() == pytest.approx(2.0)
        clock.advance(1.5)
        assert deadline.remaining_s() == pytest.approx(0.5)
        assert not deadline.expired
        clock.advance(0.5)
        assert deadline.expired

    def test_none_budget_never_expires(self):
        deadline = Deadline(None, clock=FakeClock())
        assert deadline.remaining_s() is None
        assert not deadline.expired
        deadline.check("anything")  # no raise

    def test_check_raises_naming_the_phase(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        clock.advance(2.0)
        with pytest.raises(DeadlineExceededError, match="while parsing"):
            deadline.check("parsing")

    def test_rejects_non_positive_budget(self):
        with pytest.raises(ValueError, match="positive"):
            Deadline(0.0)
        with pytest.raises(ValueError, match="positive"):
            Deadline(-1.0)


class TestTokenBucket:
    def test_rate_zero_disables_limiting(self):
        bucket = TokenBucket(0.0, clock=FakeClock())
        assert all(bucket.try_acquire() is None for _ in range(100))

    def test_burst_then_shed_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=2, clock=clock)
        assert bucket.try_acquire() is None
        assert bucket.try_acquire() is None
        wait = bucket.try_acquire()
        assert wait == pytest.approx(0.5)  # 1 token / 2 per s
        clock.advance(0.5)
        assert bucket.try_acquire() is None

    def test_tokens_cap_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=1, clock=clock)
        clock.advance(100.0)  # a long idle period buys at most `burst`
        assert bucket.try_acquire() is None
        assert bucket.try_acquire() is not None

    def test_admit_raises_with_retry_hint(self):
        bucket = TokenBucket(rate=1.0, burst=1, clock=FakeClock())
        bucket.admit()
        with pytest.raises(RateLimitedError, match="rate limit") as info:
            bucket.admit()
        assert info.value.retry_after_s == pytest.approx(1.0)
        assert info.value.status == 429

    def test_validation(self):
        with pytest.raises(ValueError, match=">= 0"):
            TokenBucket(-1.0)
        with pytest.raises(ValueError, match=">= 1"):
            TokenBucket(5.0, burst=0)


def wait_until(predicate, timeout_s=5.0):
    """Poll ``predicate`` until it holds; fail after ``timeout_s``."""
    give_up = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < give_up, "condition not reached in time"
        time.sleep(0.001)


def occupy(gate):
    """Hold one of ``gate``'s slots on a helper thread until released."""
    entered, release = threading.Event(), threading.Event()

    def hold():
        entered.set()
        release.wait(5.0)

    thread = threading.Thread(target=gate.run, args=(hold,), daemon=True)
    thread.start()
    assert entered.wait(5.0)
    return release, thread


def start_waiter(gate, outcome, **kwargs):
    """Call ``gate.run`` on a helper thread; its result or error lands in ``outcome``."""

    def call():
        try:
            outcome.append(gate.run(lambda: "ran", **kwargs))
        except Exception as error:  # noqa: BLE001 - handed to the test
            outcome.append(error)

    thread = threading.Thread(target=call, daemon=True)
    thread.start()
    return thread


class TestAdmissionGate:
    def test_runs_work_and_returns_the_result(self):
        gate = AdmissionGate(workers=2, queue_depth=4)
        assert gate.run(lambda: 21 * 2) == 42
        assert gate.shutdown()

    def test_runs_on_the_calling_thread(self):
        gate = AdmissionGate(workers=1, queue_depth=0)
        assert gate.run(threading.get_ident) == threading.get_ident()
        assert gate.shutdown()

    def test_handler_exceptions_propagate_to_the_caller(self):
        gate = AdmissionGate(workers=1, queue_depth=1)
        with pytest.raises(ZeroDivisionError):
            gate.run(lambda: 1 / 0)
        assert gate.shutdown()  # the failed call gave its slot back

    def test_queue_overflow_sheds_immediately(self):
        gate = AdmissionGate(workers=1, queue_depth=1)
        release, holder = occupy(gate)
        outcome = []
        waiter = start_waiter(gate, outcome)  # fills the queue (depth 1)
        try:
            wait_until(lambda: gate.queued == 1)
            with pytest.raises(OverloadedError, match="admission queue full"):
                gate.run(lambda: None)
        finally:
            release.set()
            holder.join(5.0)
            waiter.join(5.0)
        assert not holder.is_alive() and not waiter.is_alive()
        assert outcome == ["ran"]  # the waiter got the freed slot
        assert gate.shutdown()

    def test_idle_workers_extend_the_admission_bound(self):
        # With nobody running, `workers` calls are admitted even at
        # queue_depth=0 — they take a free slot without waiting.
        gate = AdmissionGate(workers=2, queue_depth=0)
        release, holder = occupy(gate)
        try:
            assert gate.run(lambda: "ok") == "ok"
        finally:
            release.set()
            holder.join(5.0)
        assert gate.shutdown()

    def test_expired_deadline_cancels_queued_job(self):
        gate = AdmissionGate(workers=1, queue_depth=2)
        release, holder = occupy(gate)
        ran = []
        try:
            with pytest.raises(DeadlineExceededError, match="while queued"):
                gate.run(lambda: ran.append(1), deadline=Deadline(0.05))
            assert gate.queued == 0
        finally:
            release.set()
            holder.join(5.0)
        assert gate.shutdown()
        assert not ran  # the cancelled call never executed

    def test_expired_deadline_is_refused_even_with_a_free_slot(self):
        ticks = itertools.count()
        gate = AdmissionGate(workers=1, queue_depth=0)
        expired = Deadline(1.0, clock=lambda: float(next(ticks)))
        ran = []
        with pytest.raises(DeadlineExceededError, match="while queued"):
            gate.run(lambda: ran.append(1), deadline=expired)
        assert not ran
        assert gate.shutdown()

    def test_slow_execution_times_out_as_executing(self):
        gate = AdmissionGate(workers=1, queue_depth=1)
        with pytest.raises(DeadlineExceededError, match="while executing"):
            gate.run(lambda: time.sleep(0.2) or "late", deadline=Deadline(0.05))
        assert gate.shutdown()

    def test_submit_after_shutdown_is_refused(self):
        gate = AdmissionGate(workers=1, queue_depth=1)
        assert gate.shutdown()
        with pytest.raises(OverloadedError, match="shut down"):
            gate.run(lambda: None)

    def test_shutdown_turns_waiters_away_and_waits_for_running_calls(self):
        gate = AdmissionGate(workers=1, queue_depth=1)
        release, holder = occupy(gate)
        outcome = []
        waiter = start_waiter(gate, outcome)
        try:
            wait_until(lambda: gate.queued == 1)
            assert not gate.shutdown(drain_s=0.0)  # the holder still runs
            waiter.join(5.0)
            assert not waiter.is_alive()
            assert isinstance(outcome[0], OverloadedError)
            assert "shut down" in str(outcome[0])
        finally:
            release.set()
            holder.join(5.0)
        assert gate.shutdown(drain_s=5.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="workers"):
            AdmissionGate(workers=0)
        with pytest.raises(ValueError, match="queue_depth"):
            AdmissionGate(queue_depth=-1)

    def test_queued_property_counts_waiting_jobs(self):
        gate = AdmissionGate(workers=1, queue_depth=4)
        release, holder = occupy(gate)
        outcome = []
        waiter = start_waiter(gate, outcome)
        try:
            wait_until(lambda: gate.queued == 1)
        finally:
            release.set()
            holder.join(5.0)
            waiter.join(5.0)
        assert gate.queued == 0 and outcome == ["ran"]
        assert gate.shutdown()

    def test_never_more_than_workers_run_at_once(self):
        # More callers than cores and slots, a short switch interval to
        # interleave them: a lost slot update would show up as more than
        # `workers` concurrent calls, a lost wake-up as a caller that
        # never returns.
        gate = AdmissionGate(workers=2, queue_depth=8)
        lock = threading.Lock()
        running, peak, done = [0], [0], []

        def call():
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
            time.sleep(0)
            with lock:
                running[0] -= 1
            return 1

        def caller():
            done.extend(gate.run(call) for _ in range(50))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, daemon=True) for _ in range(8)]
            for thread in threads:
                thread.start()
            give_up = time.monotonic() + 10.0
            for thread in threads:
                thread.join(max(give_up - time.monotonic(), 0.0))
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert len(done) == 8 * 50
        assert peak[0] <= 2
        assert gate.queued == 0 and gate.shutdown(drain_s=0.0)

"""Crash chaos for the job subsystem: real processes, real SIGKILLs.

Two headline claims from the durability contract get end-to-end proof:

* SIGKILLing the whole *server* mid-job and restarting onto the same
  ``--jobs-dir`` resumes the orphaned job from its sweep checkpoint and
  serves a result byte-identical to an uninterrupted run; resubmitting
  the victim's idempotency key returns the original job id untouched.
* SIGKILLing one *pre-fork worker* mid-job costs at most a resume: the
  supervisor respawns the slot and the job still completes.
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest

from repro.serve.prefork import supports_prefork

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

TERMINAL = ("succeeded", "failed", "cancelled", "expired")

#: A job slow enough to SIGKILL things mid-flight (~20 throttled chunks)
#: but fast enough for CI; throttle shapes scheduling, never values.
SLOW_JOB = {"kind": "population", "size": 600, "chunk": 30, "throttle": 0.05}


def boot(jobs_dir, *extra_args):
    """Start ``python -m repro.serve --jobs-dir ...``; returns (proc, url)."""
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.serve", "--port", "0",
            "--jobs-dir", str(jobs_dir), "--job-poll", "0.05",
            *extra_args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=REPO_ROOT,
    )
    line = proc.stdout.readline().strip()
    assert line.startswith("listening on "), line
    return proc, line.removeprefix("listening on ")


def stop(proc):
    """SIGTERM a leftover server, escalating to SIGKILL."""
    if proc.poll() is not None:
        return
    proc.terminate()
    try:
        proc.wait(timeout=15.0)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def request_json(url, *, method="GET", payload=None):
    """One JSON round-trip; returns (status, decoded body)."""
    body = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(
        url, data=body, method=method,
        headers={"Content-Type": "application/json"} if body else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=15.0) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def result_bytes(url, job_id):
    """The raw result body — raw so byte-identity is provable."""
    with urllib.request.urlopen(
        f"{url}/v1/jobs/{job_id}/result", timeout=15.0
    ) as response:
        return response.read()


def poll_until(url, job_id, states, timeout_s=60.0):
    """Poll the job until its state lands in ``states``; returns the state."""
    deadline = time.monotonic() + timeout_s
    state = None
    while time.monotonic() < deadline:
        status, payload = request_json(f"{url}/v1/jobs/{job_id}")
        if status == 200:
            state = payload["job"]["state"]
            if state in states:
                return state
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} stuck in {state!r}, wanted {states}")


def wait_for_records(jobs_dir, job_id, count, timeout_s=30.0):
    """Poll the job's checkpoint journals until they hold ``count`` records."""
    checkpoints = jobs_dir / "jobs" / job_id / "checkpoints"
    deadline = time.monotonic() + timeout_s
    while True:
        records = sum(
            max(len(journal.read_text("utf-8").splitlines()) - 1, 0)
            for journal in checkpoints.glob("*.jsonl")
        )
        if records >= count:
            return records
        assert time.monotonic() < deadline, f"job {job_id} journalled {records} records"
        time.sleep(0.01)


class TestServerLoss:
    def test_sigkill_mid_job_resumes_byte_identical(self, tmp_path):
        jobs_dir = tmp_path / "jobs"
        server, url = boot(jobs_dir)
        restarted = None
        try:
            # The baseline: the same job spec, run to completion
            # with no interference.
            _, submitted = request_json(
                f"{url}/v1/jobs", method="POST",
                payload={**SLOW_JOB, "idempotency-key": "baseline"},
            )
            baseline_id = submitted["job"]["id"]
            assert poll_until(url, baseline_id, TERMINAL) == "succeeded"
            baseline = result_bytes(url, baseline_id)

            status, submitted = request_json(
                f"{url}/v1/jobs", method="POST",
                payload={**SLOW_JOB, "idempotency-key": "victim"},
            )
            assert status == 202
            victim_id = submitted["job"]["id"]
            poll_until(url, victim_id, ("running",))
            # Let some chunks journal, then murder the server.
            wait_for_records(jobs_dir, victim_id, 3)
            server.send_signal(signal.SIGKILL)
            server.wait(timeout=15.0)

            restarted, url = boot(jobs_dir)
            assert poll_until(url, victim_id, TERMINAL) == "succeeded"
            assert result_bytes(url, victim_id) == baseline

            # The restarted server still honours the idempotency key —
            # same job id, deduplicated, nothing re-run.
            status, retried = request_json(
                f"{url}/v1/jobs", method="POST",
                payload={**SLOW_JOB, "idempotency-key": "victim"},
            )
            assert status == 200
            assert retried["deduplicated"] is True
            assert retried["job"]["id"] == victim_id
        finally:
            stop(server)
            if restarted is not None:
                stop(restarted)

    def test_journal_survives_on_disk_across_the_kill(self, tmp_path):
        jobs_dir = tmp_path / "jobs"
        server, url = boot(jobs_dir)
        try:
            _, submitted = request_json(
                f"{url}/v1/jobs", method="POST", payload=SLOW_JOB
            )
            job_id = submitted["job"]["id"]
            poll_until(url, job_id, ("running",))
            server.send_signal(signal.SIGKILL)
            server.wait(timeout=15.0)
            events = (jobs_dir / "jobs" / job_id / "events.jsonl").read_text()
            names = [json.loads(line)["event"] for line in events.splitlines()[1:]]
            assert names[0] == "submitted"
            assert "started" in names
        finally:
            stop(server)


@pytest.mark.skipif(
    not supports_prefork(), reason="pre-fork needs os.fork and SO_REUSEPORT"
)
class TestWorkerLoss:
    def test_job_survives_a_worker_sigkill(self, tmp_path):
        server, url = boot(
            tmp_path / "jobs", "--processes", "2", "--workers", "2"
        )
        try:
            _, submitted = request_json(
                f"{url}/v1/jobs", method="POST", payload=SLOW_JOB
            )
            job_id = submitted["job"]["id"]
            poll_until(url, job_id, ("running",))

            _, ready = request_json(f"{url}/v1/readyz")
            pids = [m["pid"] for m in ready["fleet"]["members"]]
            assert pids
            os.kill(pids[0], signal.SIGKILL)

            # The supervisor must respawn the slot...
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                try:
                    _, ready = request_json(f"{url}/v1/readyz")
                except OSError:
                    time.sleep(0.1)
                    continue
                fleet = ready.get("fleet", {})
                if (
                    fleet.get("workers") == 2
                    and fleet.get("respawns", {}).get("respawns", 0) >= 1
                ):
                    break
                time.sleep(0.1)
            else:
                raise AssertionError("killed worker was never respawned")

            # ...and the job must still complete with a readable result.
            assert poll_until(url, job_id, TERMINAL) == "succeeded"
            payload = json.loads(result_bytes(url, job_id))
            assert payload["total"] == SLOW_JOB["size"]
        finally:
            stop(server)

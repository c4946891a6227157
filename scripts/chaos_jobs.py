#!/usr/bin/env python
"""Chaos-verify the durable job server end to end.

This is the CI ``chaos`` job. It proves the job store's headline
robustness claim with real processes and a real SIGKILL: **a durable
async job survives its server.** A throttled ``survey-costs`` job is
submitted over ``/v1/jobs``, the *server* is SIGKILLed mid-job, and a
fresh server is booted onto the same ``--jobs-dir``. The restarted
runner must adopt the orphaned job, resume from its sweep checkpoint,
and produce a result artifact byte-identical to an uninterrupted run of
the same job — and resubmitting with the victim's idempotency key must
return the original job id, deduplicated, without re-running anything.

The job's ``throttle`` makes the sweep slow enough to kill the server
mid-flight; it shapes scheduling only, never values, so byte-identity
still holds.

Usage::

    python scripts/chaos_jobs.py
    python scripts/chaos_jobs.py --throttle 0.3 --kill-after 1.5
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return env


def stop(proc: subprocess.Popen) -> None:
    """Terminate a leftover process, escalating to SIGKILL."""
    if proc.poll() is not None:
        return
    proc.terminate()
    try:
        proc.wait(timeout=5.0)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def start_job_server(jobs_dir: str) -> "tuple[subprocess.Popen, str]":
    """Boot the HTTP service with the durable job store at ``jobs_dir``."""
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.serve",
            "--port", "0", "--jobs-dir", jobs_dir, "--job-poll", "0.05",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        cwd=REPO_ROOT,
        env=_env(),
    )
    assert proc.stdout is not None
    line = proc.stdout.readline().strip()
    if not line.startswith("listening on "):
        proc.kill()
        raise RuntimeError(f"server did not announce itself (got {line!r})")
    return proc, line.removeprefix("listening on ")


def _jobs_request(
    url: str, *, method: str = "GET", payload: "dict | None" = None
) -> "tuple[int, dict]":
    """One JSON round-trip against the jobs API."""
    body = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(
        url, data=body, method=method,
        headers={"Content-Type": "application/json"} if body else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=30.0) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _poll_job(url: str, job_id: str, deadline_s: float) -> str:
    """Poll a job until it reaches a terminal state (or time runs out)."""
    terminal = ("succeeded", "failed", "cancelled", "expired")
    deadline = time.monotonic() + deadline_s
    state = "queued"
    while state not in terminal and time.monotonic() < deadline:
        time.sleep(0.1)
        status, polled = _jobs_request(f"{url}/v1/jobs/{job_id}")
        if status == 200:
            state = polled["job"]["state"]
    return state


def _result_bytes(url: str, job_id: str) -> bytes:
    """The raw result artifact bytes — raw so byte-identity is provable."""
    with urllib.request.urlopen(
        f"{url}/v1/jobs/{job_id}/result", timeout=30.0
    ) as response:
        return response.read()


def chaos_job_server_loss(throttle_s: float, kill_after_s: float) -> "list[str]":
    """SIGKILL the *server* mid-job; a restart resumes the job.

    The baseline is the same job spec run to completion uninterrupted on
    the same store. The victim job is killed mid-sweep along with its
    whole server process; a fresh server on the same ``--jobs-dir`` must
    adopt it, resume from the sweep checkpoint, and emit result bytes
    identical to the baseline's.
    """
    failures: "list[str]" = []
    spec = {"kind": "survey-costs", "n": 8, "throttle": throttle_s}
    with tempfile.TemporaryDirectory(prefix="chaos-jobs-") as jobs_dir:
        server, url = start_job_server(jobs_dir)
        restarted: "subprocess.Popen | None" = None
        try:
            _, submitted = _jobs_request(
                f"{url}/v1/jobs", method="POST",
                payload={**spec, "idempotency-key": "chaos-baseline"},
            )
            baseline_id = submitted["job"]["id"]
            if _poll_job(url, baseline_id, 120.0) != "succeeded":
                failures.append("baseline job did not succeed")
                return failures
            baseline = _result_bytes(url, baseline_id)

            _, submitted = _jobs_request(
                f"{url}/v1/jobs", method="POST",
                payload={**spec, "idempotency-key": "chaos-victim"},
            )
            victim_id = submitted["job"]["id"]
            deadline = time.monotonic() + 30.0
            state = "queued"
            while state == "queued" and time.monotonic() < deadline:
                time.sleep(0.05)
                _, polled = _jobs_request(f"{url}/v1/jobs/{victim_id}")
                state = polled["job"]["state"]
            if state != "running":
                failures.append(f"victim job never started running: {state}")
                return failures
            time.sleep(kill_after_s)
            server.send_signal(signal.SIGKILL)
            server.wait()

            restarted, url = start_job_server(jobs_dir)
            state = _poll_job(url, victim_id, 120.0)
            if state != "succeeded":
                failures.append(
                    f"job did not survive the server SIGKILL: {state}"
                )
                return failures
            resumed = _result_bytes(url, victim_id)
            if resumed != baseline:
                failures.append(
                    "resumed job result differs from the uninterrupted run"
                )
            status, retried = _jobs_request(
                f"{url}/v1/jobs", method="POST",
                payload={**spec, "idempotency-key": "chaos-victim"},
            )
            if (
                status != 200
                or retried.get("deduplicated") is not True
                or retried.get("job", {}).get("id") != victim_id
            ):
                failures.append(
                    "idempotent resubmit after restart did not return the "
                    f"original job: {status} {retried}"
                )
        finally:
            stop(server)
            if restarted is not None:
                stop(restarted)
    return failures


def main(argv: "list[str] | None" = None) -> int:
    """Run the scenario; exit nonzero on any violated invariant."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--throttle", type=float, default=0.2, metavar="S",
        help="per-point job delay, sizing the kill window (default 0.2)",
    )
    parser.add_argument(
        "--kill-after", type=float, default=1.2, metavar="S",
        help="seconds into the running job to deliver SIGKILL (default 1.2)",
    )
    args = parser.parse_args(argv)

    failures = chaos_job_server_loss(args.throttle, args.kill_after)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("chaos jobs passed: server SIGKILL + restart mid-job is byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())

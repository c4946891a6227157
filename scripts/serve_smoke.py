#!/usr/bin/env python
"""End-to-end smoke of the serve stack: boot, load, drain — in one go.

This is the CI serve-smoke step. It:

1. boots ``python -m repro.serve --port 0`` as a subprocess (optionally
   pre-forked via ``--processes``) and parses the ``listening on
   <url>`` line for the ephemeral address;
2. drives ``scripts/loadgen.py`` against it with keep-alive connection
   reuse (default 200 requests) and writes the latency summary artifact;
3. exercises the full data plane: asserts connections were actually
   reused, posts one batch request, prices the survey once
   (``/v1/survey?costs=true``: 25 architectures, each with ``costs``),
   checks ``/v1/readyz`` reports every pre-forked worker, and checks
   ``/v1/metrics`` shows a nonzero response-cache hit count;
4. exercises the async job plane (the server boots with ``--jobs-dir``):
   a few submit/poll/result round-trips with idempotent-retry dedupe,
   and — when pre-forked — a SIGKILL of one worker mid-job, asserting
   the supervisor respawns the slot and the job still completes;
5. sends SIGTERM and asserts the (multi-worker) drain completes with
   exit code 0;
6. fails (exit 1) on any 5xx, transport error, unclean shutdown, lost
   job, or a p99 latency above ``--max-p99-ms`` (0 disables the bound).

Usage::

    python scripts/serve_smoke.py
    python scripts/serve_smoke.py --processes 2 --requests 500
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "scripts"))

from loadgen import (  # noqa: E402
    TERMINAL_JOB_STATES,
    _json_request,
    render,
    render_jobs,
    run_jobs_load,
    run_load,
)

BATCH_BODY = json.dumps(
    {"items": [{"class": "IAP-IV", "n": n} for n in (4, 16, 64)]}
).encode()


def boot_server(extra_args: "list[str]", timeout_s: float) -> "tuple[subprocess.Popen, str]":
    """Start the server subprocess; returns (process, base URL)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--port", "0", *extra_args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=REPO_ROOT,
    )
    deadline = time.monotonic() + timeout_s
    assert proc.stdout is not None
    line = proc.stdout.readline().strip()
    if not line.startswith("listening on ") or time.monotonic() > deadline:
        proc.kill()
        raise RuntimeError(f"server did not announce itself (got {line!r})")
    return proc, line.removeprefix("listening on ")


def check_batch(url: str, failures: "list[str]") -> None:
    """One batch POST must answer every item successfully."""
    request = urllib.request.Request(
        url + "/v1/costs", data=BATCH_BODY, method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30.0) as response:
        payload = json.loads(response.read())
    if payload.get("count") != 3 or payload.get("errors") != 0:
        failures.append(f"batch request misbehaved: {payload}")
    else:
        print(f"batch POST ok ({payload['count']} items, 0 errors)")


def check_survey_costs(url: str, failures: "list[str]") -> None:
    """``/v1/survey?costs=true`` must price all 25 surveyed architectures."""
    status, payload = _json_request(f"{url}/v1/survey?costs=true", timeout_s=30.0)
    architectures = payload.get("architectures", [])
    priced = sum("costs" in row for row in architectures)
    if status != 200 or payload.get("count") != 25 or priced != len(architectures):
        failures.append(
            f"survey costing misbehaved: status {status}, count "
            f"{payload.get('count')}, {priced}/{len(architectures)} priced"
        )
    else:
        print("survey costs ok (25 architectures, each with costs)")


def check_fleet(url: str, processes: int, failures: "list[str]") -> None:
    """``/v1/readyz`` must report every pre-forked worker."""
    with urllib.request.urlopen(url + "/v1/readyz", timeout=30.0) as response:
        ready = json.loads(response.read())
    workers = ready.get("fleet", {}).get("workers", 0)
    if workers != processes:
        failures.append(f"readyz reports {workers} workers, expected {processes}")
    else:
        print(f"readyz reports the full fleet ({workers} worker(s))")


def check_cache_hits(url: str, failures: "list[str]") -> None:
    """The aggregated metrics must show a nonzero cache hit count."""
    with urllib.request.urlopen(url + "/v1/metrics", timeout=30.0) as response:
        text = response.read().decode()
    hits = 0.0
    for line in text.splitlines():
        if line.startswith("repro_serve_cache_hits_total "):
            hits = float(line.split()[1])
    if hits <= 0:
        failures.append("metrics show zero response-cache hits after the load")
    else:
        print(f"response cache served {hits:.0f} hits")


def check_jobs(url: str, failures: "list[str]") -> None:
    """A few async job round-trips, including idempotent-retry dedupe."""
    summary = run_jobs_load(url, jobs=3, threads=3, timeout_s=60.0)
    print(render_jobs(summary))
    if summary["succeeded"] != summary["jobs"]:
        failures.append(
            f"only {summary['succeeded']}/{summary['jobs']} jobs succeeded: "
            f"{summary['outcomes']}"
        )
    if summary["idempotency"]["failed"]:
        failures.append(
            f"{summary['idempotency']['failed']} idempotency retries were "
            "not deduplicated"
        )
    if summary["submit_errors"] or summary["result_errors"]:
        failures.append(
            f"jobs API errors: {summary['submit_errors']} submit, "
            f"{summary['result_errors']} result"
        )


def check_job_survives_respawn(
    url: str, processes: int, failures: "list[str]"
) -> None:
    """SIGKILL one pre-fork worker mid-job; the job must still finish.

    The job store lives on shared disk and crash-freed claims are
    adopted on the next poll, so losing the worker that was running the
    job must cost at most a resume — never the job.
    """
    status, submitted = _json_request(
        f"{url}/v1/jobs", method="POST", payload={
            "kind": "population", "size": 2000, "chunk": 50, "throttle": 0.05,
        }, timeout_s=30.0,
    )
    if status != 202:
        failures.append(f"slow job submit returned {status}: {submitted}")
        return
    job_id = submitted["job"]["id"]
    _, ready = _json_request(f"{url}/v1/readyz", timeout_s=30.0)
    pids = [m["pid"] for m in ready.get("fleet", {}).get("members", [])]
    if not pids:
        failures.append("readyz listed no fleet members to kill")
        return
    victim = pids[0]
    os.kill(victim, signal.SIGKILL)
    print(f"killed worker {victim} with SIGKILL mid-job {job_id}")

    deadline = time.monotonic() + 30.0
    respawned = False
    while time.monotonic() < deadline:
        try:
            _, ready = _json_request(f"{url}/v1/readyz", timeout_s=5.0)
        except OSError:
            time.sleep(0.2)
            continue
        fleet = ready.get("fleet", {})
        if (
            fleet.get("workers") == processes
            and fleet.get("respawns", {}).get("respawns", 0) >= 1
        ):
            respawned = True
            break
        time.sleep(0.2)
    if not respawned:
        failures.append("supervisor did not respawn the killed worker")
        return
    print(f"supervisor respawned the slot (fleet back to {processes})")

    state = "queued"
    while state not in TERMINAL_JOB_STATES and time.monotonic() < deadline:
        time.sleep(0.2)
        status, polled = _json_request(f"{url}/v1/jobs/{job_id}", timeout_s=5.0)
        if status == 200:
            state = polled["job"]["state"]
    if state != "succeeded":
        failures.append(f"job {job_id} did not survive the respawn: {state}")
        return
    status, _ = _json_request(f"{url}/v1/jobs/{job_id}/result", timeout_s=30.0)
    if status != 200:
        failures.append(f"result fetch after respawn returned {status}")
    else:
        print(f"job {job_id} survived the worker kill and completed")


def main(argv: "list[str] | None" = None) -> int:
    """Boot, load, drain; exit nonzero on any robustness violation."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=200)
    parser.add_argument("--threads", type=int, default=4)
    parser.add_argument(
        "--out", default="artifacts/serve_smoke.json", metavar="FILE"
    )
    parser.add_argument(
        "--workers", type=int, default=4, help="requests the server executes at once"
    )
    parser.add_argument(
        "--processes", type=int, default=1,
        help="pre-forked server processes (the fleet size readyz must report)",
    )
    parser.add_argument(
        "--max-p99-ms", type=float, default=0.0, metavar="MS",
        help="fail when overall p99 latency exceeds MS (0 disables; CI "
        "sets a generous bound to catch pathological regressions only)",
    )
    args = parser.parse_args(argv)

    jobs_dir = tempfile.mkdtemp(prefix="repro-smoke-jobs-")
    proc, url = boot_server(
        [
            "--workers", str(args.workers),
            "--processes", str(args.processes),
            "--jobs-dir", jobs_dir,
        ],
        timeout_s=30.0,
    )
    print(f"server up at {url}")
    failures: "list[str]" = []
    try:
        summary = run_load(
            url, requests=args.requests, threads=args.threads,
            timeout_s=30.0, keep_alive=True,
        )
        print(render(summary))
        if summary["server_errors"]:
            failures.append(f"{summary['server_errors']} 5xx responses")
        if summary["transport_errors"]:
            failures.append(f"{summary['transport_errors']} transport errors")
        connections = summary.get("connections", {}).get("opened", 0)
        if not connections or connections >= summary["requests"]:
            failures.append(
                f"keep-alive reuse did not happen: {connections} connections "
                f"for {summary['requests']} requests"
            )
        p99_ms = summary["latency_ms"]["p99"]
        if args.max_p99_ms and p99_ms > args.max_p99_ms:
            failures.append(
                f"p99 latency {p99_ms}ms exceeds the {args.max_p99_ms}ms bound"
            )
        check_batch(url, failures)
        check_survey_costs(url, failures)
        check_fleet(url, args.processes, failures)
        check_cache_hits(url, failures)
        check_jobs(url, failures)
        if args.processes > 1:
            check_job_survives_respawn(url, args.processes, failures)
        if args.out:
            path = Path(args.out)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
            print(f"wrote {path}")
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            status = proc.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            status = None
        shutil.rmtree(jobs_dir, ignore_errors=True)
    if status != 0:
        failures.append(f"server exited {status}, wanted a clean drain (0)")
    else:
        print("server drained cleanly (exit 0)")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("serve smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

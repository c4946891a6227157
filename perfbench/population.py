"""The ``population-job`` part: submit, poll and fetch durable jobs.

A server with a job store runs ``population`` jobs of 100 000 uniform
rows, each with its own seed derived from the workload seed. Each result
is checked against the in-process fold of ``class_occupancy`` over the
same chunk specs, computed after the timed window; the traced run times
that fold's two halves and reads the job journal.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any

from common import HttpClient, Server, Tracer, import_program, median
from inputs import job_seed

SIZE = 100_000
MODE = "uniform"
POLL_S = 0.025
TERMINAL = ("succeeded", "failed", "cancelled", "expired")


def _submit_and_wait(client: HttpClient, params: dict[str, Any]) -> dict[str, Any]:
    """One job from submit to fetched result, with client-side timestamps."""
    body = json.dumps({"kind": "population", **params}).encode()
    t_submit = time.perf_counter()
    status, raw = client.request("POST", "/v1/jobs", body)
    t_accepted = time.perf_counter()
    if status != 202:
        raise RuntimeError(f"submit answered {status}: {raw[:200]!r}")
    job = json.loads(raw)["job"]
    while job["state"] not in TERMINAL:
        time.sleep(POLL_S)
        status, raw = client.request("GET", f"/v1/jobs/{job['id']}")
        if status != 200:
            raise RuntimeError(f"poll answered {status}: {raw[:200]!r}")
        job = json.loads(raw)["job"]
    t_seen = time.perf_counter()
    wall_seen = time.time()
    if job["state"] != "succeeded":
        raise RuntimeError(f"job {job['id']} ended {job['state']}: {job.get('error')}")
    status, result = client.request("GET", f"/v1/jobs/{job['id']}/result")
    t_done = time.perf_counter()
    if status != 200:
        raise RuntimeError(f"result answered {status}: {result[:200]!r}")
    return {
        "id": job["id"],
        "params": job["params"],
        "result": json.loads(result),
        "submit_to_result_s": t_done - t_submit,
        "submit_s": t_accepted - t_submit,
        "fetch_s": t_done - t_seen,
        "wall_seen": wall_seen,
    }


class Jobs:
    """One job server, warmed up on construction; :meth:`job` times one job."""

    def __init__(self, seed: int, cwd: Path, tracer: Tracer):
        self._seed = seed
        self._tracer = tracer
        self._jobs_dir = cwd / "jobs"
        self.jobs: list[dict[str, Any]] = []
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.server = Server("--jobs-dir", str(self._jobs_dir), cwd=cwd,
                             log=cwd / "population-server.log")
        self._client = HttpClient(self.server.port)
        try:
            # Warm-up (untimed): first use of the job kind in this server.
            _submit_and_wait(self._client, {"size": 2048, "mode": MODE, "seed": job_seed(seed, -1)})
        except BaseException:
            self.close()
            raise

    def job(self) -> None:
        """Submit one timed job and wait for its result."""
        params = {"size": SIZE, "mode": MODE, "seed": job_seed(self._seed, len(self.jobs))}
        self.attempted += 1
        self._client.close()  # a fresh connection: the idle one may have timed out
        with self._tracer.span("population.job", seed=params["seed"]) as span_id:
            try:
                job = _submit_and_wait(self._client, params)
            except (OSError, RuntimeError, ValueError) as error:
                self.failed += 1
                self.errors.append(f"job {len(self.jobs)}: {error}")
                self.jobs.append({"error": str(error)})
                return
        job["span"] = span_id
        self.jobs.append(job)

    def close(self) -> None:
        """Stop the server (a non-zero exit is a failure)."""
        self._client.close()
        exit_code = self.server.stop()
        if exit_code != 0:
            self.failed += 1
            self.errors.append(f"population server exited {exit_code}")

    def result(self) -> dict[str, Any]:
        """Journal facts of every finished job, after :meth:`close`."""
        done = [job for job in self.jobs if "error" not in job]
        for job in done:
            job["journal"] = _read_journal(self._jobs_dir / "jobs" / job["id"])
        return {
            "setup_s": self.server.setup_s,
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
            "jobs": self.jobs,
            "submit_to_result_s": [job["submit_to_result_s"] for job in done],
        }


def _read_journal(job_dir: Path) -> dict[str, Any]:
    """Event timestamps and checkpoint record count of one finished job."""
    stamps: dict[str, float] = {}
    lines = (job_dir / "events.jsonl").read_text("utf-8").splitlines()
    for line in lines[1:]:
        event = json.loads(line)
        stamps.setdefault(event["event"], float(event["ts"]))
    records = 0
    for journal in (job_dir / "checkpoints").glob("*.jsonl"):
        records += max(len(journal.read_text("utf-8").splitlines()) - 1, 0)
    return {"events": stamps, "checkpoint_records": records}


def verify(part: dict[str, Any]) -> tuple[bool, list[str], dict[str, float]]:
    """Check every result against the in-process fold; time its halves."""
    import_program()
    from repro.registry.populations import PopulationSpec, class_occupancy, generate_signatures

    errors: list[str] = []
    timing = {"generate_s": 0.0, "occupancy_s": 0.0, "rows": 0}
    for job in part["jobs"]:
        if "error" in job:
            continue
        params, result = job["params"], job["result"]
        size, chunk = int(params["size"]), int(params["chunk"])
        expected: dict[str, int] = {}
        job_generate = job_occupancy = 0.0
        for index in range((size + chunk - 1) // chunk):
            spec = PopulationSpec(
                size=min(chunk, size - index * chunk), seed=int(params["seed"]) + index,
                mode=str(params["mode"]), max_n=int(params["max_n"]),
            )
            t0 = time.perf_counter()
            signatures = generate_signatures(spec)
            t1 = time.perf_counter()
            for serial, count in class_occupancy(signatures).items():
                expected[str(serial)] = expected.get(str(serial), 0) + count
            t2 = time.perf_counter()
            job_generate += t1 - t0
            job_occupancy += t2 - t1
        job["reference_s"] = job_generate + job_occupancy
        timing["generate_s"] += job_generate
        timing["occupancy_s"] += job_occupancy
        timing["rows"] += size
        if result.get("occupancy") != expected:
            errors.append(f"job {job['id']}: occupancy differs from the in-process fold")
        if result.get("total") != size or size != SIZE:
            errors.append(f"job {job['id']}: total {result.get('total')} != size {SIZE}")
    return not errors, errors, timing


def layer_metrics(part: dict[str, Any], timing: dict[str, float], tracer: Tracer) -> dict[str, float]:
    """Per-layer job numbers from the journal, the client and the fold."""
    done = [job for job in part["jobs"] if "error" not in job]
    queue, run_s, fetch, submit, lag, records, overhead = [], [], [], [], [], [], []
    for job in done:
        events = job["journal"]["events"]
        queue.append(events["started"] - events["submitted"])
        run_s.append(events["succeeded"] - events["started"])
        fetch.append(job["fetch_s"])
        submit.append(job["submit_s"])
        lag.append(job["wall_seen"] - events["succeeded"])
        records.append(job["journal"]["checkpoint_records"])
        overhead.append(run_s[-1] - job["reference_s"])
        tracer.add("jobs.queue", events["submitted"], events["started"],
                   parent=job["span"], wall=True)
        tracer.add("jobs.run", events["started"], events["succeeded"],
                   parent=job["span"], wall=True)
    rows = max(timing["rows"], 1)
    return {
        "populations.generate_us_per_row": timing["generate_s"] / rows * 1e6,
        "populations.occupancy_us_per_row": timing["occupancy_s"] / rows * 1e6,
        "jobs.submit_ms": median(submit) * 1e3,
        "jobs.queue_wait_s": median(queue),
        "jobs.run_s": median(run_s),
        "jobs.detect_lag_s": median(lag),
        "jobs.result_fetch_ms": median(fetch) * 1e3,
        "jobs.checkpoint_records": median(records),
        "jobs.overhead_s": median(overhead),
    }

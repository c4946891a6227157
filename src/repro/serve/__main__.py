"""``python -m repro.serve`` — boot the taxonomy query service.

A minimal arg surface for scripts and tests (the full-featured entry is
``repro-taxonomy serve``; both share :func:`repro.serve.run_server`).
The listening URL is printed on stdout before the first accept so
callers binding port 0 can discover the ephemeral port.
"""

from __future__ import annotations

import argparse
import sys

from repro.serve.breaker import BreakerPolicy
from repro.serve.server import ServerConfig, run_server


def main(argv: "list[str] | None" = None) -> int:
    """Parse the minimal flag set and serve until signalled."""
    parser = argparse.ArgumentParser(prog="python -m repro.serve")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--processes", type=int, default=1)
    parser.add_argument("--queue-depth", type=int, default=16)
    parser.add_argument("--keepalive-requests", type=int, default=100)
    parser.add_argument("--keepalive-idle", type=float, default=5.0)
    parser.add_argument("--cache-size", type=int, default=1024)
    parser.add_argument("--deadline", type=float, default=2.0)
    parser.add_argument("--rate", type=float, default=0.0)
    parser.add_argument("--drain-deadline", type=float, default=5.0)
    parser.add_argument("--fault-seed", type=int, default=None)
    parser.add_argument("--fault-rate", type=float, default=0.1)
    parser.add_argument("--fabric-workers", default=None, metavar="HOST:PORT,...")
    parser.add_argument("--jobs-dir", default=None, metavar="DIR")
    parser.add_argument("--job-runners", type=int, default=2)
    parser.add_argument("--job-ttl", type=float, default=3600.0)
    parser.add_argument("--job-poll", type=float, default=0.25)
    args = parser.parse_args(argv)
    fault_plan = None
    if args.fault_seed is not None:
        from repro.faults.plan import FaultPlan

        fault_plan = FaultPlan.random(
            args.fault_seed, args.fault_rate, n_pes=64, horizon=64
        )
    config = ServerConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        processes=args.processes,
        queue_depth=args.queue_depth,
        deadline_s=args.deadline,
        rate=args.rate,
        drain_s=args.drain_deadline,
        breaker=BreakerPolicy(),
        fault_plan=fault_plan,
        fabric_workers=args.fabric_workers,
        keepalive_requests=args.keepalive_requests,
        keepalive_idle_s=args.keepalive_idle,
        cache_size=args.cache_size,
        jobs_dir=args.jobs_dir,
        job_runners=args.job_runners,
        job_ttl_s=args.job_ttl,
        job_poll_s=args.job_poll,
    )
    return run_server(config)


if __name__ == "__main__":
    sys.exit(main())

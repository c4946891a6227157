"""The one ``serve`` flag table, shared by both entry points.

``python -m repro.serve`` and ``repro-taxonomy serve`` build their
arguments from :func:`add_serve_arguments` and serve through
:func:`run_serve`, so the two cannot drift apart. The only difference
is the default port: 0 (ephemeral) for the module entry, 8080 for the
CLI. This module imports only :mod:`argparse` and :mod:`sys` at load
time, so it costs the server's start-up nothing; that is also why
:data:`REMOVED_FLAGS`, the diagnostics for flags ``serve`` no longer
takes, lives here for both entry points to read.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.serve.server import ServerConfig

__all__ = ["REMOVED_FLAGS", "add_serve_arguments", "run_serve", "server_config"]

#: Flags ``serve`` no longer takes -> the one-line diagnostic naming why.
REMOVED_FLAGS = {
    "--fabric-workers": (
        "--fabric-workers was removed with the distributed sweep fabric; "
        "serve prices /v1/survey?costs=true in its own process"
    ),
    **{
        flag: (
            f"{flag} was removed with the circuit breaker; /v1/survey?costs=true "
            "is deterministic arithmetic and runs unguarded"
        )
        for flag in ("--breaker-failures", "--breaker-recovery", "--fault-seed", "--fault-rate")
    },
}


def add_serve_arguments(parser: argparse.ArgumentParser, *, default_port: int) -> None:
    """Add every ``serve`` flag to ``parser``."""
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    parser.add_argument(
        "--port", type=int, default=default_port,
        help=f"bind port; 0 picks an ephemeral port (default {default_port})",
    )
    parser.add_argument(
        "--workers", type=int, default=4,
        help="requests executing at once (default 4)",
    )
    parser.add_argument(
        "--processes", type=int, default=1,
        help="pre-fork worker processes sharing the port via SO_REUSEPORT "
        "(default 1 = single process)",
    )
    parser.add_argument(
        "--queue-depth", type=int, default=16,
        help="requests allowed to wait for a slot before 503s (default 16)",
    )
    parser.add_argument(
        "--keepalive-requests", type=int, default=100,
        help="requests served per keep-alive connection before it closes "
        "(default 100; 0 disables keep-alive)",
    )
    parser.add_argument(
        "--keepalive-idle", type=float, default=5.0, metavar="S",
        help="idle seconds before a keep-alive connection is closed (default 5)",
    )
    parser.add_argument(
        "--cache-size", type=int, default=1024,
        help="response-cache entries over /v1/classify and /v1/costs "
        "(default 1024; 0 disables caching)",
    )
    parser.add_argument(
        "--deadline", type=float, default=2.0, metavar="S",
        help="per-request deadline in seconds (default 2.0)",
    )
    parser.add_argument(
        "--rate", type=float, default=0.0,
        help="token-bucket rate limit in requests/s (default 0 = off)",
    )
    parser.add_argument(
        "--burst", type=int, default=None,
        help="token-bucket burst capacity (default max(1, rate))",
    )
    parser.add_argument(
        "--drain-deadline", type=float, default=5.0, metavar="S",
        help="seconds granted to in-flight requests on SIGTERM/SIGINT (default 5)",
    )
    parser.add_argument(
        "--log-requests", action="store_true",
        help="emit one access-log line per request to stderr",
    )
    parser.add_argument(
        "--jobs-dir", default=None, metavar="DIR",
        help="enable the durable /v1/jobs subsystem, persisting job "
        "journals, checkpoints and result artifacts under DIR "
        "(default: disabled)",
    )
    parser.add_argument(
        "--job-runners", type=int, default=2,
        help="async job-runner threads per process (default 2)",
    )
    parser.add_argument(
        "--job-ttl", type=float, default=3600.0, metavar="S",
        help="seconds a finished job (and its result artifact) is kept "
        "before TTL garbage collection (default 3600)",
    )
    parser.add_argument(
        "--job-poll", type=float, default=0.25, metavar="S",
        help="job-runner scan interval: queue polls, orphan adoption and "
        "GC all run on this cadence (default 0.25)",
    )


def server_config(args: argparse.Namespace) -> "ServerConfig":
    """The :class:`~repro.serve.server.ServerConfig` parsed ``serve`` flags ask for."""
    from repro.serve.server import ServerConfig

    return ServerConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        processes=args.processes,
        queue_depth=args.queue_depth,
        deadline_s=args.deadline,
        rate=args.rate,
        burst=args.burst,
        drain_s=args.drain_deadline,
        log_requests=args.log_requests,
        keepalive_requests=args.keepalive_requests,
        keepalive_idle_s=args.keepalive_idle,
        cache_size=args.cache_size,
        jobs_dir=args.jobs_dir,
        job_runners=args.job_runners,
        job_ttl_s=args.job_ttl,
        job_poll_s=args.job_poll,
    )


def run_serve(args: argparse.Namespace) -> int:
    """Serve with the parsed ``serve`` flags until signalled; the exit code.

    A value the config or the app rejects (``ValueError`` or
    ``ReproError``) and an address that cannot be bound (``OSError``,
    ``OverflowError``) print one ``error: <message>`` line on stderr and
    return 2, before anything reaches stdout. Once the server is
    accepting, errors propagate.
    """
    from repro.core.errors import ReproError
    from repro.serve import server

    accepting = False

    def ready(_: object) -> None:
        nonlocal accepting
        accepting = True

    try:
        return server.run_server(server_config(args), ready=ready)
    except (ValueError, ReproError, OSError, OverflowError) as error:
        if accepting:
            raise
        print(f"error: {error}", file=sys.stderr)
        return 2

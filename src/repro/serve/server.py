"""The hardened HTTP front end: stdlib transport over the service core.

Layering (transport at the edge, everything testable without sockets)::

    ThreadingHTTPServer + BaseHTTPRequestHandler     (this module)
        -> ServiceApp.dispatch        admission pipeline (this module)
            -> DrainController        reject new work mid-drain (503)
            -> TokenBucket            rate limiting (429 + Retry-After)
            -> ResponseCache          pure-endpoint hits skip the gate
            -> AdmissionGate          bounded concurrency + waiters (503),
                                      per-request deadlines (504)
                -> Router.handle      endpoint handlers (repro.serve.router)

The data plane speaks HTTP/1.1 with keep-alive: one connection thread
serves many requests (``keepalive_requests`` per connection, closed
after ``keepalive_idle_s`` idle seconds), so steady clients pay the TCP
handshake once, not per request. Each connection thread runs its own
requests, after the admission gate lets it in: at most ``workers``
requests *execute* at once and at most ``queue_depth`` *wait* for a
slot under their deadline — everything beyond that is shed immediately
with a structured 503 and a ``Retry-After`` hint, keeping the p99 of
accepted requests inside the configured deadline no matter the offered
load. The response leaves in one send: status line, headers and body
in one buffer.

Two multipliers sit on top of the single-process pipeline:

* a bounded :class:`~repro.serve.cache.ResponseCache` over the pure
  endpoints (``/v1/classify``, ``/v1/costs``) — a hit is answered by
  the connection thread itself, after drain and rate-limit admission
  but without waiting at the admission gate;
* a pre-fork front end (``processes > 1``): N worker processes share
  the listen port via ``SO_REUSEPORT`` (:mod:`repro.serve.prefork`),
  each running this exact pipeline, with ``/v1/metrics`` and
  ``/v1/readyz`` aggregated across the fleet via
  :mod:`repro.serve.fleet`.

Batch endpoints (``POST /v1/classify`` and ``POST /v1/costs`` with an
``{"items": [...]}`` body) amortise admission: one drain check, one
rate-limit token and one admission cover up to ``MAX_BATCH_ITEMS``
signatures, each answered (or failed) independently in the response's
``results`` array.
"""

from __future__ import annotations

import os
import socket
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable
from urllib.parse import urlsplit

from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.serve.cache import ResponseCache
from repro.serve.errors import (
    BadRequestError,
    DeadlineExceededError,
    MethodNotAllowedError,
    as_serve_error,
)
from repro.serve.fleet import FleetBus, render_fleet_prometheus
from repro.serve.lifecycle import DrainController, install_signal_handlers
from repro.serve.limits import AdmissionGate, Deadline, TokenBucket
from repro.serve.router import Request, Response
from repro.serve.validation import (
    MAX_BODY_BYTES,
    parse_body,
    parse_query,
    stable_json,
)

__all__ = [
    "SERVE_SWITCH_INTERVAL_S",
    "ServerConfig",
    "ServiceApp",
    "TaxonomyHTTPServer",
    "run_server",
]

#: The interpreter switch interval (s) :func:`run_server` serves with.
#: Every thread of a serving process shares one interpreter lock, and a
#: thread waiting for it may take it from a running one only after
#: ``sys.getswitchinterval()`` (CPython's default is 5 ms). Next to a
#: running batch, a single request waits for the lock when its socket
#: wakes the connection thread and again after the one send of its
#: response. When requests also handed off to a worker thread and back,
#: the 5 ms default set their latency at ~5.8 ms median against ~0.7 ms
#: idle, and 0.5 ms brought that to ~1.4 ms. A forced switch happens
#: only while a second thread waits for the lock; two CPU-bound batches
#: running at once swap it every interval and lose ~14% of their
#: throughput (22% at 0.25 ms). See docs/serving.md section 10. Not a
#: flag: no deployment needs another value.
SERVE_SWITCH_INTERVAL_S = 0.0005


_REQUESTS = _metrics.REGISTRY.counter("serve.requests", help="HTTP requests received")
_REJECTED = _metrics.REGISTRY.counter(
    "serve.rejected", help="requests shed with 429/503 (rate, queue, drain)"
)
_TIMEOUTS = _metrics.REGISTRY.counter(
    "serve.timeouts", help="requests that exceeded their deadline (504)"
)
_ERRORS = _metrics.REGISTRY.counter("serve.errors", help="internal errors returned (500)")
_REQUEST_S = _metrics.REGISTRY.histogram(
    "serve.request_s", help="request handling latency, admission to response (s)"
)
_BATCH_REQUESTS = _metrics.REGISTRY.counter(
    "serve.batch_requests", help="batch requests received (items bodies)"
)
_BATCH_ITEMS = _metrics.REGISTRY.counter(
    "serve.batch_items", help="individual items carried by batch requests"
)

#: Paths accepting an ``{"items": [...]}`` batch body — the pure,
#: per-item-independent endpoints.
_BATCH_PATHS = ("/v1/classify", "/v1/costs")

#: Endpoints served inline — no admission control, usable mid-drain.
_CONTROL_PATHS = ("/", "/v1/healthz", "/v1/metrics", "/v1/readyz")


@dataclass(frozen=True)
class ServerConfig:
    """Everything that shapes the service's behaviour under load."""

    host: str = "127.0.0.1"
    port: int = 8080
    #: Requests executing at once (bounded concurrency).
    workers: int = 4
    #: Requests allowed to wait for a slot before 503s start.
    queue_depth: int = 16
    #: Per-request deadline in seconds (``None`` disables, not advised).
    deadline_s: "float | None" = 2.0
    #: Token-bucket rate in requests/s (0 disables rate limiting).
    rate: float = 0.0
    #: Token-bucket burst capacity (defaults to ``max(1, rate)``).
    burst: "int | None" = None
    #: Seconds granted to in-flight requests after SIGTERM/SIGINT.
    drain_s: float = 5.0
    #: Emit one access-log line per request to stderr.
    log_requests: bool = False
    #: Pre-fork worker processes sharing the port via SO_REUSEPORT
    #: (1 = single process, the embedded/test default).
    processes: int = 1
    #: Requests served per keep-alive connection before it is closed;
    #: 0 disables keep-alive entirely (``Connection: close`` per
    #: request — the pre-keep-alive data plane, kept for benchmarking).
    keepalive_requests: int = 100
    #: Seconds a keep-alive connection may idle between requests.
    keepalive_idle_s: float = 5.0
    #: Response-cache capacity in entries over the pure endpoints
    #: (0 disables caching).
    cache_size: int = 1024
    #: Bind the listener with SO_REUSEPORT (set by the pre-fork parent
    #: so every worker can share one port).
    reuse_port: bool = False
    #: Directory holding the fleet stats-bus sockets (set by the
    #: pre-fork parent; ``None`` means single-process, no bus).
    fleet_dir: "str | None" = None
    #: Directory backing the durable ``/v1/jobs`` subsystem
    #: (:mod:`repro.serve.jobs`); ``None`` disables it. Pre-fork workers
    #: inherit one shared directory, so any worker serves any job.
    jobs_dir: "str | None" = None
    #: Job-runner threads per process (claim + execute async jobs).
    job_runners: int = 2
    #: Default seconds a terminal job (and its artifacts) outlives
    #: completion before TTL garbage collection.
    job_ttl_s: float = 3600.0
    #: Runner scan interval in seconds (queue poll, orphan adoption, GC).
    job_poll_s: float = 0.25
    #: Times one pre-fork worker slot may be respawned inside
    #: ``respawn_window_s`` before the parent gives up on it.
    respawn_max: int = 5
    #: The sliding window (seconds) for the respawn rate limit.
    respawn_window_s: float = 30.0

    def __post_init__(self) -> None:
        if self.drain_s < 0:
            raise ValueError(f"drain_s must be >= 0, got {self.drain_s}")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(f"deadline_s must be positive, got {self.deadline_s}")
        if self.processes < 1:
            raise ValueError(f"processes must be >= 1, got {self.processes}")
        # The gate's and the limiter's own checks, made here too so a
        # pre-fork parent refuses them before it forks any worker.
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.queue_depth < 0:
            raise ValueError(f"queue_depth must be >= 0, got {self.queue_depth}")
        if self.rate < 0:
            raise ValueError(f"rate must be >= 0, got {self.rate}")
        if self.rate > 0 and self.burst is not None and self.burst < 1:
            raise ValueError(f"burst must be >= 1, got {self.burst}")
        if self.keepalive_requests < 0:
            raise ValueError(
                f"keepalive_requests must be >= 0, got {self.keepalive_requests}"
            )
        if self.keepalive_idle_s <= 0:
            raise ValueError(
                f"keepalive_idle_s must be positive, got {self.keepalive_idle_s}"
            )
        if self.cache_size < 0:
            raise ValueError(f"cache_size must be >= 0, got {self.cache_size}")
        if self.job_runners < 1:
            raise ValueError(f"job_runners must be >= 1, got {self.job_runners}")
        if self.job_ttl_s < 0:
            raise ValueError(f"job_ttl_s must be >= 0, got {self.job_ttl_s}")
        if self.job_poll_s <= 0:
            raise ValueError(f"job_poll_s must be positive, got {self.job_poll_s}")
        if self.respawn_max < 0:
            raise ValueError(f"respawn_max must be >= 0, got {self.respawn_max}")
        if self.respawn_window_s <= 0:
            raise ValueError(
                f"respawn_window_s must be positive, got {self.respawn_window_s}"
            )


class ServiceApp:
    """The transport-free admission pipeline around the endpoint router."""

    def __init__(
        self,
        config: "ServerConfig | None" = None,
        *,
        clock: Callable[[], float] = time.monotonic,
    ):
        from repro.serve.router import TaxonomyService

        self.config = config if config is not None else ServerConfig()
        self._clock = clock
        self.drain = DrainController()
        self.limiter = TokenBucket(self.config.rate, self.config.burst, clock=clock)
        self.gate = AdmissionGate(self.config.workers, self.config.queue_depth)
        self.service = TaxonomyService()
        self.router = self.service.router
        self.response_cache = ResponseCache(self.config.cache_size)
        self.fleet: "FleetBus | None" = None
        if self.config.fleet_dir is not None and hasattr(socket, "AF_UNIX"):
            self.fleet = FleetBus(self.config.fleet_dir, self._bus_snapshot)
        self.jobs: "Any | None" = None
        if self.config.jobs_dir is not None:
            from repro.serve.jobs import JobManager, JobsApi

            self.jobs = JobManager(
                self.config.jobs_dir,
                runners=self.config.job_runners,
                poll_s=self.config.job_poll_s,
                default_ttl_s=self.config.job_ttl_s,
            )
            JobsApi(self.jobs).register(self.router)

    # -- control endpoints (inline, drain-exempt) ------------------------

    def _handle_control(self, request: Request) -> Response:
        if request.method.upper() != "GET":
            raise MethodNotAllowedError(
                f"{request.method} not allowed on {request.path}", allowed=("GET",)
            )
        if request.path == "/v1/healthz":
            return Response(payload={"status": "ok"})
        if request.path == "/v1/readyz":
            return self._handle_readyz()
        if request.path == "/v1/metrics":
            return Response(text=self._render_metrics())
        return Response(
            payload={
                "service": "repro-taxonomy",
                "endpoints": sorted(set(self.router.paths()) | set(_CONTROL_PATHS)),
            }
        )

    def _member_snapshot(self) -> dict:
        """This worker's row in the fleet health view."""
        return {
            "pid": os.getpid(),
            "inflight": self.drain.inflight,
            "queued": self.gate.queued,
            "draining": self.drain.draining,
            "cache": self.response_cache.stats(),
        }

    def _bus_snapshot(self) -> dict:
        """What this worker serves siblings over the fleet bus."""
        return {**self._member_snapshot(), "metrics": _metrics.REGISTRY.snapshot()}

    def _fleet_members(self) -> list[dict]:
        """Every live worker's snapshot, this one first-hand, pid-sorted."""
        members = [self._member_snapshot()]
        if self.fleet is not None:
            members.extend(self.fleet.collect())
        return sorted(members, key=lambda member: member.get("pid", 0))

    def _render_metrics(self) -> str:
        """The Prometheus exposition, fleet-aggregated when pre-forked."""
        if self.fleet is not None:
            siblings = self.fleet.collect()
            if siblings:
                snapshots = [_metrics.REGISTRY.snapshot()] + [
                    member["metrics"] for member in siblings if "metrics" in member
                ]
                return render_fleet_prometheus(snapshots)
        return _metrics.REGISTRY.render_prometheus()

    def _handle_readyz(self) -> Response:
        ready = not self.drain.draining
        members = [
            {key: value for key, value in member.items() if key != "metrics"}
            for member in self._fleet_members()
        ]
        fleet_view: dict[str, Any] = {"workers": len(members), "members": members}
        respawns = self._respawn_ledger()
        if respawns is not None:
            fleet_view["respawns"] = respawns
        payload = {
            "status": "ready" if ready else "draining",
            "inflight": self.drain.inflight,
            "queued": self.gate.queued,
            "cache": self.response_cache.stats(),
            "fleet": fleet_view,
        }
        if self.jobs is not None:
            # The job store is shared by every pre-fork worker, so this
            # worker's stats are already the fleet-wide backlog view.
            payload["jobs"] = self.jobs.stats()
        return Response(status=200 if ready else 503, payload=payload)

    def _respawn_ledger(self) -> "dict[str, Any] | None":
        """The pre-fork parent's respawn ledger, if it published one."""
        if self.config.fleet_dir is None:
            return None
        import json

        try:
            raw = (Path(self.config.fleet_dir) / "respawns.json").read_text(
                encoding="utf-8"
            )
            ledger = json.loads(raw)
        except (OSError, ValueError):
            return None
        return ledger if isinstance(ledger, dict) else None

    # -- the admission pipeline ------------------------------------------

    def dispatch(self, method: str, target: str, body: bytes = b"") -> Response:
        """One request through the full pipeline, always returning a Response."""
        _REQUESTS.inc()
        started = self._clock()
        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        try:
            with _trace.span("serve.request", method=method, path=path):
                params = parse_query(split.query)
                items = None
                if body:
                    fields, items = parse_body(body)
                    if items is not None:
                        if params:
                            raise BadRequestError(
                                "query parameters cannot be combined with a "
                                "batch 'items' body"
                            )
                    else:
                        overlap = sorted(set(params) & set(fields))
                        if overlap:
                            raise BadRequestError(
                                f"parameter(s) {', '.join(map(repr, overlap))} given in "
                                "both the query string and the body"
                            )
                        params.update(fields)
                deadline = (
                    Deadline(self.config.deadline_s, clock=self._clock)
                    if self.config.deadline_s is not None
                    else None
                )
                request = Request(method.upper(), path, params, deadline, items=items)
                if path in _CONTROL_PATHS:
                    response = self._handle_control(request)
                else:
                    with self.drain.admit():
                        self.limiter.admit()
                        if items is not None:
                            response = self._admit_batch(request, deadline)
                        else:
                            response = self._run_single(request, deadline)
        except BaseException as error:  # noqa: BLE001 - becomes a structured body
            serve_error = as_serve_error(error)
            headers: list[tuple[str, str]] = []
            if serve_error.retry_after_s is not None:
                headers.append(
                    ("Retry-After", str(max(1, round(serve_error.retry_after_s))))
                )
            if isinstance(serve_error, MethodNotAllowedError) and serve_error.allowed:
                headers.append(("Allow", ", ".join(serve_error.allowed)))
            if serve_error.status in (429, 503):
                _REJECTED.inc()
            elif serve_error.status == 504:
                _TIMEOUTS.inc()
            elif serve_error.status >= 500:
                _ERRORS.inc()
            response = Response(
                status=serve_error.status,
                payload=serve_error.payload(),
                headers=tuple(headers),
            )
        finally:
            _REQUEST_S.observe(max(self._clock() - started, 0.0))
        return response

    # -- the response cache and batch executor ---------------------------

    def _run_single(self, request: Request, deadline: "Deadline | None") -> Response:
        """One admitted request: cache probe, then the admission gate.

        A hit is answered without passing the gate, which is why the
        pure endpoints stay fast even when every slot is taken by
        expensive work.
        """
        cache = self.response_cache
        key = (
            cache.key(request.path, request.params)
            if cache.cacheable(request.method, request.path)
            else None
        )
        if key is not None:
            hit = cache.get(key)
            if hit is not None:
                return hit

        def handle() -> Response:
            response = self.router.handle(request)
            if key is not None:
                cache.put(key, response)
            return response

        return self.gate.run(handle, deadline=deadline)

    def _cached_handle(self, request: Request) -> Response:
        """Route one (batch-item) request through the response cache."""
        cache = self.response_cache
        if not cache.cacheable(request.method, request.path):
            return self.router.handle(request)
        key = cache.key(request.path, request.params)
        hit = cache.get(key)
        if hit is not None:
            return hit
        response = self.router.handle(request)
        cache.put(key, response)
        return response

    def _admit_batch(self, request: Request, deadline: "Deadline | None") -> Response:
        """Validate and run a batch request as one admitted call."""
        if request.method != "POST":
            raise BadRequestError("a batch 'items' body requires POST")
        if request.path not in _BATCH_PATHS:
            raise BadRequestError(
                "batch bodies are only supported on "
                + " and ".join(_BATCH_PATHS)
            )
        _BATCH_REQUESTS.inc()
        _BATCH_ITEMS.inc(len(request.items))
        return self.gate.run(lambda: self._run_batch(request), deadline=deadline)

    def _run_batch(self, request: Request) -> Response:
        """Execute every item under the shared deadline, independently.

        One item's failure never sinks its neighbours: each entry of
        ``results`` is either the item's normal payload or its
        structured error body. Only the shared deadline aborts the
        whole batch (504) — by then every remaining item would time out
        anyway.

        Classify batches take the compiled-table path; this per-item
        loop serves the other batchable endpoint, ``/v1/costs``.
        """
        if request.path == "/v1/classify":
            return self._run_classify_batch(request)
        results: list[dict] = []
        errors = 0
        assert request.items is not None
        for index, item in enumerate(request.items):
            request.check_deadline(f"processing batch item {index}")
            sub = Request(request.method, request.path, item, request.deadline)
            try:
                results.append(self._cached_handle(sub).payload)
            except DeadlineExceededError:
                raise
            except BaseException as error:  # noqa: BLE001 - per-item isolation
                errors += 1
                results.append(as_serve_error(error).payload())
        return Response(
            payload={"count": len(results), "errors": errors, "results": results}
        )

    def _run_classify_batch(self, request: Request) -> Response:
        """Classify-batch execution via :mod:`repro.core.batch`'s table.

        Three phases, preserving every observable of sending the items
        one by one: per-item deadline checks, per-item response-cache
        probes and per-item error isolation happen first (items are
        parsed by the same validation code the single-request handler
        uses); the surviving signatures are then classified by one
        table lookup each; finally each payload is rendered by the shared
        :meth:`~repro.serve.router.TaxonomyService.classify_payload`, so
        each result is byte-identical to the item's single-request body.
        A duplicate of an item already awaiting classification defers its
        cache probe until after that item's payload is stored, keeping
        the cache's hit/miss accounting identical to single requests'.
        """
        from repro.core import batch as _batch

        cache = self.response_cache
        results: "list[dict | None]" = []
        errors = 0
        pending: "list[tuple[int, Any, tuple | None]]" = []
        pending_slots: "dict[tuple, int]" = {}
        aliases: "list[tuple[int, tuple, int]]" = []
        assert request.items is not None
        for index, item in enumerate(request.items):
            request.check_deadline(f"processing batch item {index}")
            sub = Request(request.method, request.path, item, request.deadline)
            key = (
                cache.key(sub.path, sub.params)
                if cache.cacheable(sub.method, sub.path)
                else None
            )
            if key is not None:
                source = pending_slots.get(key)
                if source is not None:
                    results.append(None)
                    aliases.append((len(results) - 1, key, source))
                    continue
                hit = cache.get(key)
                if hit is not None:
                    results.append(hit.payload)
                    continue
            try:
                signature = self.service.parse_classify_request(sub)
            except DeadlineExceededError:
                raise
            except BaseException as error:  # noqa: BLE001 - per-item isolation
                errors += 1
                results.append(as_serve_error(error).payload())
                continue
            results.append(None)
            pending.append((len(results) - 1, signature, key))
            if key is not None:
                pending_slots[key] = len(results) - 1
        if pending:
            request.check_deadline("classifying the batch")
            columns = _batch.SignatureBatch.from_signatures(
                signature for _, signature, _ in pending
            )
            classified = _batch.classify_batch(columns)
            for row, (slot, signature, key) in enumerate(pending):
                result = classified.classification(row, signature)
                payload = self.service.classify_payload(signature, result)
                if key is not None:
                    cache.put(key, Response(payload=payload))
                results[slot] = payload
        for slot, key, source in aliases:
            hit = cache.get(key)
            if hit is not None:
                results[slot] = hit.payload
            else:
                # Evicted between put and probe (cache smaller than the
                # batch): re-store, exactly as a scalar re-miss would.
                payload = results[source]
                assert payload is not None
                cache.put(key, Response(payload=payload))
                results[slot] = payload
        return Response(
            payload={"count": len(results), "errors": errors, "results": results}
        )

    def shutdown(self, *, drain_s: "float | None" = None) -> bool:
        """Drain in-flight requests and close the gate; True when clean.

        Running async jobs are *interrupted*, not abandoned: the job
        drain journals them back to ``queued`` with their completed
        sweep points already checkpointed, so the next process to open
        the store resumes them.
        """
        budget = self.config.drain_s if drain_s is None else drain_s
        self.drain.begin_drain()
        drained = self.drain.wait_drained(budget)
        gate_clean = self.gate.shutdown(drain_s=budget)
        jobs_clean = True
        if self.jobs is not None:
            jobs_clean = self.jobs.drain(max(budget, 0.1))
        if self.fleet is not None:
            self.fleet.close()
        return drained and gate_clean and jobs_clean


class TaxonomyHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer bound to a :class:`ServiceApp`."""

    daemon_threads = True
    # Drain is bounded by DrainController; never block close indefinitely.
    block_on_close = False
    # The stdlib default backlog (5) drops SYNs under reconnect storms,
    # turning overload into 1s retransmit stalls instead of quick 503s.
    request_queue_size = 128

    def __init__(self, config: ServerConfig, app: "ServiceApp | None" = None):
        self.app = app if app is not None else ServiceApp(config)
        self.config = config
        super().__init__((config.host, config.port), _RequestHandler)
        # Stop accepting the moment a drain begins: shutdown() unwinds
        # serve_forever from a helper thread (it would deadlock inline).
        self.app.drain.on_drain = lambda: threading.Thread(
            target=self.shutdown, name="serve-shutdown", daemon=True
        ).start()

    def server_bind(self) -> None:
        """Bind the listener, optionally sharing the port (pre-fork)."""
        if self.config.reuse_port and hasattr(socket, "SO_REUSEPORT"):
            self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        super().server_bind()

    @property
    def url(self) -> str:
        """The server's base URL with the actually-bound port."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


class _RequestHandler(BaseHTTPRequestHandler):
    """Thin HTTP adapter: parse, dispatch, encode; no business logic.

    Speaks HTTP/1.1 with keep-alive: the base class loops
    ``handle_one_request`` until ``close_connection`` flips, and
    :meth:`_write` flips it when the per-connection request budget
    (``keepalive_requests``) is spent, a drain begins, or the client
    asked to close. The idle timeout is the socket timeout installed in
    :meth:`setup` — a connection that sends nothing for
    ``keepalive_idle_s`` seconds is closed by the read of its next
    request line timing out.
    """

    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"
    # A response is one write, but one larger than a TCP segment ends in
    # a partial segment that Nagle would hold for the client's delayed
    # ACK (~40ms). TCP_NODELAY keeps every response one round-trip.
    disable_nagle_algorithm = True

    def setup(self) -> None:
        """Install the idle timeout and the per-connection budget."""
        self.timeout = self.server.config.keepalive_idle_s
        self._served = 0
        super().setup()

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        """Serve a GET request."""
        self._respond(b"")

    def do_DELETE(self) -> None:  # noqa: N802 - http.server naming
        """Serve a DELETE request (job cancellation)."""
        self._respond(b"")

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        """Serve a POST request (JSON body)."""
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0 or length > MAX_BODY_BYTES:
            # The body was never read, so the stream is unframed from
            # here on: this connection cannot be kept alive.
            self.close_connection = True
            self._write(
                Response(
                    status=400,
                    payload=BadRequestError(
                        "Content-Length must be a non-negative integer "
                        f"no larger than {MAX_BODY_BYTES}"
                    ).payload(),
                )
            )
            return
        self._respond(self.rfile.read(length) if length else b"")

    def _respond(self, body: bytes) -> None:
        response = self.server.app.dispatch(self.command, self.path, body)
        self._write(response)

    def _write(self, response: Response) -> None:
        """Send the whole response in one write, then access-log it.

        Status line, headers and body share one buffer: each separate
        send would be one more wait for the interpreter lock next to a
        running batch.
        """
        encoded = (
            response.text.encode("utf-8")
            if response.text is not None
            else stable_json(response.payload)
        )
        self._served += 1
        remaining = self.server.config.keepalive_requests - self._served
        keep = (
            remaining > 0
            and not self.close_connection
            and not self.server.app.drain.draining
        )
        reason = self.responses.get(response.status, ("",))[0]
        lines = [
            f"{self.protocol_version} {response.status} {reason}",
            f"Server: {self.version_string()}",
            f"Date: {self.date_time_string()}",
            f"Content-Type: {response.content_type}",
            f"Content-Length: {len(encoded)}",
        ]
        if keep:
            idle_s = self.server.config.keepalive_idle_s
            lines.append("Connection: keep-alive")
            lines.append(f"Keep-Alive: timeout={idle_s:g}, max={remaining}")
        else:
            lines.append("Connection: close")
            self.close_connection = True
        lines.extend(f"{name}: {value}" for name, value in response.headers)
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        if self.request_version == "HTTP/0.9":  # HTTP/0.9 answers are bare bodies
            head = b""
        try:
            self.wfile.write(head + encoded)
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            self.close_connection = True  # the client hung up first
            return
        self.log_request(response.status, len(encoded))

    def log_request(self, code: "int | str" = "-", size: "int | str" = "-") -> None:
        """Access-log one answer; :meth:`_write` calls it after the send."""
        if self.server.config.log_requests:
            super().log_request(code, size)

    def log_message(self, format: str, *args: Any) -> None:
        """Access-log to stderr only when configured; never to stdout."""
        if self.server.config.log_requests:
            super().log_message(format, *args)


def run_server(
    config: "ServerConfig | None" = None,
    *,
    ready: "Callable[[TaxonomyHTTPServer], None] | None" = None,
    announce: bool = True,
) -> int:
    """Serve until SIGTERM/SIGINT, then drain; the CLI's blocking entry.

    Returns 0 when the drain finished inside ``config.drain_s`` (every
    accepted request answered), 1 when stragglers had to be abandoned.
    ``ready`` (if given) is called with the bound server before the
    first accept — used by tests and the smoke script to learn the
    ephemeral port. ``announce=False`` silences the "listening on" and
    drain-outcome lines (the pre-fork parent speaks for its workers).
    From the bind to the end of the drain the process runs with
    :data:`SERVE_SWITCH_INTERVAL_S`; the caller's interval is restored
    on every exit.

    With ``config.processes > 1`` this delegates to
    :func:`repro.serve.prefork.run_prefork`, which forks that many
    workers onto one SO_REUSEPORT-shared port and reports their
    aggregate exit status.
    """
    config = config if config is not None else ServerConfig()
    if config.processes > 1:
        from repro.serve.prefork import run_prefork

        return run_prefork(config)
    server = TaxonomyHTTPServer(config)
    app = server.app
    install_signal_handlers(app.drain)
    previous_interval = sys.getswitchinterval()
    sys.setswitchinterval(SERVE_SWITCH_INTERVAL_S)
    try:
        if announce:
            print(f"listening on {server.url}", flush=True)
        if ready is not None:
            ready(server)
        try:
            server.serve_forever(poll_interval=0.05)
        finally:
            server.server_close()
        # serve_forever only returns once a drain has begun and the
        # listener stopped accepting; give in-flight requests their budget.
        drained = app.drain.wait_drained(config.drain_s)
        gate_clean = app.gate.shutdown(drain_s=config.drain_s)
        if app.jobs is not None:
            # Interrupt running jobs back to ``queued`` (checkpoints intact)
            # so whoever opens the store next resumes rather than restarts.
            gate_clean = app.jobs.drain(max(config.drain_s, 0.1)) and gate_clean
        if app.fleet is not None:
            app.fleet.close()
    finally:
        sys.setswitchinterval(previous_interval)
    leftover = app.drain.inflight
    if drained and gate_clean:
        if announce:
            print("drained cleanly, exiting", file=sys.stderr)
        return 0
    if announce:
        print(
            f"drain deadline of {config.drain_s:g}s exceeded "
            f"({leftover} request(s) abandoned)",
            file=sys.stderr,
        )
    return 1

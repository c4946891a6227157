"""``repro.serve`` — the hardened taxonomy query service.

A dependency-free HTTP service (stdlib ``http.server``) exposing the
paper's pipeline as JSON endpoints, built for overload rather than for
the happy path: an admission gate bounding running and waiting calls,
token-bucket rate limiting, per-request deadlines that cancel queued
work, and a graceful SIGTERM/SIGINT drain. The data plane adds HTTP/1.1
keep-alive, a bounded response cache over the pure endpoints, batch
``{"items": [...]}`` bodies, and an optional pre-fork multi-process
front end sharing one port via ``SO_REUSEPORT`` with fleet-aggregated
metrics. See ``docs/serving.md`` for the guide and capacity-tuning
table, and ``scripts/loadgen.py`` for the closed-loop load generator
that exercises all of it.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "cache": ("CACHEABLE_PATHS", "ResponseCache"),
        "errors": (
            "ServeError",
            "BadRequestError",
            "NotFoundError",
            "MethodNotAllowedError",
            "ConflictError",
            "RateLimitedError",
            "OverloadedError",
            "DrainingError",
            "DeadlineExceededError",
            "InternalError",
            "as_serve_error",
        ),
        "fleet": ("FleetBus", "merge_metric_snapshots", "render_fleet_prometheus"),
        "jobs": (
            "JOB_STATES",
            "TERMINAL_STATES",
            "JobContext",
            "JobKind",
            "JobManager",
            "JobRecord",
            "JobStore",
            "JobsApi",
            "TransientJobError",
            "fold_events",
        ),
        "lifecycle": ("DrainController", "install_signal_handlers"),
        "limits": ("AdmissionGate", "Deadline", "TokenBucket"),
        "prefork": ("run_prefork", "supports_prefork"),
        "router": ("Request", "Response", "Router", "TaxonomyService"),
        "server": ("ServerConfig", "ServiceApp", "TaxonomyHTTPServer", "run_server"),
    },
)

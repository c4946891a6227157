"""Observability: tracing, metrics and profiling for every subsystem.

``repro.obs`` is the measurement base the ROADMAP's performance work
stands on. It is dependency-free and has three layers, cheapest first:

* :mod:`repro.obs.metrics` — always-on process-local counters, gauges
  and fixed-bucket histograms (:data:`REGISTRY`). The sweep engine, the
  serve stack and every machine ``run()`` report here; the CLI prints
  the registry via ``repro-taxonomy metrics``.
* :mod:`repro.obs.trace` — an opt-in hierarchical span tracer
  (disabled by default, one-flag-check cheap when off). The analyses,
  the sweep engine, machine run loops and the fault runtime all carry
  spans/events; the CLI records a run with ``--trace FILE`` on ``dse``,
  ``faults``, ``costs`` and ``report``.
* :mod:`repro.obs.profile` — cProfile/tracemalloc wrappers that attach
  to any call and emit deterministic top-N tables into ``artifacts/``
  (``--profile`` on the sweep subcommands).

See ``docs/observability.md`` for the guided tour.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "metrics": (
            "DURATION_BUCKETS_S",
            "PROMETHEUS_PREFIX",
            "Counter",
            "Gauge",
            "Histogram",
            "MetricsRegistry",
            "REGISTRY",
            "registry",
            "render_prometheus",
        ),
        "profile": ("ProfileReport", "Profiler", "profile_call"),
        "trace": (
            "TRACE_SCHEMA_VERSION",
            "Span",
            "SpanEvent",
            "Tracer",
            "add_event",
            "current_span",
            "disable",
            "enable",
            "enabled",
            "reset",
            "span",
            "tracer",
            "validate_trace",
        ),
    },
)

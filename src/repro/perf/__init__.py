"""Performance substrate: parallel sweeps, caching and resilient execution.

Every analysis in this package is a *sweep* — the same pure function
evaluated over a grid of points (25 survey records, 47 taxonomy classes,
fault-rate ladders, design sizes). :mod:`repro.perf` gives those sweeps
a shared engine:

* :func:`sweep` — map a function over points with a serial, thread or
  process executor, deterministic result ordering, per-point timing,
  failure policies (``on_error``/:class:`RetryPolicy`/``timeout_s``),
  worker-crash isolation and checkpoint/resume;
* :func:`fabric_sweep` / :class:`FabricWorker` — the distributed
  fabric: the same sweep sharded over TCP workers with lease-based
  failure detection, work-stealing, chaos-verified resume and
  self-healing elastic membership — lost endpoints are re-dialed,
  flappers quarantined (:class:`MembershipPolicy`), late joiners
  admitted mid-sweep, and :class:`WorkerSupervisor` keeps local
  worker processes respawned (the CLI's ``sweep-worker`` /
  ``--workers`` / ``--supervise`` flags);
* :class:`SweepCheckpoint` — the append-only journal behind the CLI's
  ``--resume`` flag, keyed by a content hash of the sweep spec — and
  :class:`ShardedCheckpoint`, its fabric-side sibling that fans the
  journal out over index-sharded files with a deterministic merge;
* :class:`ModelCache` / :func:`evaluate_models` — an LRU-memoised cache
  over the Eq.-1 area, Eq.-2 configuration-bit, energy and
  reconfiguration models, keyed on ``(class_id, n, technology)``.

The analysis sweeps (:func:`repro.analysis.resilience.resilience_sweep`,
:func:`repro.analysis.survey_costs.evaluate_survey`,
:func:`repro.analysis.pareto.evaluate_classes`) and their CLI
subcommands (``--jobs N``, ``--on-error``, ``--timeout``, ``--resume``)
are built on this engine; see ``docs/performance.md`` and
``docs/robustness.md``.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "engine": (
            "EXECUTORS",
            "ON_ERROR_POLICIES",
            "POINT_STATUSES",
            "PointResult",
            "PointTimeout",
            "RetryPolicy",
            "SweepResult",
            "resolve_jobs",
            "sweep",
        ),
        "fabric": (
            "FABRIC_PROTOCOL",
            "FABRIC_PROTOCOLS",
            "WORKER_ENV",
            "FabricWorker",
            "MembershipPolicy",
            "fabric_sweep",
            "fleet_health",
            "parse_endpoints",
        ),
        "supervisor": ("WorkerSupervisor",),
        "journal": (
            "DEFAULT_SHARDS",
            "JournalEntry",
            "JournalLock",
            "ShardedCheckpoint",
            "SweepCheckpoint",
            "checkpoint_directory",
            "merge_journal_loads",
            "spec_digest",
        ),
        "cache": ("DEFAULT_CACHE", "CacheStats", "ModelCache", "ModelEstimates", "evaluate_models"),
    },
)

"""Performance substrate: parallel sweeps, caching and resilient execution.

Every analysis in this package is a *sweep* — the same pure function
evaluated over a grid of points (25 survey records, 47 taxonomy classes,
fault-rate ladders, design sizes). :mod:`repro.perf` gives those sweeps
a shared engine:

* :func:`sweep` — map a function over points, serially (``jobs=1``)
  or on a process pool (``jobs`` > 1), with deterministic result
  ordering, per-point timing, failure policies (``on_error``/
  ``timeout_s``), worker-crash isolation and checkpoint/resume
  (``journal=(name, spec)``);
* :class:`SweepCheckpoint` — the append-only journal behind the CLI's
  ``--resume`` flag and of ``/v1/jobs``, keyed by a content hash of
  the sweep spec; its record codec and ``flock`` primitive also back
  the ``/v1/jobs`` event journals;
* :class:`ModelCache` / :func:`evaluate_models` — an LRU-memoised cache
  over the Eq.-1 area, Eq.-2 configuration-bit, energy and
  reconfiguration models, keyed on ``(class_id, n, technology)``.

The analysis sweeps (:func:`repro.analysis.resilience.resilience_sweep`,
:func:`repro.analysis.survey_costs.evaluate_survey`,
:func:`repro.analysis.pareto.evaluate_classes`) and their CLI
subcommands (``--jobs N``, ``--on-error``, ``--timeout``, ``--resume``)
are built on this engine; see ``docs/performance.md`` and
``docs/robustness.md``. These analyses price their few dozen points
through :class:`ModelCache` and the scalar models only: at that size the
scalar models beat the columnar :mod:`repro.core.batch` kernel, which
serves large classify batches (``serve``'s ``POST /v1/classify``).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "engine": (
            "ON_ERROR_POLICIES",
            "POINT_STATUSES",
            "PointResult",
            "PointTimeout",
            "RetryPolicy",
            "SweepResult",
            "resolve_jobs",
            "sweep",
        ),
        "journal": (
            "JournalEntry",
            "JournalLock",
            "SweepCheckpoint",
            "checkpoint_directory",
            "spec_digest",
        ),
        "cache": ("DEFAULT_CACHE", "CacheStats", "ModelCache", "ModelEstimates", "evaluate_models"),
    },
)

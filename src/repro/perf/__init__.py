"""Performance substrate: sweeps and resilient execution.

Every analysis in this package is a *sweep* — the same pure function
evaluated over a grid of points (25 survey records, 47 taxonomy classes,
fault-rate ladders, design sizes). :mod:`repro.perf` gives those sweeps
a shared engine:

* :func:`sweep` — map a function over points in one serial loop, with
  input-order results, per-point timing, failure policies
  (``on_error``/``timeout_s``) and checkpoint/resume
  (``journal=(name, spec)``);
* :class:`SweepCheckpoint` — the append-only journal behind the CLI's
  ``--resume`` flag and of ``/v1/jobs``, keyed by a content hash of
  the sweep spec; its record codec and ``flock`` primitive also back
  the ``/v1/jobs`` event journals.

The analysis sweeps (:func:`repro.analysis.resilience.resilience_sweep`,
:func:`repro.analysis.survey_costs.evaluate_survey`,
:func:`repro.analysis.pareto.evaluate_classes`) and their CLI
subcommands (``--on-error``, ``--timeout``, ``--resume``)
are built on this engine; see ``docs/performance.md`` and
``docs/robustness.md``. These analyses price their few dozen points by
calling the scalar models directly: one command repeats almost no
``(class, n)`` pair, so a memoising cache would miss nearly every
lookup (see ``docs/performance.md``), and at that size the scalar models beat the columnar
:mod:`repro.core.batch` kernel, which serves large classify batches
(``serve``'s ``POST /v1/classify``).
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
            "sweep",
        ),
        "journal": (
            "JournalEntry",
            "JournalLock",
            "SweepCheckpoint",
            "checkpoint_directory",
            "spec_digest",
        ),
    },
)

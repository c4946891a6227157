"""Performance substrate: the sweep engine and its checkpoint journal.

Every analysis in this package is a *sweep* — the same pure function
evaluated over a grid of points (25 survey records, 47 taxonomy classes,
fault-rate ladders, design sizes). :mod:`repro.perf` gives those sweeps
a shared engine:

* :func:`sweep` — map a function over points in one serial loop, with
  input-order results, per-point timing and checkpoint/resume
  (``journal=(name, spec)`` under a ``checkpoint_dir``);
* :class:`SweepCheckpoint` — the append-only journal behind
  ``/v1/jobs``'s crash-safe resume, keyed by a content hash of the
  sweep spec; its record codec and ``flock`` primitive also back the
  ``/v1/jobs`` event journals.

The analysis sweeps (:func:`repro.analysis.resilience.resilience_sweep`,
:func:`repro.analysis.survey_costs.evaluate_survey`,
:func:`repro.analysis.pareto.evaluate_classes`) are built on this
engine without a journal; see ``docs/performance.md`` and
``docs/jobs.md``. These analyses price their few dozen points by
calling the scalar models directly: one command repeats almost no
``(class, n)`` pair, so a memoising cache would miss nearly every
lookup (see ``docs/performance.md``). Classification has its own
compiled table, :mod:`repro.core.batch`, which serves classify batches
(``serve``'s ``POST /v1/classify``).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "engine": ("PointResult", "SweepResult", "sweep"),
        "journal": ("JournalEntry", "JournalLock", "SweepCheckpoint", "spec_digest"),
    },
)

"""Fault injection and graceful degradation for simulated fabrics.

The taxonomy's flexibility argument (§III-B) claims that classes with
switched (``x``) links adapt where direct-linked (``-``) classes cannot.
This package makes that claim operational: seeded
:class:`~repro.faults.plan.FaultPlan` schedules kill processing
elements, ports and links mid-run; machines respond according to a
:class:`~repro.faults.policy.FaultPolicy` (fail-fast, retry, remap onto
survivors or spares, degrade); and
:mod:`repro.analysis.resilience` sweeps fault rates across the Table-III
survey to measure how gracefully each class's throughput degrades.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "plan": ("FaultEvent", "FaultInjector", "FaultKind", "FaultPlan", "FaultSeverity"),
        "policy": ("FaultPolicy", "PolicyKind"),
        "runtime": ("FaultRuntime",),
    },
)

"""Flexibility / area / configuration-overhead trade-off analysis.

§III-B frames the design space as a trade between flexibility and
reconfiguration overhead, with ASIC and FPGA at the extremes and the
CGRA classes between them. This module evaluates every implementable
taxonomy class with the Eq.-1 and Eq.-2 models at a common design point
and computes the Pareto frontier of (max flexibility, min area, min
configuration bits) — the chart a designer would consult.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.core.flexibility import flexibility
from repro.core.naming import MachineType
from repro.core.taxonomy import TaxonomyClass, implementable_classes
from repro.models.area import AreaModel
from repro.models.configbits import ConfigBitsModel
from repro.obs import trace as _trace
from repro.perf.cache import ModelCache, evaluate_models
from repro.perf.engine import sweep

__all__ = ["DesignPoint", "evaluate_classes", "pareto_frontier"]


@dataclass(frozen=True, slots=True)
class DesignPoint:
    """One taxonomy class evaluated at a concrete size."""

    name: str
    serial: int
    machine_type: MachineType
    flexibility: int
    area_ge: float
    config_bits: int
    n: int

    def dominates(self, other: "DesignPoint") -> bool:
        """Pareto dominance: no worse on all axes, better on at least one.

        Axes: flexibility (higher better), area and config bits (lower
        better).
        """
        no_worse = (
            self.flexibility >= other.flexibility
            and self.area_ge <= other.area_ge
            and self.config_bits <= other.config_bits
        )
        better = (
            self.flexibility > other.flexibility
            or self.area_ge < other.area_ge
            or self.config_bits < other.config_bits
        )
        return no_worse and better

    def row(self) -> tuple[str, ...]:
        """The record as a tuple of formatted table cells."""
        return (
            self.name,
            str(self.flexibility),
            f"{self.area_ge:,.0f}",
            f"{self.config_bits:,}",
        )


def _design_point(
    cls: TaxonomyClass, *, n: int, cache: "ModelCache | None"
) -> DesignPoint:
    """Price one taxonomy class — the sweep's per-point worker."""
    assert cls.name is not None
    estimates = evaluate_models(cls.signature, n=n, cache=cache)
    return DesignPoint(
        name=cls.name.short,
        serial=cls.serial,
        machine_type=cls.name.machine_type,
        flexibility=flexibility(cls.signature),
        area_ge=estimates.area_ge,
        config_bits=estimates.config_bits,
        n=n,
    )


def evaluate_classes(
    *,
    n: int = 16,
    area_model: "AreaModel | None" = None,
    config_model: "ConfigBitsModel | None" = None,
    classes: "tuple[TaxonomyClass, ...] | None" = None,
    on_error: str = "raise",
    timeout_s: "float | None" = None,
    resume: bool = False,
    checkpoint_dir: "str | None" = None,
) -> list[DesignPoint]:
    """Evaluate Eq. 1 and Eq. 2 for every (given) implementable class.

    Each class is one point of a :func:`repro.perf.sweep`. Custom
    models get a private cache so the shared one never mixes parameter
    sets. ``on_error``/``timeout_s``
    set the engine's failure policy (failed classes are dropped from the
    result), and ``resume=True`` journals completed classes so an
    interrupted evaluation restarts where it stopped.
    """
    cache = (
        None
        if area_model is None and config_model is None
        else ModelCache(area_model=area_model, config_model=config_model)
    )
    chosen = classes if classes is not None else implementable_classes()
    implementable = [cls for cls in chosen if cls.implementable]
    worker = functools.partial(_design_point, n=n, cache=cache)
    spec = {
        "n": n,
        "classes": [cls.serial for cls in implementable],
        "models": [repr(area_model), repr(config_model)],
    }
    with _trace.span("analysis.evaluate_classes", classes=len(implementable), n=n):
        result = sweep(
            worker,
            implementable,
            on_error=on_error,
            timeout_s=timeout_s,
            journal=("classes", spec) if resume else None,
            checkpoint_dir=checkpoint_dir,
        )
    return [point for point in result if point is not None]


def pareto_frontier(points: "list[DesignPoint]") -> list[DesignPoint]:
    """Non-dominated subset, sorted by flexibility then area.

    Comparisons respect the paper's caveat: data-flow and
    instruction-flow points never dominate each other (their flexibility
    values are incommensurable); universal-flow points compare against
    everything.
    """
    def comparable(a: DesignPoint, b: DesignPoint) -> bool:
        if MachineType.UNIVERSAL_FLOW in (a.machine_type, b.machine_type):
            return True
        return a.machine_type is b.machine_type

    frontier = [
        p
        for p in points
        if not any(
            other.dominates(p)
            for other in points
            if other is not p and comparable(other, p)
        )
    ]
    frontier.sort(key=lambda p: (p.flexibility, p.area_ge, p.config_bits))
    return frontier

"""Cost out the surveyed architectures — Table III meets Eq. 1/Eq. 2.

The paper classifies the 25 architectures but never costs them; this
module closes the loop, evaluating every survey record with the area,
configuration, energy and reconfiguration models *at its own concrete
size* (MorphoSys's 64 cells, IMAGINE's 6 clusters, the template
architectures at a caller-chosen n). The result is the scatter an
architect would actually consult: published machine vs estimated cost
vs taxonomy flexibility.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.models.area import AreaModel
from repro.models.configbits import ConfigBitsModel
from repro.models.energy import EnergyModel
from repro.models.reconfiguration import ReconfigurationModel
from repro.obs import trace as _trace
from repro.perf.cache import ModelCache, evaluate_models
from repro.perf.engine import sweep
from repro.registry.architectures import all_architectures
from repro.registry.record import ArchitectureRecord

__all__ = ["SurveyCostPoint", "cost_point", "evaluate_survey", "survey_cost_table"]


@dataclass(frozen=True, slots=True)
class SurveyCostPoint:
    """One surveyed architecture with its model estimates."""

    name: str
    taxonomic_name: str
    flexibility: int
    n_effective: int
    area_ge: float
    config_bits: int
    energy_per_op_pj: float
    reconfig_cycles: int

    def row(self) -> tuple[str, ...]:
        """The record as a tuple of formatted table cells."""
        return (
            self.name,
            self.taxonomic_name,
            str(self.flexibility),
            str(self.n_effective),
            f"{self.area_ge:,.0f}",
            f"{self.config_bits:,}",
            f"{self.energy_per_op_pj:.1f}",
            f"{self.reconfig_cycles:,}",
        )


def _effective_n(record: ArchitectureRecord, default_n: int) -> int:
    """The design size used for evaluation: concrete where Table III
    gives one, ``default_n`` for template (n/m/v) architectures."""
    resolved = record.signature.dps.resolve(default_n)
    return max(resolved, 1)


def cost_point(
    record: ArchitectureRecord, *, default_n: int, cache: "ModelCache | None"
) -> SurveyCostPoint:
    """Price one surveyed architecture — the sweep's per-point worker.

    Public because the async ``survey-costs`` job kind
    (:mod:`repro.serve.jobs`) sweeps over exactly this function; it is
    a pure function of ``(record, default_n)``, which is what makes the
    job's checkpointed resume bit-identical.
    """
    n = _effective_n(record, default_n)
    estimates = evaluate_models(record.signature, n=n, cache=cache)
    return SurveyCostPoint(
        name=record.name,
        taxonomic_name=record.derived_name,
        flexibility=record.derived_flexibility,
        n_effective=n,
        area_ge=estimates.area_ge,
        config_bits=estimates.config_bits,
        energy_per_op_pj=estimates.energy_per_op_pj,
        reconfig_cycles=estimates.reconfig_cycles,
    )


def evaluate_survey(
    *,
    default_n: int = 16,
    area_model: "AreaModel | None" = None,
    config_model: "ConfigBitsModel | None" = None,
    energy_model: "EnergyModel | None" = None,
    reconfig_model: "ReconfigurationModel | None" = None,
    on_error: str = "raise",
    timeout_s: "float | None" = None,
    resume: bool = False,
    checkpoint_dir: "str | None" = None,
) -> list[SurveyCostPoint]:
    """Estimate every surveyed architecture's costs at its own size.

    Evaluations go through the :mod:`repro.perf` model cache — two
    architectures sharing a signature and size are priced once — and
    each record is one point of a :func:`repro.perf.sweep`.
    ``on_error``/``timeout_s`` set the engine's failure policy (failed
    points are dropped from the result), and ``resume=True`` journals
    completed records for restartability.
    """
    custom = (area_model, config_model, energy_model, reconfig_model)
    records = all_architectures()
    cache = (
        None
        if all(model is None for model in custom)
        else ModelCache(
            area_model=area_model,
            config_model=config_model,
            energy_model=energy_model,
            reconfig_model=reconfig_model,
        )
    )
    worker = functools.partial(cost_point, default_n=default_n, cache=cache)
    spec = {
        "default_n": default_n,
        "records": [record.name for record in records],
        "models": [repr(model) for model in custom],
    }
    with _trace.span(
        "analysis.survey_costs", architectures=len(records), default_n=default_n
    ):
        result = sweep(
            worker,
            records,
            on_error=on_error,
            timeout_s=timeout_s,
            journal=("costs", spec) if resume else None,
            checkpoint_dir=checkpoint_dir,
        )
    return [point for point in result if point is not None]


def survey_cost_table(
    *,
    default_n: int = 16,
    on_error: str = "raise",
    timeout_s: "float | None" = None,
    resume: bool = False,
) -> str:
    """Rendered cost table over the whole survey."""
    from repro.reporting.tables import format_table

    points = evaluate_survey(
        default_n=default_n,
        on_error=on_error,
        timeout_s=timeout_s,
        resume=resume,
    )
    header = (
        "architecture", "class", "flex", "n", "area (GE)",
        "config bits", "pJ/op", "reload cycles",
    )
    return format_table(header, [p.row() for p in points])

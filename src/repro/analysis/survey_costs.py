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


_AREA = AreaModel()
_CONFIG = ConfigBitsModel()
_ENERGY = EnergyModel()
_RECONFIG = ReconfigurationModel()


def _effective_n(record: ArchitectureRecord, default_n: int) -> int:
    """The design size used for evaluation: concrete where Table III
    gives one, ``default_n`` for template (n/m/v) architectures."""
    resolved = record.signature.dps.resolve(default_n)
    return max(resolved, 1)


def cost_point(record: ArchitectureRecord, *, default_n: int) -> SurveyCostPoint:
    """Price one surveyed architecture — the sweep's per-point worker.

    Public because the async ``survey-costs`` job kind
    (:mod:`repro.serve.jobs`) sweeps over exactly this function; it is
    a pure function of ``(record, default_n)``, which is what makes the
    job's checkpointed resume bit-identical.
    """
    n = _effective_n(record, default_n)
    signature = record.signature
    return SurveyCostPoint(
        name=record.name,
        taxonomic_name=record.derived_name,
        flexibility=record.derived_flexibility,
        n_effective=n,
        area_ge=_AREA.total_ge(signature, n=n),
        config_bits=_CONFIG.total(signature, n=n),
        energy_per_op_pj=_ENERGY.energy_per_op(signature, n=n),
        reconfig_cycles=_RECONFIG.cost(signature, n=n).cycles,
    )


def evaluate_survey(*, default_n: int = 16) -> list[SurveyCostPoint]:
    """Estimate every surveyed architecture's costs at its own size.

    Each record is one point of a :func:`repro.perf.sweep`, priced by
    the paper's models directly.
    """
    records = all_architectures()
    worker = functools.partial(cost_point, default_n=default_n)
    with _trace.span(
        "analysis.survey_costs", architectures=len(records), default_n=default_n
    ):
        return list(sweep(worker, records))


def survey_cost_table(*, default_n: int = 16) -> str:
    """Rendered cost table over the whole survey."""
    from repro.reporting.tables import format_table

    points = evaluate_survey(default_n=default_n)
    header = (
        "architecture", "class", "flex", "n", "area (GE)",
        "config bits", "pJ/op", "reload cycles",
    )
    return format_table(header, [p.row() for p in points])

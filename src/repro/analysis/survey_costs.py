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
from typing import Any, Mapping

from repro.models.area import AreaModel
from repro.models.configbits import ConfigBitsModel
from repro.models.energy import EnergyModel
from repro.models.reconfiguration import ReconfigurationModel, ReconfigurationPort
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


def _evaluate_survey_kernel(
    records: "tuple[ArchitectureRecord, ...]", default_n: int
) -> "list[SurveyCostPoint] | None":
    """Vectorized fast path pricing the whole survey in one batch.

    Area and configuration bits come from :mod:`repro.core.batch`
    (grouped, bit-exact, priced at each record's own size); the energy
    estimate and the bits-to-cycles conversion reuse the scalar default
    models so every :class:`SurveyCostPoint` field is bit-identical to
    the scalar sweep's. Returns ``None`` when NumPy is missing.
    """
    from repro.core import batch as _batch

    if not _batch.kernel_supports(None, None):
        return None
    with _trace.span(
        "analysis.survey_costs",
        architectures=len(records),
        default_n=default_n,
        jobs=1,
        kernel=True,
    ):
        sizes = [_effective_n(record, default_n) for record in records]
        columns = _batch.SignatureBatch.from_signatures(
            record.signature for record in records
        )
        estimates = _batch.price_batch(columns, n=sizes)
        energy = EnergyModel()
        port = ReconfigurationPort()
        points = []
        for index, record in enumerate(records):
            bits = int(estimates.config_bits[index])
            points.append(
                SurveyCostPoint(
                    name=record.name,
                    taxonomic_name=record.derived_name,
                    flexibility=record.derived_flexibility,
                    n_effective=sizes[index],
                    area_ge=float(estimates.area_ge[index]),
                    config_bits=bits,
                    energy_per_op_pj=energy.energy_per_op(
                        record.signature, n=sizes[index]
                    ),
                    reconfig_cycles=-(-bits // port.bandwidth_bits_per_cycle),
                )
            )
        return points


def evaluate_survey(
    *,
    default_n: int = 16,
    area_model: "AreaModel | None" = None,
    config_model: "ConfigBitsModel | None" = None,
    energy_model: "EnergyModel | None" = None,
    reconfig_model: "ReconfigurationModel | None" = None,
    jobs: int = 1,
    executor: str = "process",
    on_error: str = "raise",
    timeout_s: "float | None" = None,
    resume: bool = False,
    checkpoint_dir: "str | None" = None,
    workers: "str | None" = None,
    fabric_options: "Mapping[str, Any] | None" = None,
    batch_kernel: bool = True,
) -> list[SurveyCostPoint]:
    """Estimate every surveyed architecture's costs at its own size.

    Evaluations go through the :mod:`repro.perf` model cache — two
    architectures sharing a signature and size are priced once — and
    ``jobs``/``executor`` fan the records out through the sweep engine
    with order-preserving results. ``on_error``/``timeout_s`` set the
    engine's failure policy (failed points are dropped from the result),
    and ``resume=True`` journals completed records for restartability.

    ``workers`` (``"HOST:PORT,HOST:PORT"``) routes the sweep through the
    distributed fabric instead of a local pool; with ``resume=True`` the
    journal becomes an index-sharded :class:`ShardedCheckpoint` whose
    merge is byte-identical to the single-host journal.
    ``fabric_options`` forwards extra :func:`~repro.perf.fabric_sweep`
    keywords (``max_lease_size``, ``membership``, ``listen``, …) —
    scheduling knobs that never change the artifact.

    ``batch_kernel=True`` (the default) prices plain single-job,
    default-model runs through the vectorized :mod:`repro.core.batch`
    kernel when NumPy is available; results — and therefore the
    rendered cost table — are bit-identical either way.
    """
    custom = (area_model, config_model, energy_model, reconfig_model)
    records = all_architectures()
    if (
        batch_kernel
        and all(model is None for model in custom)
        and jobs == 1
        and workers is None
        and not resume
        and on_error == "raise"
        and timeout_s is None
    ):
        points = _evaluate_survey_kernel(records, default_n)
        if points is not None:
            return points
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
    chosen_executor = "serial" if jobs == 1 else executor
    checkpoint = None
    if resume:
        spec = {
            "default_n": default_n,
            "records": [record.name for record in records],
            "models": [repr(model) for model in custom],
        }
        from repro.perf.journal import ShardedCheckpoint, SweepCheckpoint

        opener = ShardedCheckpoint if workers else SweepCheckpoint
        checkpoint = opener.open("costs", spec, directory=checkpoint_dir)
    try:
        with _trace.span(
            "analysis.survey_costs", architectures=len(records), default_n=default_n, jobs=jobs
        ):
            if workers:
                from repro.perf.fabric import fabric_sweep

                result = fabric_sweep(
                    worker,
                    records,
                    workers=workers,
                    on_error=on_error,
                    timeout_s=timeout_s,
                    checkpoint=checkpoint,
                    fallback_executor=chosen_executor,
                    fallback_jobs=jobs,
                    **dict(fabric_options or {}),
                )
            else:
                result = sweep(
                    worker,
                    records,
                    executor=chosen_executor,
                    jobs=jobs,
                    on_error=on_error,
                    timeout_s=timeout_s,
                    checkpoint=checkpoint,
                )
    finally:
        if checkpoint is not None:
            checkpoint.close()
    return [point for point in result if point is not None]


def survey_cost_table(
    *,
    default_n: int = 16,
    jobs: int = 1,
    on_error: str = "raise",
    timeout_s: "float | None" = None,
    resume: bool = False,
    workers: "str | None" = None,
    fabric_options: "Mapping[str, Any] | None" = None,
    batch_kernel: bool = True,
) -> str:
    """Rendered cost table over the whole survey.

    Byte-identical whether the batch kernel, the scalar sweep, or the
    distributed fabric produced the underlying points — including under
    any ``fabric_options`` scheduling knobs.
    """
    from repro.reporting.tables import format_table

    points = evaluate_survey(
        default_n=default_n,
        jobs=jobs,
        on_error=on_error,
        timeout_s=timeout_s,
        resume=resume,
        workers=workers,
        fabric_options=fabric_options,
        batch_kernel=batch_kernel,
    )
    header = (
        "architecture", "class", "flex", "n", "area (GE)",
        "config bits", "pJ/op", "reload cycles",
    )
    return format_table(header, [p.row() for p in points])

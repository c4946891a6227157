"""Design-space exploration — the paper's stated design use-case.

§V: "a designer can decide which computer class offers the required
flexibility with minimum configuration overhead for single or set of
target applications. Initial estimates of area and configuration
overhead gives a designer option to take better design decision earlier
during the design life cycle."

:func:`explore` turns that sentence into a function: given requirements
(a flexibility floor, optional area/configuration budgets, a machine-
type restriction, required capabilities), it returns the feasible
classes ranked by the designer's chosen objective.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.analysis.pareto import DesignPoint, evaluate_classes
from repro.core.naming import MachineType
from repro.obs import trace as _trace
from repro.core.taxonomy import class_by_name
from repro.machine.base import Capability

__all__ = ["Objective", "Requirements", "Recommendation", "explore", "capabilities_of_class"]


class Objective(enum.Enum):
    """What the designer minimises among feasible classes."""

    CONFIG_BITS = "minimum configuration overhead"
    AREA = "minimum area"
    FLEXIBILITY_PER_AREA = "maximum flexibility per unit area"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Requirements:
    """A designer's constraint set."""

    min_flexibility: int = 0
    max_area_ge: float | None = None
    max_config_bits: int | None = None
    machine_type: MachineType | None = None
    required_capabilities: frozenset[Capability] = frozenset()
    n: int = 16

    def admits(self, point: DesignPoint) -> bool:
        """Whether ``point`` satisfies every stated requirement."""
        if point.flexibility < self.min_flexibility:
            return False
        if self.max_area_ge is not None and point.area_ge > self.max_area_ge:
            return False
        if (
            self.max_config_bits is not None
            and point.config_bits > self.max_config_bits
        ):
            return False
        if (
            self.machine_type is not None
            and point.machine_type is not self.machine_type
            and point.machine_type is not MachineType.UNIVERSAL_FLOW
        ):
            return False
        if self.required_capabilities:
            provided = capabilities_of_class(point.name)
            if not self.required_capabilities <= provided:
                return False
        return True


def capabilities_of_class(name: str) -> frozenset[Capability]:
    """Capabilities a taxonomy class provides, derived from its signature."""
    from repro.core.connectivity import LinkSite
    from repro.core.components import Multiplicity

    cls = class_by_name(name)
    sig = cls.signature
    caps: set[Capability] = set()
    if sig.is_universal_flow:
        return frozenset(Capability)
    if sig.is_data_flow:
        caps.add(Capability.DATAFLOW_EXECUTION)
    else:
        caps.add(Capability.INSTRUCTION_EXECUTION)
    if sig.dps.multiplicity.is_plural:
        caps.add(Capability.DATA_PARALLEL)
    if sig.link(LinkSite.DP_DP).is_switched:
        caps.add(Capability.LANE_SHUFFLE)
        if sig.ips.multiplicity is Multiplicity.MANY:
            caps.add(Capability.MESSAGE_PASSING)
    if sig.link(LinkSite.DP_DM).is_switched:
        caps.add(Capability.GLOBAL_MEMORY)
    if sig.ips.multiplicity is Multiplicity.MANY:
        caps.add(Capability.MULTIPLE_STREAMS)
    if sig.link(LinkSite.IP_IP).exists:
        caps.add(Capability.IP_COMPOSITION)
    return frozenset(caps)


@dataclass(frozen=True)
class Recommendation:
    """DSE outcome: ranked feasible classes plus the rejected set."""

    requirements: Requirements
    objective: Objective
    feasible: tuple[DesignPoint, ...]
    infeasible: tuple[DesignPoint, ...] = ()

    @property
    def best(self) -> DesignPoint | None:
        """The top-ranked feasible design point, or ``None`` when nothing qualifies."""
        return self.feasible[0] if self.feasible else None

    def explain(self) -> str:
        """Human-readable breakdown, one line per contributing term."""
        lines = [
            f"objective: {self.objective.value}",
            f"feasible classes: {len(self.feasible)} / "
            f"{len(self.feasible) + len(self.infeasible)}",
        ]
        if self.best is not None:
            lines.append(
                f"recommended: {self.best.name} (flexibility "
                f"{self.best.flexibility}, {self.best.area_ge:,.0f} GE, "
                f"{self.best.config_bits:,} config bits)"
            )
        else:
            lines.append("no class satisfies the requirements")
        return "\n".join(lines)


def _objective_key(objective: Objective):
    if objective is Objective.CONFIG_BITS:
        return lambda p: (p.config_bits, p.area_ge, -p.flexibility)
    if objective is Objective.AREA:
        return lambda p: (p.area_ge, p.config_bits, -p.flexibility)
    return lambda p: (-(p.flexibility / p.area_ge) if p.area_ge else 0.0,)


def explore(
    requirements: Requirements,
    *,
    objective: Objective = Objective.CONFIG_BITS,
) -> Recommendation:
    """Rank every implementable class against the requirements."""
    with _trace.span("analysis.dse", objective=objective.name, n=requirements.n) as dse_span:
        points = evaluate_classes(n=requirements.n)
        feasible = [p for p in points if requirements.admits(p)]
        infeasible = [p for p in points if not requirements.admits(p)]
        feasible.sort(key=_objective_key(objective))
        dse_span.set_attributes(feasible=len(feasible), infeasible=len(infeasible))
    return Recommendation(
        requirements=requirements,
        objective=objective,
        feasible=tuple(feasible),
        infeasible=tuple(infeasible),
    )

"""Resilience analysis: the flexibility argument under failure (§III-B).

The paper scores flexibility by counting switched (``x``) sites; this
module gives that score an operational meaning: **switched sites are
what a machine routes around failures with**. A signature's expected
sustained throughput under a per-resource fault rate ``r`` is the
product of a *compute* factor (how much retired work survives dead
processing elements) and a *link* factor (how much connectivity
survives dead wires):

Compute factor
    * remap-capable signatures — a survivor can reach the dead unit's
      state through ``x`` cells, so only the dead fraction is lost:
      ``1 - max(0, r - s/n)`` (``s`` spare PEs absorb the first deaths
      outright);
    * multiple independent streams without remap — a dead DP also
      strands its private IP and memories, compounding the loss across
      both processor banks: ``(1 - r)^2``;
    * lockstep/single-stream without remap — the broadcast program
      assumes full width, so the machine only sustains nominal
      throughput while *every* lane lives: ``(1 - r)^n``.

Link factor (product over existing sites)
    * direct ``-`` site — exactly one wire per connection, no way
      around it: ``1 - r``;
    * switched ``x`` site — the switch re-routes most failures (a dead
      crossbar port still costs its endpoint): ``1 - r/2``;
    * switched site on a fine-granularity (universal) fabric — massive
      path redundancy between any two cells: ``1 - r/4``.

The model is deliberately coarse — its job is ordinal, not absolute:
sweeping the 25 surveyed architectures must rank the switch-rich
classes above the direct-wired ones, and that ranking must correlate
with the paper's Table-II flexibility scores. Both are tested.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.core.components import Multiplicity
from repro.core.errors import FaultError
from repro.core.connectivity import LINK_SITES, LinkKind
from repro.core.signature import Signature
from repro.obs import trace as _trace
from repro.perf.engine import sweep
from repro.registry.survey import SurveyEntry, survey_table

__all__ = [
    "DEFAULT_FAULT_RATES",
    "ResiliencePoint",
    "can_remap",
    "expected_throughput",
    "degradation_curve",
    "resilience_sweep",
    "flexibility_rank_correlation",
    "resilience_csv_rows",
    "render_resilience_table",
]

#: The default fault-rate sweep: 1% to 20% per-resource failure.
DEFAULT_FAULT_RATES: tuple[float, ...] = (0.01, 0.02, 0.05, 0.1, 0.2)


def can_remap(signature: Signature) -> bool:
    """Whether a signature's structure lets survivors absorb dead PEs.

    Mirrors the executable machines' rules:

    * universal flow — always (every cell sits in switched fabric);
    * multiple instruction streams — a survivor must fetch the dead
      core's program (switched IP-IM) *and* reach its data (switched
      DP-DM);
    * single-IP / data-flow — the broadcast engine needs a switched
      DP-side site (DP-DM or DP-DP) to re-home a lane's state.
    """
    if signature.is_universal_flow:
        return True
    dp_dm = signature.dp_dm.is_switched
    dp_dp = signature.dp_dp.is_switched
    if signature.ips.multiplicity is Multiplicity.MANY:
        return signature.ip_im.is_switched and dp_dm
    return dp_dm or dp_dp


def expected_throughput(
    signature: Signature,
    rate: float,
    *,
    n: int = 16,
    spares: int = 0,
) -> float:
    """Expected sustained throughput fraction at fault rate ``rate``."""
    if not 0.0 <= rate <= 1.0:
        raise FaultError(f"fault rate must lie in [0, 1], got {rate}")
    if n <= 0:
        raise FaultError("n must be positive")
    if spares < 0:
        raise FaultError("spares must be non-negative")
    n_pe = max(signature.dps.resolve(n), 1)
    if can_remap(signature):
        compute = 1.0 - max(0.0, rate - spares / n_pe)
    elif signature.ips.multiplicity is Multiplicity.MANY:
        compute = (1.0 - rate) ** 2
    else:
        compute = (1.0 - rate) ** n_pe
    links = 1.0
    fine = signature.is_universal_flow
    for site in LINK_SITES:
        kind = signature.link(site).kind
        if kind is LinkKind.DIRECT:
            links *= 1.0 - rate
        elif kind is LinkKind.SWITCHED:
            links *= 1.0 - rate / (4.0 if fine else 2.0)
    return compute * links


def degradation_curve(
    signature: Signature,
    rates: "tuple[float, ...]" = DEFAULT_FAULT_RATES,
    *,
    n: int = 16,
    spares: int = 0,
) -> tuple[float, ...]:
    """Throughput at each rate — non-increasing by construction.

    Bit-identical to :func:`expected_throughput` at every rate, its
    oracle: the per-signature constants are derived once, and each rate
    then costs only the same float operations in the same order (a
    direct site divides by ``1.0``, which is exact).
    """
    if rates and (n <= 0 or spares < 0):
        # The oracle raises for the first rate, in its own check order.
        return tuple(expected_throughput(signature, rate, n=n, spares=spares) for rate in rates)
    n_pe = max(signature.dps.resolve(n), 1)
    remap = can_remap(signature)
    many = signature.ips.multiplicity is Multiplicity.MANY
    spare_share = spares / n_pe
    switched = 4.0 if signature.is_universal_flow else 2.0
    divisors = []
    for site in LINK_SITES:
        kind = signature.link(site).kind
        if kind is LinkKind.DIRECT:
            divisors.append(1.0)
        elif kind is LinkKind.SWITCHED:
            divisors.append(switched)
    curve = []
    for rate in rates:
        if not 0.0 <= rate <= 1.0:
            raise FaultError(f"fault rate must lie in [0, 1], got {rate}")
        if remap:
            compute = 1.0 - max(0.0, rate - spare_share)
        elif many:
            compute = (1.0 - rate) ** 2
        else:
            compute = (1.0 - rate) ** n_pe
        links = 1.0
        for divisor in divisors:
            links *= 1.0 - rate / divisor
        curve.append(compute * links)
    return tuple(curve)


@dataclass(frozen=True, slots=True)
class ResiliencePoint:
    """One surveyed architecture's degradation behaviour."""

    name: str
    taxonomic_name: str
    flexibility: int
    switched_sites: int
    remap_capable: bool
    rates: tuple[float, ...]
    throughput: tuple[float, ...]

    @property
    def mean_throughput(self) -> float:
        """Mean normalised throughput across the swept fault rates."""
        return sum(self.throughput) / len(self.throughput)

    def at(self, rate: float) -> float:
        """The normalised throughput recorded at fault rate ``rate``."""
        try:
            return self.throughput[self.rates.index(rate)]
        except ValueError:
            raise FaultError(
                f"rate {rate} was not sampled (have {self.rates})"
            ) from None


def _resilience_point(
    entry: SurveyEntry, *, rates: "tuple[float, ...]", n: int, spares: int
) -> ResiliencePoint:
    """One architecture's degradation curve — the sweep's point worker."""
    signature = entry.record.signature
    return ResiliencePoint(
        name=entry.name,
        taxonomic_name=entry.taxonomic_name,
        flexibility=entry.flexibility,
        switched_sites=len(signature.switched_sites()),
        remap_capable=can_remap(signature),
        rates=rates,
        throughput=degradation_curve(signature, rates, n=n, spares=spares),
    )


def resilience_sweep(
    rates: "tuple[float, ...]" = DEFAULT_FAULT_RATES,
    *,
    n: int = 16,
    spares: int = 0,
    entries: "tuple[SurveyEntry, ...] | None" = None,
    on_error: str = "raise",
    timeout_s: "float | None" = None,
    resume: bool = False,
    checkpoint_dir: "str | None" = None,
) -> list[ResiliencePoint]:
    """Degradation curves for the whole survey, best-sustained first.

    Each architecture is one point of a :func:`repro.perf.sweep`.
    ``on_error``/``timeout_s`` set the engine's per-point failure policy
    (points skipped under ``"skip"``/``"retry"`` are dropped from the
    result), and ``resume=True`` journals completed architectures so an
    interrupted sweep picks up where it left off, bit-identically.
    """
    if not rates:
        raise ValueError("at least one fault rate is required")
    rows = entries if entries is not None else survey_table()
    worker = functools.partial(
        _resilience_point, rates=tuple(rates), n=n, spares=spares
    )
    spec = {
        "rates": [float(rate) for rate in rates],
        "n": n,
        "spares": spares,
        "entries": [entry.name for entry in rows],
    }
    with _trace.span(
        "analysis.resilience_sweep",
        architectures=len(rows),
        rates=len(rates),
        n=n,
        spares=spares,
    ):
        result = sweep(
            worker,
            rows,
            on_error=on_error,
            timeout_s=timeout_s,
            journal=("resilience", spec) if resume else None,
            checkpoint_dir=checkpoint_dir,
        )
    points = [point for point in result if point is not None]
    points.sort(key=lambda p: (-p.mean_throughput, p.name))
    return points


def flexibility_rank_correlation(points: "list[ResiliencePoint]") -> float:
    """Spearman rank correlation between flexibility and mean throughput.

    Hand-rolled (mid-ranks for ties, Pearson over the ranks) to avoid a
    scipy dependency. This is the quantitative form of the PR's claim:
    the paper's flexibility score predicts fault resilience.
    """
    if len(points) < 2:
        raise ValueError("need at least two points to correlate")

    def mid_ranks(values: "list[float]") -> list[float]:
        order = sorted(range(len(values)), key=lambda i: values[i])
        ranks = [0.0] * len(values)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
                j += 1
            mid = (i + j) / 2.0 + 1.0
            for k in range(i, j + 1):
                ranks[order[k]] = mid
            i = j + 1
        return ranks

    xs = mid_ranks([float(p.flexibility) for p in points])
    ys = mid_ranks([p.mean_throughput for p in points])
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    if var_x == 0 or var_y == 0:
        return 0.0
    return cov / (var_x * var_y) ** 0.5


def resilience_csv_rows(points: "list[ResiliencePoint]") -> list[list[str]]:
    """Header + data rows for ``artifacts/resilience.csv``."""
    if not points:
        return [["rank", "architecture", "class", "flexibility",
                 "switched_sites", "remap"]]
    rates = points[0].rates
    header = ["rank", "architecture", "class", "flexibility",
              "switched_sites", "remap"]
    header += [f"throughput@{rate:g}" for rate in rates]
    header += ["mean_throughput"]
    rows = [header]
    for rank, point in enumerate(points, start=1):
        row = [
            str(rank),
            point.name,
            point.taxonomic_name,
            str(point.flexibility),
            str(point.switched_sites),
            "yes" if point.remap_capable else "no",
        ]
        row += [f"{value:.4f}" for value in point.throughput]
        row += [f"{point.mean_throughput:.4f}"]
        rows.append(row)
    return rows


def render_resilience_table(points: "list[ResiliencePoint]") -> str:
    """Fixed-width text table of the sweep plus the rank correlation."""
    rows = resilience_csv_rows(points)
    widths = [max(len(row[col]) for row in rows) for col in range(len(rows[0]))]
    lines = []
    for index, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    if len(points) >= 2:
        rho = flexibility_rank_correlation(points)
        lines.append("")
        lines.append(
            f"Spearman rank correlation (flexibility vs mean throughput): {rho:+.3f}"
        )
    return "\n".join(lines)

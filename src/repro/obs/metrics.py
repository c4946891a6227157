"""Process-local metrics: counters, gauges and fixed-bucket histograms.

Where :mod:`repro.obs.trace` answers *where did this run's time go*,
metrics answer *how much work has this process done so far*: ModelCache
hits and misses, sweep points evaluated, machine cycles retired. They
are always on — an increment is one integer add, cheap enough that no
enable flag is needed — and process-local: each process (a pre-fork
serve worker, say) counts only the work it executed.

    >>> from repro.obs.metrics import MetricsRegistry
    >>> registry = MetricsRegistry()
    >>> hits = registry.counter("demo.hits", help="cache hits")
    >>> hits.inc()
    >>> hits.inc(2)
    >>> hits.value
    3
    >>> latency = registry.histogram("demo.wait_s", boundaries=(0.1, 1.0))
    >>> latency.observe(0.05)
    >>> latency.observe(3.0)
    >>> latency.bucket_counts
    (1, 0, 1)

:data:`REGISTRY` is the shared process-wide instance; the CLI's
``repro-taxonomy metrics`` subcommand runs a calibration workload and
prints its rendering.
"""

from __future__ import annotations

import bisect
from threading import Lock
from typing import Any, Iterator

__all__ = [
    "DURATION_BUCKETS_S",
    "PROMETHEUS_PREFIX",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "registry",
    "render_prometheus",
]

#: Default histogram boundaries for wall-clock durations, in seconds —
#: spanning a 100 µs sweep point to a multi-second report build.
DURATION_BUCKETS_S: tuple[float, ...] = (
    0.0001,
    0.001,
    0.01,
    0.1,
    1.0,
    10.0,
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "help", "_value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._value = 0

    def inc(self, amount: "int | float" = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name}: increment must be >= 0, got {amount}")
        self._value += amount

    @property
    def value(self) -> "int | float":
        """The accumulated count."""
        return self._value

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready state: type, help and current value."""
        return {"type": "counter", "help": self.help, "value": self._value}


class Gauge:
    """A value that can go up and down (queue depth, cache size)."""

    __slots__ = ("name", "help", "_value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._value = 0.0

    def set(self, value: "int | float") -> None:
        """Replace the gauge's value."""
        self._value = value

    def inc(self, amount: "int | float" = 1) -> None:
        """Shift the gauge by ``amount`` (may be negative)."""
        self._value += amount

    @property
    def value(self) -> "int | float":
        """The gauge's current value."""
        return self._value

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready state: type, help and current value."""
        return {"type": "gauge", "help": self.help, "value": self._value}


class Histogram:
    """Observations bucketed against fixed, sorted boundaries.

    ``boundaries=(b0, .., bk)`` yields ``k + 2`` buckets: ``<= b0``,
    ``(b0, b1]`` .. and a final overflow bucket ``> bk``. Boundaries are
    fixed at construction — merging histograms across processes or runs
    is then a plain element-wise sum.
    """

    __slots__ = ("name", "help", "boundaries", "_counts", "_total", "_count")

    def __init__(self, name: str, boundaries: "tuple[float, ...]", help: str = ""):
        if not boundaries:
            raise ValueError(f"histogram {name}: at least one bucket boundary is required")
        ordered = tuple(float(b) for b in boundaries)
        if list(ordered) != sorted(set(ordered)):
            raise ValueError(
                f"histogram {name}: boundaries must be strictly increasing, got {boundaries}"
            )
        self.name = name
        self.help = help
        self.boundaries = ordered
        self._counts = [0] * (len(ordered) + 1)
        self._total = 0.0
        self._count = 0

    def observe(self, value: "int | float") -> None:
        """Record one observation."""
        self._counts[bisect.bisect_left(self.boundaries, value)] += 1
        self._total += value
        self._count += 1

    @property
    def count(self) -> int:
        """Number of observations recorded."""
        return self._count

    @property
    def total(self) -> float:
        """Sum of all observed values."""
        return self._total

    @property
    def mean(self) -> float:
        """Mean observed value (0.0 before any observation)."""
        return self._total / self._count if self._count else 0.0

    @property
    def bucket_counts(self) -> tuple[int, ...]:
        """Per-bucket observation counts, overflow bucket last."""
        return tuple(self._counts)

    def merge(self, buckets: "list[int]", count: int, total: float) -> None:
        """Fold another histogram's state into this one, element-wise.

        The other histogram must share this one's boundaries (that is
        the invariant fixed boundaries buy); ``buckets``/``count``/
        ``total`` are the fields of its :meth:`snapshot`. Used by the
        serve fleet to aggregate per-worker registries into one
        exposition.
        """
        if len(buckets) != len(self._counts):
            raise ValueError(
                f"histogram {self.name}: cannot merge {len(buckets)} buckets "
                f"into {len(self._counts)}"
            )
        self._counts = [mine + int(theirs) for mine, theirs in zip(self._counts, buckets)]
        self._count += int(count)
        self._total += float(total)

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready state: boundaries, bucket counts, count/total/mean."""
        return {
            "type": "histogram",
            "help": self.help,
            "boundaries": list(self.boundaries),
            "buckets": list(self._counts),
            "count": self._count,
            "total": self._total,
            "mean": self.mean,
        }


class MetricsRegistry:
    """Named metrics, get-or-create, one namespace per process.

    Lookups are idempotent: asking twice for the same name returns the
    same instrument, and asking with a conflicting type (or, for
    histograms, conflicting boundaries) raises ``ValueError`` — silent
    redefinition is how dashboards lie.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, "Counter | Gauge | Histogram"] = {}
        self._lock = Lock()

    def counter(self, name: str, *, help: str = "") -> Counter:
        """Get or create the counter called ``name``."""
        return self._get_or_create(Counter, name, help=help)

    def gauge(self, name: str, *, help: str = "") -> Gauge:
        """Get or create the gauge called ``name``."""
        return self._get_or_create(Gauge, name, help=help)

    def histogram(
        self,
        name: str,
        *,
        boundaries: "tuple[float, ...]" = DURATION_BUCKETS_S,
        help: str = "",
    ) -> Histogram:
        """Get or create the histogram called ``name``.

        Re-requesting an existing histogram with different boundaries
        raises — bucket layouts are part of the metric's identity.
        """
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, Histogram):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{type(existing).__name__.lower()}, not histogram"
                    )
                if existing.boundaries != tuple(float(b) for b in boundaries):
                    raise ValueError(
                        f"histogram {name!r} already registered with boundaries "
                        f"{existing.boundaries}, not {boundaries}"
                    )
                return existing
            created = Histogram(name, boundaries, help=help)
            self._metrics[name] = created
            return created

    def _get_or_create(self, kind: type, name: str, *, help: str) -> Any:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, kind):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{type(existing).__name__.lower()}, not {kind.__name__.lower()}"
                    )
                return existing
            created = kind(name, help=help)
            self._metrics[name] = created
            return created

    def get(self, name: str) -> "Counter | Gauge | Histogram":
        """The registered metric called ``name``; KeyError when absent."""
        return self._metrics[name]

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __iter__(self) -> "Iterator[str]":
        return iter(sorted(self._metrics))

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """Every metric's JSON-ready state, keyed by name, sorted."""
        with self._lock:
            return {name: self._metrics[name].snapshot() for name in sorted(self._metrics)}

    def render(self) -> str:
        """Fixed-width text report: one line per metric, sorted by name."""
        rows = []
        for name, state in self.snapshot().items():
            if state["type"] == "histogram":
                detail = (
                    f"count={state['count']} total={state['total']:.6g} "
                    f"mean={state['mean']:.6g} buckets={state['buckets']}"
                )
            else:
                value = state["value"]
                detail = f"value={value:.6g}" if isinstance(value, float) else f"value={value}"
            rows.append((name, state["type"], detail, state["help"]))
        if not rows:
            return "(no metrics recorded)"
        name_width = max(len(row[0]) for row in rows)
        type_width = max(len(row[1]) for row in rows)
        lines = []
        for name, kind, detail, help_text in rows:
            line = f"{name.ljust(name_width)}  {kind.ljust(type_width)}  {detail}"
            if help_text:
                line += f"  # {help_text}"
            lines.append(line)
        return "\n".join(lines)

    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format.

        This is the single source of truth for the format: both the
        ``/v1/metrics`` endpoint of :mod:`repro.serve` and the
        ``repro-taxonomy metrics --prometheus`` subcommand call it, and
        a golden-file test pins the exposition down byte-for-byte.
        """
        return render_prometheus(self)

    def reset(self) -> None:
        """Forget every metric (primarily for tests)."""
        with self._lock:
            self._metrics.clear()


#: Prefix applied to every metric name in the Prometheus exposition.
PROMETHEUS_PREFIX = "repro_"


def _prometheus_name(name: str) -> str:
    """Map a dotted registry name onto the Prometheus grammar."""
    sanitised = "".join(
        ch if ch.isascii() and (ch.isalnum() or ch == "_") else "_" for ch in name
    )
    return PROMETHEUS_PREFIX + sanitised


def _prometheus_value(value: "int | float") -> str:
    """Render a sample value (integers without a trailing ``.0``)."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _prometheus_help(text: str) -> str:
    """Escape a HELP string per the exposition format rules."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def render_prometheus(registry: "MetricsRegistry | None" = None) -> str:
    """Render a registry (default: the process-wide one) as Prometheus text.

    Counters gain the conventional ``_total`` suffix, histograms expand
    into cumulative ``_bucket{le=...}`` series plus ``_sum``/``_count``,
    and metrics are emitted in sorted name order so the exposition is
    deterministic for a given registry state.

        >>> demo = MetricsRegistry()
        >>> demo.counter("demo.hits", help="cache hits").inc(3)
        >>> print(render_prometheus(demo))
        # HELP repro_demo_hits_total cache hits
        # TYPE repro_demo_hits_total counter
        repro_demo_hits_total 3
        <BLANKLINE>
    """
    source = registry if registry is not None else REGISTRY
    lines: list[str] = []
    for name, state in source.snapshot().items():
        kind = state["type"]
        base = _prometheus_name(name)
        if kind == "counter":
            base += "_total"
        help_text = _prometheus_help(state["help"])
        if help_text:
            lines.append(f"# HELP {base} {help_text}")
        lines.append(f"# TYPE {base} {kind}")
        if kind == "histogram":
            cumulative = 0
            for boundary, count in zip(state["boundaries"], state["buckets"]):
                cumulative += count
                lines.append(
                    f'{base}_bucket{{le="{_prometheus_value(float(boundary))}"}} {cumulative}'
                )
            lines.append(f'{base}_bucket{{le="+Inf"}} {state["count"]}')
            lines.append(f"{base}_sum {_prometheus_value(state['total'])}")
            lines.append(f"{base}_count {state['count']}")
        else:
            lines.append(f"{base} {_prometheus_value(state['value'])}")
    return "\n".join(lines) + "\n" if lines else ""


#: The process-wide registry all built-in instrumentation reports to.
REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide :class:`MetricsRegistry` instance."""
    return REGISTRY

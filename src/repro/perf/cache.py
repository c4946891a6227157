"""LRU-memoised evaluation of the paper's cost models.

Every sweep in :mod:`repro.analysis` prices taxonomy classes with the
same four estimators — Eq.-1 area, Eq.-2 configuration bits, the energy
companion and the reconfiguration-latency conversion. The estimators
are pure functions of ``(signature, n)`` plus their parameter sets, so
re-evaluating them per sweep point is wasted work: the 25-architecture
survey maps onto far fewer distinct ``(class, size)`` pairs, and a DSE
run asks for the same 47 classes at the same ``n`` once per flexibility
floor.

:class:`ModelCache` memoises one bundle of model evaluations behind a
key of ``(class_id, n, technology)``:

* ``class_id`` — the canonical signature description (two classes share
  an entry exactly when they share a signature);
* ``n`` — the resolved design size;
* ``technology`` — the *parameters* of the technology node, not its
  name, so replacing a node with retuned numbers invalidates entries
  rather than silently serving stale areas.

The cache is per-process: hits accumulate across repeated analysis
calls in one process (the CLI ``report`` path, the benchmark suite).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from threading import Lock

from repro.core.signature import Signature
from repro.models.area import AreaModel
from repro.obs import metrics as _metrics
from repro.models.configbits import ConfigBitsModel
from repro.models.energy import EnergyModel
from repro.models.reconfiguration import ReconfigurationModel
from repro.models.technology import NODE_65NM, TechnologyNode

__all__ = [
    "CacheStats",
    "ModelEstimates",
    "ModelCache",
    "DEFAULT_CACHE",
    "evaluate_models",
]


@dataclass(frozen=True, slots=True)
class ModelEstimates:
    """One class-at-a-size, priced by all four models."""

    class_id: str
    n: int
    technology: str
    area_ge: float
    area_um2: float
    config_bits: int
    energy_per_op_pj: float
    reconfig_cycles: int


@dataclass(frozen=True, slots=True)
class CacheStats:
    """Counters snapshot: effectiveness of the memoisation."""

    hits: int
    misses: int
    evictions: int
    size: int
    maxsize: int

    @property
    def lookups(self) -> int:
        """Total lookups (hits plus misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 before any lookup)."""
        return self.hits / self.lookups if self.lookups else 0.0


# Process-wide counters shared by every ModelCache instance; the CLI's
# ``repro-taxonomy metrics`` subcommand reads them back.
_CACHE_HITS = _metrics.REGISTRY.counter("model_cache.hits", help="ModelCache lookup hits")
_CACHE_MISSES = _metrics.REGISTRY.counter("model_cache.misses", help="ModelCache lookup misses")
_CACHE_EVICTIONS = _metrics.REGISTRY.counter(
    "model_cache.evictions", help="ModelCache LRU evictions"
)


def _technology_key(node: TechnologyNode) -> tuple:
    """Key a node by its parameters so retuned values invalidate entries."""
    return (node.name, node.feature_nm, node.ge_area_um2, node.sram_bit_um2)


class ModelCache:
    """LRU cache over :class:`ModelEstimates`, keyed ``(class_id, n, technology)``."""

    def __init__(
        self,
        *,
        maxsize: int = 4096,
        area_model: "AreaModel | None" = None,
        config_model: "ConfigBitsModel | None" = None,
        energy_model: "EnergyModel | None" = None,
        reconfig_model: "ReconfigurationModel | None" = None,
        technology: TechnologyNode = NODE_65NM,
    ):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.area_model = area_model if area_model is not None else AreaModel()
        self.config_model = (
            config_model if config_model is not None else ConfigBitsModel()
        )
        self.energy_model = (
            energy_model
            if energy_model is not None
            else EnergyModel(area_model=self.area_model)
        )
        self.reconfig_model = (
            reconfig_model
            if reconfig_model is not None
            else ReconfigurationModel(config_model=self.config_model)
        )
        self.technology = technology
        self._entries: "OrderedDict[tuple, ModelEstimates]" = OrderedDict()
        self._lock = Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # -- lookup ----------------------------------------------------------

    def evaluate(
        self,
        signature: Signature,
        *,
        n: int = 16,
        technology: "TechnologyNode | None" = None,
        class_id: "str | None" = None,
    ) -> ModelEstimates:
        """Price a signature at size ``n``, memoised.

        ``class_id`` defaults to the signature's canonical description;
        pass an explicit id only if it identifies the signature at least
        as precisely (two different signatures must never share one).
        """
        node = technology if technology is not None else self.technology
        key_id = class_id if class_id is not None else signature.describe()
        key = (key_id, n, _technology_key(node))
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._hits += 1
                _CACHE_HITS.inc()
                self._entries.move_to_end(key)
                return cached
            self._misses += 1
            _CACHE_MISSES.inc()
        estimates = ModelEstimates(
            class_id=key_id,
            n=n,
            technology=node.name,
            area_ge=self.area_model.total_ge(signature, n=n),
            area_um2=self.area_model.total_um2(signature, n=n, node=node),
            config_bits=self.config_model.total(signature, n=n),
            energy_per_op_pj=self.energy_model.energy_per_op(signature, n=n),
            reconfig_cycles=self.reconfig_model.cost(signature, n=n).cycles,
        )
        with self._lock:
            self._entries[key] = estimates
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self._evictions += 1
                _CACHE_EVICTIONS.inc()
        return estimates

    # -- maintenance -----------------------------------------------------

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        with self._lock:
            self._entries.clear()
            self._hits = self._misses = self._evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def stats(self) -> CacheStats:
        """A snapshot of the cache's hit/miss/eviction counters and size."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                maxsize=self.maxsize,
            )


#: Shared per-process cache used whenever a sweep runs with default models.
DEFAULT_CACHE = ModelCache()


def evaluate_models(
    signature: Signature,
    *,
    n: int = 16,
    technology: "TechnologyNode | None" = None,
    cache: "ModelCache | None" = None,
) -> ModelEstimates:
    """Module-level entry point: evaluate through a cache (default shared)."""
    chosen = cache if cache is not None else DEFAULT_CACHE
    return chosen.evaluate(signature, n=n, technology=technology)

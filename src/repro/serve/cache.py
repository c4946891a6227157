"""Bounded response cache keyed on canonical request signatures.

``/v1/classify`` and ``/v1/costs`` are pure functions of their
parameters — the same signature always classifies the same way, the
same (class, n, technology) always prices the same — so their 200
responses are cacheable forever. This module is the exploitation of
that purity: a thread-safe LRU over :class:`~repro.serve.router.
Response` objects, keyed on the canonical ``(path, sorted params)``
tuple so a ``GET`` query string and a ``POST`` body naming the same
parameters share one entry.

Design points the tests pin down:

* **parity** — a cached response is the *same immutable object* the
  handler produced, so cached and uncached requests are byte-identical
  on the wire (both go through ``stable_json``);
* **bounded** — capacity is a hard entry cap; insertion beyond it
  evicts least-recently-used entries, counted in ``serve.cache_evictions``;
* **only successes** — non-200 responses are never stored, so shed load
  (429/503) and deadline 504s cannot poison the cache;
* **observable** — hits/misses/evictions feed both the process-wide
  :mod:`repro.obs` registry (``/v1/metrics``) and per-instance stats
  (``/v1/readyz`` fleet health).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Mapping

from repro.obs import metrics as _metrics
from repro.serve.router import Response

__all__ = ["CACHEABLE_PATHS", "ResponseCache"]

_HITS = _metrics.REGISTRY.counter(
    "serve.cache_hits", help="response-cache hits (request answered without a worker)"
)
_MISSES = _metrics.REGISTRY.counter(
    "serve.cache_misses", help="response-cache misses (request computed by a worker)"
)
_EVICTIONS = _metrics.REGISTRY.counter(
    "serve.cache_evictions", help="response-cache LRU evictions (capacity pressure)"
)

#: Endpoints whose 200 responses are cached. ``/v1/survey`` answers are
#: pure functions of their parameters too, but the endpoint is left out:
#: an uncached ``costs=true`` body takes ~2 ms, and no measured workload
#: repeats it often enough to pay for holding a 25-record body per ``n``.
CACHEABLE_PATHS: tuple[str, ...] = ("/v1/classify", "/v1/costs")


class ResponseCache:
    """A thread-safe LRU of immutable :class:`Response` objects."""

    def __init__(self, capacity: int = 1024):
        if capacity < 0:
            raise ValueError(f"cache capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[tuple, Response]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @staticmethod
    def key(path: str, params: "Mapping[str, str]") -> tuple:
        """The canonical signature: path plus sorted parameter pairs.

        Parameter *order* never matters (``?a=1&b=2`` and ``?b=2&a=1``
        share an entry), and a POST body naming the same fields maps to
        the same key as the equivalent GET query string.
        """
        return (path, tuple(sorted(params.items())))

    def cacheable(self, method: str, path: str) -> bool:
        """True when responses for ``method path`` may use the cache."""
        return (
            self.capacity > 0
            and method.upper() in ("GET", "POST")
            and path in CACHEABLE_PATHS
        )

    def get(self, key: tuple) -> "Response | None":
        """Look up ``key``; counts a hit or a miss either way."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                _MISSES.inc()
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            _HITS.inc()
            return entry

    def put(self, key: tuple, response: Response) -> bool:
        """Store a 200 response; True when it was (re)inserted."""
        if self.capacity == 0 or response.status != 200:
            return False
        with self._lock:
            self._entries[key] = response
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1
                _EVICTIONS.inc()
        return True

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        """Instance-local counters for ``/v1/readyz`` fleet health."""
        with self._lock:
            lookups = self._hits + self._misses
            return {
                "capacity": self.capacity,
                "size": len(self._entries),
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "hit_rate": round(self._hits / lookups, 4) if lookups else 0.0,
            }

"""Seeded request inputs, built without the program's own generators.

The structural space comes from ``structures.json`` (the 406
constructible ``(ips, dps, links)`` combinations, in the endpoint's
parameter spelling), so a change to the program's population generator
or kernel tables cannot change what the benchmark sends. Every function
here is a pure function of its seed.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from urllib.parse import urlencode

from common import derive

_FIELDS_AND_ROWS = json.loads((Path(__file__).parent / "structures.json").read_text("utf-8"))
FIELDS: tuple[str, ...] = tuple(_FIELDS_AND_ROWS["fields"])
#: Each constructible structure as classify parameters ("none" links omitted).
STRUCTURES: tuple[dict[str, str], ...] = tuple(
    {name: value for name, value in zip(FIELDS, row) if value != "none"}
    for row in _FIELDS_AND_ROWS["rows"]
)
#: Structures with a plural (``n``) population that can carry a count.
PLURAL = tuple(s for s in STRUCTURES if "n" in (s["ips"], s["dps"]))

BATCH_ITEMS = 256
#: Distinct items cycled by the batch stream: far beyond the 1024-entry
#: response cache, so no batch item is ever a cache hit.
BATCH_POOL = 32768
#: Concrete counts used by batch items; single keys never use this range.
BATCH_COUNTS = (2, 2048)
SPILL_COUNTS = (2049, 4096)
TECHNOLOGIES = ("28nm", "45nm", "65nm", "90nm")
COSTS_SIZES = (4, 8, 16, 32, 64, 128, 256, 1024)

#: Single-key sets per workload: (classify keys, costs keys, zipf exponent).
#: ``cache-fit`` keys fit the response cache; ``cache-spill`` keys are 8x
#: its capacity and drawn uniformly, so most requests miss.
KEY_SETS = {
    "cache-fit": (150, 100, 1.0),
    "cache-spill": (4096, 4096, 0.0),
}


def _with_counts(structure: dict[str, str], rng: random.Random, low: int, high: int) -> dict:
    """Give every plural population of ``structure`` a concrete count."""
    item = dict(structure)
    for site in ("ips", "dps"):
        if item[site] == "n":
            item[site] = str(rng.randint(low, high))
    return item


def _distinct(rng: random.Random, count: int, make) -> list:
    """``count`` distinct values from the generator ``make(rng)``."""
    seen: set = set()
    out: list = []
    while len(out) < count:
        value = make(rng)
        key = json.dumps(value, sort_keys=True)
        if key not in seen:
            seen.add(key)
            out.append(value)
    return out


def batch_items(seed: int, count: "int | None" = None) -> list[dict[str, str]]:
    """Distinct valid classify items, each with at least one concrete count."""
    rng = random.Random(derive(seed, "batch-items"))
    return _distinct(
        rng, count or BATCH_POOL, lambda r: _with_counts(r.choice(PLURAL), r, *BATCH_COUNTS)
    )


def batch_bodies(seed: int, count: "int | None" = None) -> list[bytes]:
    """``{"items": [...]}`` bodies of :data:`BATCH_ITEMS` distinct items each."""
    items = batch_items(seed, count)
    return [
        json.dumps({"items": items[i:i + BATCH_ITEMS]}, separators=(",", ":")).encode()
        for i in range(0, len(items) - BATCH_ITEMS + 1, BATCH_ITEMS)
    ]


def single_keys(seed: int, workload: str) -> tuple[list[str], list[float]]:
    """The single-request GET targets of a workload and their weights.

    Weights follow a Zipf law of the workload's exponent over a seeded
    ranking of the keys (exponent 0 is uniform).
    """
    n_classify, n_costs, exponent = KEY_SETS[workload]
    rng = random.Random(derive(seed, "single-keys", workload))
    if n_classify <= len(STRUCTURES):
        classify = [dict(s) for s in rng.sample(STRUCTURES, n_classify)]
    else:
        classify = _distinct(
            rng, n_classify, lambda r: _with_counts(r.choice(PLURAL), r, *SPILL_COUNTS)
        )
    sizes = COSTS_SIZES if n_costs <= 47 * len(COSTS_SIZES) * 4 else range(1, 4097)
    costs = _distinct(
        rng,
        n_costs,
        lambda r: {
            "serial": str(r.randint(1, 47)),
            "n": str(r.choice(sizes)),
            "technology": r.choice(TECHNOLOGIES),
        },
    )
    targets = ["/v1/classify?" + urlencode(p) for p in classify]
    targets += ["/v1/costs?" + urlencode(p) for p in costs]
    rng.shuffle(targets)
    weights = [1.0 / (rank + 1) ** exponent for rank in range(len(targets))]
    return targets, weights


def key_schedule(seed: int, phase: str, weights: list[float], count: int) -> list[int]:
    """Which key each of ``count`` requests of ``phase`` sends."""
    rng = random.Random(derive(seed, "schedule", phase))
    return rng.choices(range(len(weights)), weights=weights, k=count)


def job_seed(seed: int, index: int) -> int:
    """The population-job seed of the ``index``-th job of a run."""
    return derive(seed, "population-job", index) % (2**31)

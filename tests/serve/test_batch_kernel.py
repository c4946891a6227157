"""Batch ``/v1/classify`` against its oracle: the same items sent one by one.

Classify batches look each item up in :mod:`repro.core.batch`'s
compiled table; single requests run the scalar classifier. The table
must be unobservable from outside: every ``results[i]`` is byte-identical to
the body that a single ``POST /v1/classify`` of that item returns from
a fresh app (error bodies included), and the response cache ends with
the same accounting as after sending the items one by one.
"""

import json

import pytest

from repro.serve.server import ServerConfig, ServiceApp
from repro.serve.validation import stable_json

GOOD = {
    "ips": "1", "dps": "n", "ip-dp": "1-n", "ip-im": "1-1",
    "dp-dm": "nxn", "dp-dp": "nxn",
}
CONCRETE = {
    "ips": "1", "dps": "64", "ip-dp": "1-64", "ip-im": "1-1",
    "dp-dm": "64x64", "dp-dp": "64x64",
}
DATAFLOW = {"ips": "0", "dps": "1", "dp-dm": "1-1"}
BAD = {"nonsense": "x"}

MIXED_BATCH = [GOOD, CONCRETE, BAD, DATAFLOW, GOOD, {"ips": "9", "dps": "q"}]


def batch_body(items):
    """Encode a batch request body."""
    return json.dumps({"items": items}).encode()


def one_by_one(items, *, path="/v1/classify", rounds=1, **config):
    """The oracle: each item POSTed alone to a fresh app.

    Returns the encoded bodies of the last round and the response-cache
    stats after every round.
    """
    oracle = ServiceApp(ServerConfig(port=0, **config))
    try:
        for _ in range(rounds):
            bodies = [
                stable_json(
                    oracle.dispatch("POST", path, json.dumps(item).encode()).payload
                )
                for item in items
            ]
        return bodies, oracle.response_cache.stats()
    finally:
        oracle.shutdown()


def assert_matches_oracle(items, *, path="/v1/classify", rounds=1, **config):
    """Send ``items`` as one batch (``rounds`` times) and check the oracle."""
    app = ServiceApp(ServerConfig(port=0, **config))
    try:
        for _ in range(rounds):
            response = app.dispatch("POST", path, batch_body(items))
        stats = app.response_cache.stats()
    finally:
        app.shutdown()
    bodies, oracle_stats = one_by_one(items, path=path, rounds=rounds, **config)
    assert response.status == 200
    assert [stable_json(result) for result in response.payload["results"]] == bodies
    assert stats == oracle_stats
    return response.payload


@pytest.mark.parametrize("cache_size", [1024, 0])
def test_mixed_batch_bytes_identical(cache_size):
    payload = assert_matches_oracle(MIXED_BATCH, cache_size=cache_size)
    assert payload["count"] == len(MIXED_BATCH)
    assert payload["errors"] == 2


def test_error_isolation_matches():
    payload = assert_matches_oracle([BAD, GOOD, BAD])
    assert payload["errors"] == 2
    assert payload["results"][0]["error"]["status"] == 400
    assert payload["results"][1]["class"]["short_name"] == "IAP-IV"


def test_cache_accounting_matches_scalar_path():
    # The duplicate GOOD defers its cache probe until the first copy's
    # payload is stored, so it counts as a hit, as it would one by one.
    assert_matches_oracle([GOOD, GOOD, CONCRETE])
    _, stats = one_by_one([GOOD, GOOD, CONCRETE])
    assert (stats["hits"], stats["misses"]) == (1, 2)


def test_repeat_batch_served_from_cache():
    assert_matches_oracle([GOOD, CONCRETE], rounds=2)


def test_batch_matches_single_requests_with_kernel():
    app = ServiceApp(ServerConfig(port=0, cache_size=0))
    try:
        query = "&".join(f"{k}={v}" for k, v in GOOD.items())
        single = app.dispatch("GET", "/v1/classify?" + query)
        batch = app.dispatch("POST", "/v1/classify", batch_body([GOOD]))
        assert stable_json(batch.payload["results"][0]) == stable_json(single.payload)
    finally:
        app.shutdown()


def test_costs_batches_match_the_same_oracle():
    items = [{"class": "IAP-IV", "n": n} for n in (4, 16, 4)]
    payload = assert_matches_oracle(items, path="/v1/costs")
    assert payload["errors"] == 0

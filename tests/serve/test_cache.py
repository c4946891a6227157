"""Response-cache behaviour: parity, bounds, and failure interaction."""

import json
import threading

import pytest

from repro.serve.cache import CACHEABLE_PATHS, ResponseCache
from repro.serve.router import Response
from repro.serve.server import ServerConfig, ServiceApp
from repro.serve.validation import stable_json

CLASSIFY = "/v1/classify?ips=1&dps=n&ip-dp=1-n&ip-im=1-1&dp-dm=nxn&dp-dp=nxn"


@pytest.fixture()
def app():
    """A default in-process ServiceApp, shut down after the test."""
    instance = ServiceApp(ServerConfig(port=0))
    yield instance
    instance.shutdown()


class TestResponseCacheUnit:
    def test_key_is_param_order_insensitive(self):
        a = ResponseCache.key("/v1/costs", {"class": "IAP-IV", "n": "16"})
        b = ResponseCache.key("/v1/costs", {"n": "16", "class": "IAP-IV"})
        assert a == b

    def test_key_distinguishes_paths_and_values(self):
        base = ResponseCache.key("/v1/costs", {"n": "16"})
        assert base != ResponseCache.key("/v1/classify", {"n": "16"})
        assert base != ResponseCache.key("/v1/costs", {"n": "17"})

    def test_cacheable_covers_only_pure_endpoints(self):
        cache = ResponseCache(4)
        assert cache.cacheable("GET", "/v1/classify")
        assert cache.cacheable("POST", "/v1/costs")
        assert not cache.cacheable("GET", "/v1/survey")
        assert not cache.cacheable("DELETE", "/v1/classify")

    def test_zero_capacity_disables_everything(self):
        cache = ResponseCache(0)
        assert not cache.cacheable("GET", CACHEABLE_PATHS[0])
        assert not cache.put(("k",), Response(payload={}))
        assert len(cache) == 0

    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            ResponseCache(-1)

    def test_non_200_is_never_stored(self):
        cache = ResponseCache(4)
        assert not cache.put(("k",), Response(status=503, payload={}))
        assert cache.get(("k",)) is None
        assert cache.stats()["size"] == 0

    def test_lru_eviction_is_bounded_and_counted(self):
        cache = ResponseCache(2)
        for n in range(5):
            cache.put((n,), Response(payload={"n": n}))
        assert len(cache) == 2
        assert cache.stats()["evictions"] == 3
        # the two most recent survive
        assert cache.get((3,)) is not None
        assert cache.get((4,)) is not None
        assert cache.get((0,)) is None

    def test_get_refreshes_recency(self):
        cache = ResponseCache(2)
        cache.put(("a",), Response(payload={}))
        cache.put(("b",), Response(payload={}))
        cache.get(("a",))  # touch: "b" is now the LRU entry
        cache.put(("c",), Response(payload={}))
        assert cache.get(("a",)) is not None
        assert cache.get(("b",)) is None

    def test_stats_hit_rate(self):
        cache = ResponseCache(4)
        cache.put(("k",), Response(payload={}))
        cache.get(("k",))
        cache.get(("missing",))
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["hit_rate"] == 0.5


class TestCachedDispatch:
    def test_repeat_request_is_a_hit_and_byte_identical(self, app):
        first = app.dispatch("GET", CLASSIFY)
        second = app.dispatch("GET", CLASSIFY)
        assert first.status == second.status == 200
        assert second is first  # the same immutable Response object
        assert stable_json(first.payload) == stable_json(second.payload)
        stats = app.response_cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_get_and_post_share_one_entry(self, app):
        body = json.dumps(
            {"ips": "1", "dps": "n", "ip-dp": "1-n", "ip-im": "1-1",
             "dp-dm": "nxn", "dp-dp": "nxn"}
        ).encode()
        first = app.dispatch("GET", CLASSIFY)
        second = app.dispatch("POST", "/v1/classify", body)
        assert second is first
        assert app.response_cache.stats()["hits"] == 1

    def test_cache_size_zero_disables_caching(self):
        app = ServiceApp(ServerConfig(port=0, cache_size=0))
        try:
            first = app.dispatch("GET", CLASSIFY)
            second = app.dispatch("GET", CLASSIFY)
            assert first.status == second.status == 200
            assert second is not first
            assert stable_json(first.payload) == stable_json(second.payload)
            stats = app.response_cache.stats()
            assert stats["hits"] == stats["misses"] == 0
        finally:
            app.shutdown()

    def test_error_responses_are_not_cached(self, app):
        bad = "/v1/classify?ips=bogus&dps=n"
        first = app.dispatch("GET", bad)
        second = app.dispatch("GET", bad)
        assert first.status == second.status == 400
        assert app.response_cache.stats()["hits"] == 0
        assert len(app.response_cache) == 0

    def test_survey_is_never_cached(self, app):
        app.dispatch("GET", "/v1/survey")
        app.dispatch("GET", "/v1/survey")
        stats = app.response_cache.stats()
        assert stats["hits"] == stats["misses"] == 0

    def test_eviction_bound_holds_under_dispatch(self):
        app = ServiceApp(ServerConfig(port=0, cache_size=2))
        try:
            for n in (1, 2, 3, 4, 5):
                assert app.dispatch("GET", f"/v1/costs?class=IAP-IV&n={n}").status == 200
            stats = app.response_cache.stats()
            assert stats["size"] == 2
            assert stats["evictions"] == 3
        finally:
            app.shutdown()

    def test_hit_bypasses_a_saturated_pool(self):
        """A cache hit is served by the connection thread itself, so it
        succeeds even when the worker pool has no capacity left."""
        release = threading.Event()
        occupied = threading.Event()
        app = ServiceApp(
            ServerConfig(port=0, workers=1, queue_depth=0, deadline_s=30.0)
        )
        app.router.add(
            "GET",
            "/v1/slow",
            lambda request: (occupied.set(), release.wait(20.0), Response())[-1],
        )
        try:
            assert app.dispatch("GET", CLASSIFY).status == 200  # warm the cache
            blocker = threading.Thread(
                target=app.dispatch, args=("GET", "/v1/slow"), daemon=True
            )
            blocker.start()
            assert occupied.wait(5.0)
            # uncached work is shed; the cached response still lands
            assert app.dispatch("GET", "/v1/costs?class=IAP-IV").status == 503
            assert app.dispatch("GET", CLASSIFY).status == 200
        finally:
            release.set()
            blocker.join(5.0)
            app.shutdown()

    def test_readyz_reports_cache_stats(self, app):
        app.dispatch("GET", CLASSIFY)
        app.dispatch("GET", CLASSIFY)
        ready = app.dispatch("GET", "/v1/readyz")
        assert ready.payload["cache"]["hits"] == 1
        assert ready.payload["cache"]["capacity"] == 1024

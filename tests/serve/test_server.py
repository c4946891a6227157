"""HTTP-level tests: a real server on an ephemeral port per test."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.serve.router import Response
from repro.serve.server import ServerConfig, ServiceApp, TaxonomyHTTPServer


@pytest.fixture()
def serve():
    """Boot a TaxonomyHTTPServer on an ephemeral port; yields (server, url)."""
    running = []

    def boot(config=None, app=None):
        server = TaxonomyHTTPServer(
            config if config is not None else ServerConfig(port=0), app=app
        )
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        thread.start()
        running.append((server, thread))
        return server

    yield boot
    for server, thread in running:
        server.shutdown()
        server.server_close()
        thread.join(5.0)


def fetch(url, *, method="GET", body=None):
    """One request; returns (status, headers, parsed-or-raw body)."""
    request = urllib.request.Request(url, method=method, data=body)
    if body is not None:
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=10.0) as response:
            raw = response.read()
            status, headers = response.status, dict(response.headers)
    except urllib.error.HTTPError as error:
        raw = error.read()
        status, headers = error.code, dict(error.headers)
    if headers.get("Content-Type") == "application/json":
        return status, headers, json.loads(raw)
    return status, headers, raw


class TestEndpoints:
    def test_classify_round_trip(self, serve):
        server = serve(ServerConfig(port=0))
        status, headers, payload = fetch(
            server.url
            + "/v1/classify?ips=1&dps=n&ip-dp=1-n&ip-im=1-1&dp-dm=nxn&dp-dp=nxn"
        )
        assert status == 200
        assert payload["class"]["short_name"] == "IAP-IV"
        # urllib sends "Connection: close", which the server honours even
        # with keep-alive enabled; reuse itself is covered in
        # test_keepalive.py with a persistent http.client connection.
        assert headers["Connection"] == "close"

    def test_post_classify_json_body(self, serve):
        server = serve(ServerConfig(port=0))
        body = json.dumps(
            {"ips": 1, "dps": "n", "ip-dp": "1-n", "ip-im": "1-1", "dp-dm": "nxn"}
        ).encode()
        status, _, payload = fetch(
            server.url + "/v1/classify", method="POST", body=body
        )
        assert status == 200
        assert payload["flexibility"] >= 0

    def test_query_body_overlap_is_400(self, serve):
        server = serve(ServerConfig(port=0))
        status, _, payload = fetch(
            server.url + "/v1/classify?ips=1",
            method="POST",
            body=b'{"ips": 2, "dps": 1}',
        )
        assert status == 400
        assert "both the query string and the body" in payload["error"]["message"]

    def test_unknown_endpoint_is_structured_404(self, serve):
        server = serve(ServerConfig(port=0))
        status, _, payload = fetch(server.url + "/v1/nope")
        assert status == 404
        assert payload == {
            "error": {
                "code": "not_found",
                "message": "no such endpoint: /v1/nope",
                "status": 404,
            }
        }

    def test_wrong_method_is_405_with_allow_header(self, serve):
        server = serve(ServerConfig(port=0))
        status, headers, payload = fetch(
            server.url + "/v1/survey", method="POST", body=b"{}"
        )
        assert status == 405
        assert payload["error"]["code"] == "method_not_allowed"
        assert headers["Allow"] == "GET"

    def test_bad_parameter_is_400_naming_the_field(self, serve):
        server = serve(ServerConfig(port=0))
        status, _, payload = fetch(server.url + "/v1/costs?class=IAP-IV&n=zebra")
        assert status == 400
        assert "'n'" in payload["error"]["message"]

    def test_index_lists_endpoints(self, serve):
        server = serve(ServerConfig(port=0))
        status, _, payload = fetch(server.url + "/")
        assert status == 200
        assert "/v1/classify" in payload["endpoints"]
        assert "/v1/metrics" in payload["endpoints"]

    def test_healthz_and_readyz(self, serve):
        server = serve(ServerConfig(port=0))
        assert fetch(server.url + "/v1/healthz")[2] == {"status": "ok"}
        status, _, payload = fetch(server.url + "/v1/readyz")
        assert status == 200
        assert payload["status"] == "ready"
        assert sorted(payload) == ["cache", "fleet", "inflight", "queued", "status"]

    def test_metrics_is_prometheus_text(self, serve):
        server = serve(ServerConfig(port=0))
        fetch(server.url + "/v1/healthz")
        status, headers, raw = fetch(server.url + "/v1/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert b"# TYPE repro_serve_requests_total counter" in raw

    def test_identical_requests_are_byte_identical(self, serve):
        server = serve(ServerConfig(port=0))
        url = server.url + "/v1/costs?class=IAP-IV&n=16"
        assert fetch(url)[2] == fetch(url)[2]
        first = urllib.request.urlopen(url, timeout=10.0).read()
        second = urllib.request.urlopen(url, timeout=10.0).read()
        assert first == second


class TestLoadShedding:
    def test_rate_limit_returns_429_with_retry_after(self, serve):
        server = serve(ServerConfig(port=0, rate=0.001, burst=1))
        url = server.url + "/v1/costs?class=IAP-IV"
        assert fetch(url)[0] == 200  # the burst token
        status, headers, payload = fetch(url)
        assert status == 429
        assert payload["error"]["code"] == "rate_limited"
        assert int(headers["Retry-After"]) >= 1

    def test_queue_overflow_returns_503_with_retry_after(self, serve):
        release = threading.Event()
        config = ServerConfig(port=0, workers=1, queue_depth=0, deadline_s=30.0)
        app = ServiceApp(config)

        def slow(request):
            release.wait(20.0)
            return Response(payload={"slept": True})

        app.router.add("GET", "/v1/slow", slow)
        server = serve(config, app=app)
        try:
            hold = threading.Thread(
                target=fetch, args=(server.url + "/v1/slow",), daemon=True
            )
            hold.start()
            deadline = threading.Event()
            # Wait until the slow request actually occupies the worker.
            for _ in range(100):
                if app.pool.queued == 0 and app.drain.inflight == 1:
                    break
                deadline.wait(0.05)
            status, headers, payload = fetch(server.url + "/v1/costs?class=IAP-IV")
            assert status == 503
            assert payload["error"]["code"] == "overloaded"
            assert "Retry-After" in headers
        finally:
            release.set()
            hold.join(5.0)

    def test_deadline_expiry_returns_504(self, serve):
        config = ServerConfig(port=0, workers=1, queue_depth=1, deadline_s=0.2)
        app = ServiceApp(config)
        app.router.add(
            "GET",
            "/v1/slow",
            lambda request: threading.Event().wait(5.0) or Response(),
        )
        server = serve(config, app=app)
        status, _, payload = fetch(server.url + "/v1/slow")
        assert status == 504
        assert payload["error"]["code"] == "deadline_exceeded"

    def test_oversized_post_body_is_rejected(self, serve):
        server = serve(ServerConfig(port=0))
        status, _, payload = fetch(
            server.url + "/v1/classify",
            method="POST",
            body=b"x" * (64 * 1024 + 1),
        )
        assert status == 400
        assert "Content-Length" in payload["error"]["message"]


class TestConfigValidation:
    def test_rejects_bad_drain_budget(self):
        with pytest.raises(ValueError, match="drain_s"):
            ServerConfig(drain_s=-1.0)

    def test_rejects_non_positive_deadline(self):
        with pytest.raises(ValueError, match="deadline_s"):
            ServerConfig(deadline_s=0.0)

"""HTTP-level tests: a real server on an ephemeral port per test."""

import json
import re
import socket
import threading
import urllib.error
import urllib.request
from types import SimpleNamespace

import pytest

from repro.serve.errors import OverloadedError
from repro.serve.router import Response
from repro.serve.server import ServerConfig, ServiceApp, TaxonomyHTTPServer, _RequestHandler


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
                if app.gate.queued == 0 and app.drain.inflight == 1:
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
            lambda request: threading.Event().wait(0.5) or Response(),
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


class TestRequestsRunOnTheirConnectionThread:
    def test_cache_miss_and_batch_run_on_the_dispatching_thread(self):
        app = ServiceApp(ServerConfig(port=0))
        seen = []

        def recording(request):
            seen.append(threading.get_ident())
            return app.service.handle_costs(request)

        for method in ("GET", "POST"):
            app.router.add(method, "/v1/costs", recording)
        body = json.dumps({"items": [{"class": "IAP-IV", "n": 8}, {"class": "IAP-IV", "n": 4}]})
        try:
            assert app.dispatch("GET", "/v1/costs?class=IAP-IV&n=16").status == 200
            batch = app.dispatch("POST", "/v1/costs", body.encode())
            assert (batch.status, batch.payload["errors"]) == (200, 0)
        finally:
            assert app.shutdown(drain_s=1.0)
        assert seen == [threading.get_ident()] * 3


#: The Date header every recorded response carries.
FIXED_DATE = "Mon, 19 Oct 2026 00:00:00 GMT"


class _RecordingWriter:
    """A handler's ``wfile`` that keeps every chunk written through it."""

    def __init__(self, inner, server):
        self.inner, self.server = inner, server

    def write(self, data):
        self.server.writes.append(bytes(data))
        if self.server.on_write is not None:
            self.server.on_write()
        return self.inner.write(data)

    def flush(self):
        self.inner.flush()

    def close(self):
        self.inner.close()

    @property
    def closed(self):
        return self.inner.closed


class _RecordingHandler(_RequestHandler):
    """The real request handler, with a fixed Date and recorded writes."""

    def setup(self):
        super().setup()
        self.wfile = _RecordingWriter(self.wfile, self.server)

    def date_time_string(self, timestamp=None):
        return FIXED_DATE


def exchange(app, raw, *, on_write=None):
    """Serve the raw request bytes on one TCP connection in this thread.

    Returns the handler's writes and every byte the client received.
    """
    server = SimpleNamespace(config=app.config, app=app, writes=[], on_write=on_write)
    with socket.create_server(("127.0.0.1", 0)) as listener:
        client = socket.create_connection(listener.getsockname(), timeout=5.0)
        conn, address = listener.accept()
    with client, conn:
        client.sendall(raw)
        client.shutdown(socket.SHUT_WR)  # the handler sees EOF after the request
        _RecordingHandler(conn, address, server)
        conn.shutdown(socket.SHUT_WR)
        wire = b"".join(iter(lambda: client.recv(65536), b""))
    return server.writes, wire


def _busy(request):
    raise OverloadedError("every slot is taken; retry later")


_GET = b"GET %s HTTP/1.1\r\nHost: x\r\n%s\r\n"
_HEAD = (
    f"Server: <server>\r\nDate: {FIXED_DATE}\r\n"
    "Content-Type: {type}\r\nContent-Length: {length}\r\n"
)
_KEEP = "Connection: keep-alive\r\nKeep-Alive: timeout=5, max=99\r\n"
_CLOSE = "Connection: close\r\n"
_JSON = "application/json"

#: (request, status line, content type, connection headers, extra headers,
#: body): the exact bytes of each response, as the stdlib's
#: send_response/send_header/end_headers sequence frames them.
WIRE_CASES = {
    "json": (
        _GET % (b"/v1/healthz", b""),
        "HTTP/1.1 200 OK", _JSON, _KEEP, "", '{"status":"ok"}\n',
    ),
    "metrics-text": (
        _GET % (b"/v1/metrics", b""),
        "HTTP/1.1 200 OK", "text/plain; version=0.0.4", _KEEP, "",
        "# TYPE repro_demo_total counter\nrepro_demo_total 1\n",
    ),
    "bad-content-length": (
        b"POST /v1/classify HTTP/1.1\r\nHost: x\r\nContent-Length: abc\r\n\r\n",
        "HTTP/1.1 400 Bad Request", _JSON, _CLOSE, "",
        '{"error":{"code":"bad_request","message":"Content-Length must be a '
        'non-negative integer no larger than 65536","status":400}}\n',
    ),
    "overloaded-retry-after": (
        _GET % (b"/v1/busy", b""),
        "HTTP/1.1 503 Service Unavailable", _JSON, _KEEP, "Retry-After: 1\r\n",
        '{"error":{"code":"overloaded","message":"every slot is taken; retry later",'
        '"retry_after_s":1.0,"status":503}}\n',
    ),
    "client-close": (
        _GET % (b"/v1/healthz", b"Connection: close\r\n"),
        "HTTP/1.1 200 OK", _JSON, _CLOSE, "", '{"status":"ok"}\n',
    ),
}


class TestOneSendPerResponse:
    @pytest.fixture()
    def app(self):
        app = ServiceApp(ServerConfig(port=0))
        app.router.add("GET", "/v1/busy", _busy)
        app._render_metrics = lambda: "# TYPE repro_demo_total counter\nrepro_demo_total 1\n"
        yield app
        app.shutdown(drain_s=1.0)

    @staticmethod
    def _unversioned(wire):
        server = f"{_RequestHandler.server_version} {_RequestHandler.sys_version}"
        return wire.replace(server.encode("latin-1"), b"<server>")

    @pytest.mark.parametrize("case", sorted(WIRE_CASES))
    def test_response_is_one_write_of_the_same_bytes(self, app, case):
        raw, status_line, content_type, connection, extra, body = WIRE_CASES[case]
        writes, wire = exchange(app, raw)
        head = _HEAD.format(type=content_type, length=len(body.encode()))
        expected = f"{status_line}\r\n{head}{connection}{extra}\r\n{body}".encode()
        assert len(writes) == 1
        assert writes[0] == wire
        assert self._unversioned(wire) == expected

    def test_draining_503_is_one_write_and_closes(self, app):
        app.drain.begin_drain()
        writes, wire = exchange(app, _GET % (b"/v1/costs?class=IAP-IV", b""))
        body = (
            '{"error":{"code":"draining","message":"server is draining; connection refused",'
            '"retry_after_s":1.0,"status":503}}\n'
        )
        head = _HEAD.format(type=_JSON, length=len(body))
        expected = (
            f"HTTP/1.1 503 Service Unavailable\r\n{head}{_CLOSE}Retry-After: 1\r\n\r\n{body}"
        )
        assert len(writes) == 1
        assert self._unversioned(wire) == expected.encode()

    def test_http_0_9_answer_is_the_bare_body(self, app):
        writes, wire = exchange(app, b"GET /v1/healthz\r\n")
        assert writes == [wire] and wire == b'{"status":"ok"}\n'

    def test_keep_alive_connection_answers_each_request_in_one_write(self, app):
        raw = _GET % (b"/v1/healthz", b"") + _GET % (b"/v1/costs?class=IAP-IV", b"")
        writes, wire = exchange(app, raw)
        assert len(writes) == 2
        assert b"".join(writes) == wire
        assert [w.split(b"\r\n", 1)[0] for w in writes] == [b"HTTP/1.1 200 OK"] * 2

    def test_access_log_line_is_written_after_the_send(self, capsys):
        app = ServiceApp(ServerConfig(port=0, log_requests=True))
        logged_before_send = []
        try:
            exchange(
                app,
                _GET % (b"/v1/healthz", b""),
                on_write=lambda: logged_before_send.append(capsys.readouterr().err),
            )
        finally:
            app.shutdown(drain_s=1.0)
        assert logged_before_send == [""]
        line = capsys.readouterr().err
        assert re.fullmatch(
            r'127\.0\.0\.1 - - \[[^\]]+\] "GET /v1/healthz HTTP/1\.1" 200 16\n', line
        ), line

    def test_access_log_is_silent_unless_configured(self, app, capsys):
        exchange(app, _GET % (b"/v1/healthz", b""))
        assert capsys.readouterr().err == ""

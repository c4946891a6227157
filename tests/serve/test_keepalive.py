"""Keep-alive connection lifecycle over real sockets."""

import http.client
import socket
import threading
import time

import pytest

from repro.serve.server import ServerConfig, TaxonomyHTTPServer

CLASSIFY = "/v1/classify?ips=1&dps=n&ip-dp=1-n&ip-im=1-1&dp-dm=nxn&dp-dp=nxn"


@pytest.fixture()
def serve():
    """Boot a TaxonomyHTTPServer on an ephemeral port; yields a booter."""
    running = []

    def boot(config=None):
        server = TaxonomyHTTPServer(
            config if config is not None else ServerConfig(port=0)
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


def address(server):
    """The server's (host, port) pair."""
    return server.server_address[:2]


class TestConnectionReuse:
    def test_many_requests_share_one_connection(self, serve):
        host, port = address(serve())
        conn = http.client.HTTPConnection(host, port, timeout=10.0)
        try:
            sockets = set()
            for _ in range(3):
                conn.request("GET", CLASSIFY)
                response = conn.getresponse()
                body = response.read()
                assert response.status == 200
                assert body.endswith(b"\n")
                assert response.getheader("Connection") == "keep-alive"
                assert "max=" in response.getheader("Keep-Alive")
                sockets.add(id(conn.sock))
            assert len(sockets) == 1  # never reconnected
        finally:
            conn.close()

    def test_keep_alive_header_counts_down_the_budget(self, serve):
        host, port = address(serve(ServerConfig(port=0, keepalive_requests=3)))
        conn = http.client.HTTPConnection(host, port, timeout=10.0)
        try:
            maxes = []
            for _ in range(2):
                conn.request("GET", "/v1/healthz")
                response = conn.getresponse()
                response.read()
                maxes.append(response.getheader("Keep-Alive").split("max=")[1])
            assert maxes == ["2", "1"]
        finally:
            conn.close()

    def test_budget_exhaustion_closes_the_connection(self, serve):
        host, port = address(serve(ServerConfig(port=0, keepalive_requests=2)))
        conn = http.client.HTTPConnection(host, port, timeout=10.0)
        try:
            conn.request("GET", "/v1/healthz")
            first = conn.getresponse()
            first.read()
            assert first.getheader("Connection") == "keep-alive"
            conn.request("GET", "/v1/healthz")
            second = conn.getresponse()
            second.read()
            assert second.getheader("Connection") == "close"
        finally:
            conn.close()

    def test_zero_budget_disables_keep_alive(self, serve):
        host, port = address(serve(ServerConfig(port=0, keepalive_requests=0)))
        conn = http.client.HTTPConnection(host, port, timeout=10.0)
        try:
            conn.request("GET", "/v1/healthz")
            response = conn.getresponse()
            response.read()
            assert response.getheader("Connection") == "close"
        finally:
            conn.close()

    def test_client_requested_close_is_honoured(self, serve):
        host, port = address(serve())
        conn = http.client.HTTPConnection(host, port, timeout=10.0)
        try:
            conn.request("GET", "/v1/healthz", headers={"Connection": "close"})
            response = conn.getresponse()
            response.read()
            assert response.getheader("Connection") == "close"
        finally:
            conn.close()


class TestIdleTimeout:
    def test_idle_connection_is_closed_by_the_server(self, serve):
        host, port = address(serve(ServerConfig(port=0, keepalive_idle_s=0.2)))
        conn = http.client.HTTPConnection(host, port, timeout=10.0)
        try:
            conn.request("GET", "/v1/healthz")
            response = conn.getresponse()
            response.read()
            assert response.getheader("Connection") == "keep-alive"
            time.sleep(0.8)  # outlive the idle budget
            with pytest.raises((http.client.RemoteDisconnected, ConnectionError)):
                conn.request("GET", "/v1/healthz")
                conn.getresponse()
        finally:
            conn.close()
        # a fresh connection works fine afterwards
        retry = http.client.HTTPConnection(host, port, timeout=10.0)
        try:
            retry.request("GET", "/v1/healthz")
            assert retry.getresponse().status == 200
        finally:
            retry.close()


class TestWireRobustness:
    def test_malformed_request_line_gets_400_and_close(self, serve):
        host, port = address(serve())
        with socket.create_connection((host, port), timeout=10.0) as raw:
            raw.sendall(b"THIS IS NOT HTTP\r\n\r\n")
            raw.settimeout(10.0)
            chunks = []
            while True:
                chunk = raw.recv(65536)
                if not chunk:
                    break  # server closed: the connection was not kept alive
                chunks.append(chunk)
            reply = b"".join(chunks)
        # an unparseable request line gets the stdlib's HTTP/0.9-style
        # error reply (body only) and the connection is torn down —
        # never kept alive with an unframed stream.
        assert b"Error code: 400" in reply

    def test_pipelined_requests_are_answered_in_order(self, serve):
        host, port = address(serve())
        request = (
            b"GET /v1/healthz HTTP/1.1\r\nHost: h\r\n\r\n"
            b"GET /v1/readyz HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n"
        )
        with socket.create_connection((host, port), timeout=10.0) as raw:
            raw.sendall(request)
            raw.settimeout(10.0)
            chunks = []
            while True:
                chunk = raw.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
            reply = b"".join(chunks)
        assert reply.count(b"HTTP/1.1 200") == 2
        assert b'"status":"ok"' in reply  # healthz answered first
        assert b'"status":"ready"' in reply  # then readyz, then close

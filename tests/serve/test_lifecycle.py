"""Lifecycle tests: graceful drain, the soak test and handler failures."""

import json
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.serve.errors import DrainingError
from repro.serve.lifecycle import DrainController, install_signal_handlers
from repro.serve.server import (
    SERVE_SWITCH_INTERVAL_S,
    ServerConfig,
    ServiceApp,
    TaxonomyHTTPServer,
    run_server,
)

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

CLASSIFY = "/v1/classify?ips=1&dps=n&ip-dp=1-n&ip-im=1-1&dp-dm=nxn&dp-dp=nxn"


class TestDrainController:
    def test_admit_and_release_track_inflight(self):
        controller = DrainController()
        token = controller.admit()
        assert controller.inflight == 1
        with token:
            pass
        assert controller.inflight == 0

    def test_begin_drain_flips_once(self):
        controller = DrainController()
        fired = []
        controller.on_drain = lambda: fired.append(1)
        assert controller.begin_drain()
        assert not controller.begin_drain()  # idempotent
        assert fired == [1]
        assert controller.draining

    def test_admission_refused_mid_drain(self):
        controller = DrainController()
        controller.begin_drain()
        with pytest.raises(DrainingError, match="draining"):
            controller.admit()

    def test_wait_drained_blocks_for_inflight_work(self):
        controller = DrainController()
        token = controller.admit()
        assert not controller.wait_drained(0.05)  # still in flight
        with token:
            pass
        assert controller.wait_drained(0.05)

    def test_wait_for_drain_signal(self):
        controller = DrainController()
        assert not controller.wait_for_drain_signal(0.01)
        controller.begin_drain()
        assert controller.wait_for_drain_signal(0.01)

    def test_signal_handlers_refused_off_main_thread(self):
        results = []
        thread = threading.Thread(
            target=lambda: results.append(install_signal_handlers(DrainController()))
        )
        thread.start()
        thread.join()
        assert results == [False]


class TestSoak:
    def test_hammering_threads_see_only_200s_and_clean_drains(self):
        """N threads hammer classify while a drain lands mid-flight.

        The contract: every response is either a 200 (admitted before
        the drain) or a structured 503 ``draining`` (admitted after) —
        never a 500, never an exception — and the drain completes.
        """
        app = ServiceApp(ServerConfig(workers=4, queue_depth=32, deadline_s=10.0))
        statuses = []
        lock = threading.Lock()
        start = threading.Barrier(9)

        def hammer():
            start.wait()
            for _ in range(25):
                response = app.dispatch("GET", CLASSIFY)
                with lock:
                    statuses.append(response.status)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        start.wait()  # all threads are mid-hammer when the drain begins
        app.drain.begin_drain()
        for thread in threads:
            thread.join(30.0)
        assert app.shutdown()
        assert len(statuses) == 8 * 25
        assert set(statuses) <= {200, 503}
        assert 503 in statuses  # the drain did reject some requests
        # The headline: zero 5xx other than the structured drain shed.
        assert all(status != 500 for status in statuses)

    def test_sigterm_drains_and_exits_zero(self):
        """The subprocess flavour: boot, load, SIGTERM mid-flight, exit 0."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--port", "0", "--workers", "2"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            cwd=REPO_ROOT,
        )
        try:
            line = proc.stdout.readline().strip()
            assert line.startswith("listening on ")
            url = line.removeprefix("listening on ")
            for _ in range(10):
                with urllib.request.urlopen(url + CLASSIFY, timeout=10.0) as response:
                    assert response.status == 200
            proc.send_signal(signal.SIGTERM)
            status = proc.wait(timeout=30.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert status == 0
        assert "drained cleanly" in proc.stderr.read()


class TestKeepAliveBatchDrain:
    def test_sigterm_mid_batch_finishes_the_batch_then_closes(self):
        """SIGTERM with a batch POST in flight: finish it, close, exit 0.

        The server runs in-process on this (main) thread, so SIGTERM
        reaches its real signal handler. A test-installed ``/v1/hold``
        route parks the single pool thread on an event, the batch queues
        behind it, and the signal is sent only once ``/v1/readyz``
        reports the batch queued. The drain contract: the batch still
        completes (200, every item answered), its keep-alive connection
        is told ``Connection: close``, and the server returns 0.
        """
        import http.client
        import os

        from repro.serve.router import Response

        entered, release = threading.Event(), threading.Event()
        booted = threading.Event()
        captured = {}
        outcome = {}

        def hold(request):
            entered.set()
            release.wait(30.0)
            return Response(payload={"held": True})

        def ready(server):
            server.app.router.add("GET", "/v1/hold", hold)
            captured["server"] = server
            booted.set()

        def readyz(url):
            with urllib.request.urlopen(url + "/v1/readyz", timeout=10.0) as probe:
                return json.loads(probe.read())

        def client():
            try:
                assert booted.wait(10.0)
                server = captured["server"]
                host, port = server.server_address[:2]
                connection = http.client.HTTPConnection(host, port, timeout=60.0)
                # Prove the connection really is keep-alive before the drain.
                connection.request("GET", CLASSIFY)
                with connection.getresponse() as warmup:
                    outcome["warmup"] = warmup.getheader("Connection")
                    warmup.read()

                held = threading.Thread(
                    target=lambda: urllib.request.urlopen(
                        server.url + "/v1/hold", timeout=60.0
                    ).read(),
                    daemon=True,
                )
                held.start()
                assert entered.wait(10.0), "the hold route never ran"

                items = [{"serial": 1 + (k % 47), "n": 1 + k} for k in range(32)]
                connection.request(
                    "POST",
                    "/v1/costs",
                    body=json.dumps({"items": items}),
                    headers={"Content-Type": "application/json"},
                )
                deadline = time.monotonic() + 10.0
                while readyz(server.url)["queued"] < 1:
                    assert time.monotonic() < deadline, "the batch never queued"
                    time.sleep(0.01)
                outcome["before_signal"] = readyz(server.url)
                os.kill(os.getpid(), signal.SIGTERM)
                deadline = time.monotonic() + 10.0
                while not server.app.drain.draining:
                    assert time.monotonic() < deadline, "SIGTERM never began the drain"
                    time.sleep(0.01)
                release.set()

                with connection.getresponse() as response:
                    outcome["status"] = response.status
                    outcome["connection"] = response.getheader("Connection")
                    outcome["payload"] = json.loads(response.read())
                outcome["items"] = len(items)
                held.join(30.0)
                connection.close()
            except BaseException as error:  # noqa: BLE001 - reported below
                outcome["error"] = error
            finally:
                # Never leave the server thread blocked, pass or fail.
                release.set()
                if "server" in captured:
                    captured["server"].app.drain.begin_drain()

        previous = {
            signum: signal.getsignal(signum) for signum in (signal.SIGTERM, signal.SIGINT)
        }
        driver = threading.Thread(target=client, daemon=True)
        driver.start()
        try:
            config = ServerConfig(
                port=0, workers=1, deadline_s=30.0, drain_s=30.0, keepalive_idle_s=30.0
            )
            status = run_server(config, ready=ready, announce=False)
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
        driver.join(30.0)
        if "error" in outcome:
            raise outcome["error"]
        assert outcome["warmup"] == "keep-alive"
        assert outcome["before_signal"]["queued"] == 1
        assert outcome["before_signal"]["inflight"] == 2
        assert outcome["status"] == 200
        assert outcome["connection"] == "close"
        assert outcome["payload"]["count"] == outcome["items"]
        assert outcome["payload"]["errors"] == 0
        assert status == 0


class TestRunServer:
    def test_run_server_in_process_drains_and_returns_zero(self, capsys):
        """Drive the blocking entry point end to end without a subprocess.

        ``ready`` hands us the bound server; a drain begun from the test
        thread must unwind ``serve_forever`` and return 0 (clean drain).
        """
        booted = threading.Event()
        captured = {}

        def ready(server):
            captured["server"] = server
            booted.set()

        config = ServerConfig(port=0, workers=2, drain_s=5.0)
        result = []
        runner = threading.Thread(
            target=lambda: result.append(run_server(config, ready=ready)),
            daemon=True,
        )
        runner.start()
        assert booted.wait(10.0)
        server = captured["server"]
        with urllib.request.urlopen(server.url + CLASSIFY, timeout=10.0) as response:
            assert response.status == 200
        server.app.drain.begin_drain()
        runner.join(30.0)
        assert result == [0]
        assert "listening on " in capsys.readouterr().out

    def test_module_main_builds_config_from_flags(self, monkeypatch):
        """``python -m repro.serve`` flag parsing, without binding a port."""
        import repro.serve.server as server_module
        from repro.serve import __main__ as module_main

        seen = {}

        def fake_run_server(config, **_):
            seen["config"] = config
            return 0

        monkeypatch.setattr(server_module, "run_server", fake_run_server)
        assert module_main.main(["--port", "0", "--workers", "3", "--rate", "2.5"]) == 0
        config = seen["config"]
        assert config.workers == 3
        assert config.rate == 2.5

    def test_both_entry_points_build_the_same_config(self, monkeypatch):
        """``python -m repro.serve`` and ``repro-taxonomy serve`` share one flag table."""
        import dataclasses

        import repro.serve.server as server_module
        from repro.cli import main as cli_main
        from repro.serve import __main__ as module_main

        configs = []

        def fake_run_server(config, **_):
            configs.append(config)
            return 0

        monkeypatch.setattr(server_module, "run_server", fake_run_server)
        flags = [
            "--burst", "3", "--drain-deadline", "0.5", "--cache-size", "2",
            "--log-requests", "--job-runners", "1",
        ]
        assert module_main.main(flags) == 0
        assert cli_main(["serve", *flags]) == 0
        module_config, cli_config = configs
        assert (module_config.burst, module_config.log_requests) == (3, True)
        assert (module_config.drain_s, module_config.cache_size) == (0.5, 2)
        # The default port is the one difference: ephemeral vs 8080.
        assert (module_config.port, cli_config.port) == (0, 8080)
        assert module_config == dataclasses.replace(cli_config, port=0)


class TestSwitchInterval:
    """``run_server`` serves with a short switch interval and restores the caller's."""

    CALLER_S = 0.003

    @pytest.fixture(autouse=True)
    def caller_interval(self):
        original = sys.getswitchinterval()
        sys.setswitchinterval(self.CALLER_S)
        yield
        sys.setswitchinterval(original)

    @pytest.fixture
    def main_thread_signals(self):
        """Put back the SIGTERM/SIGINT handlers ``run_server`` installs."""
        handlers = {signum: signal.getsignal(signum) for signum in (signal.SIGTERM, signal.SIGINT)}
        yield
        for signum, handler in handlers.items():
            signal.signal(signum, handler)

    def test_serves_with_the_constant_and_restores_after_a_sigterm_drain(
        self, main_thread_signals
    ):
        seen = []

        def ready(server):
            seen.append(sys.getswitchinterval())
            signal.raise_signal(signal.SIGTERM)

        assert run_server(ServerConfig(port=0, workers=1), ready=ready, announce=False) == 0
        assert seen == [pytest.approx(SERVE_SWITCH_INTERVAL_S)]
        assert sys.getswitchinterval() == pytest.approx(self.CALLER_S)

    def test_restores_the_callers_interval_when_serving_raises(
        self, monkeypatch, main_thread_signals
    ):
        servers = []

        def fail(self, poll_interval=0.5):
            servers.append(self)
            raise RuntimeError("listener lost")

        monkeypatch.setattr(TaxonomyHTTPServer, "serve_forever", fail)
        with pytest.raises(RuntimeError, match="listener lost"):
            run_server(ServerConfig(port=0, workers=1), announce=False)
        assert sys.getswitchinterval() == pytest.approx(self.CALLER_S)
        assert servers[0].app.shutdown(drain_s=1.0)

    def test_embedded_app_and_server_leave_the_interval_alone(self):
        app = ServiceApp(ServerConfig(workers=1))
        server = TaxonomyHTTPServer(ServerConfig(port=0, workers=1))
        try:
            assert sys.getswitchinterval() == pytest.approx(self.CALLER_S)
        finally:
            server.server_close()
            assert server.app.shutdown(drain_s=1.0)
            assert app.shutdown(drain_s=1.0)


class TestHandlerFailure:
    def test_handler_exception_is_a_sanitised_500_and_readiness_holds(self, monkeypatch):
        """An unexpected handler exception becomes a structured 500 that
        names only the exception type; readiness never depends on it."""
        import repro.analysis.survey_costs as survey_costs

        def explode(**_):
            raise ZeroDivisionError("secret internal detail")

        monkeypatch.setattr(survey_costs, "evaluate_survey", explode)
        app = ServiceApp(ServerConfig(deadline_s=None))
        for _ in range(6):  # repeated failures change neither the answer nor readiness
            failed = app.dispatch("GET", "/v1/survey?costs=true&n=4")
            assert failed.status == 500
            assert failed.payload == {
                "error": {
                    "code": "internal",
                    "message": "internal error: ZeroDivisionError",
                    "status": 500,
                }
            }
            assert "Traceback" not in json.dumps(failed.payload)
        ready = app.dispatch("GET", "/v1/readyz")
        assert (ready.status, ready.payload["status"]) == (200, "ready")
        assert app.dispatch("GET", "/v1/survey?n=4").status == 200
        assert app.shutdown()

"""Pre-fork front end: a real multi-process fleet on one shared port."""

import json
import os
import pathlib
import shutil
import signal
import socket
import subprocess
import sys
import threading
import urllib.error
import urllib.request

import pytest

from repro.serve.prefork import supports_prefork

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
CLASSIFY = "/v1/classify?ips=1&dps=n&ip-dp=1-n&ip-im=1-1&dp-dm=nxn&dp-dp=nxn"

pytestmark = pytest.mark.skipif(
    not supports_prefork(), reason="pre-fork needs os.fork and SO_REUSEPORT"
)


def boot(*extra_args):
    """Start ``python -m repro.serve`` and return (proc, base_url)."""
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.serve",
            "--port", "0", "--processes", "2", "--workers", "2",
            *extra_args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=REPO_ROOT,
    )
    line = proc.stdout.readline().strip()
    assert line.startswith("listening on "), line
    return proc, line.removeprefix("listening on ")


def stop(proc):
    """SIGTERM the fleet parent; returns (exit_status, stderr_text)."""
    proc.send_signal(signal.SIGTERM)
    status = proc.wait(timeout=30.0)
    return status, proc.stderr.read()


def get_json(url):
    """Fetch ``url`` and parse the JSON body (errors included)."""
    try:
        with urllib.request.urlopen(url, timeout=10.0) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestPreforkFleet:
    def test_fleet_serves_and_reports_two_workers(self):
        proc, url = boot()
        try:
            # Enough traffic that SO_REUSEPORT lands on both workers.
            for _ in range(8):
                status, payload = get_json(url + CLASSIFY)
                assert status == 200
                assert payload["class"]["short_name"] == "IAP-IV"
            status, ready = get_json(url + "/v1/readyz")
            assert status == 200
            assert ready["fleet"]["workers"] == 2
            pids = {member["pid"] for member in ready["fleet"]["members"]}
            assert len(pids) == 2
            assert all("cache" in member for member in ready["fleet"]["members"])
        finally:
            status, stderr = stop(proc)
        assert status == 0
        assert "drained cleanly" in stderr

    def test_metrics_aggregate_across_the_fleet(self):
        proc, url = boot()
        try:
            total = 40
            for _ in range(total):
                assert get_json(url + CLASSIFY)[0] == 200
            with urllib.request.urlopen(url + "/v1/metrics", timeout=10.0) as response:
                text = response.read().decode()
            for line in text.splitlines():
                if line.startswith("repro_serve_requests_total "):
                    fleet_requests = float(line.split()[1])
                    break
            else:  # pragma: no cover - assertion path
                raise AssertionError("repro_serve_requests_total missing")
            # One worker alone cannot have seen all requests unless the
            # exposition merged its sibling's counters (the scrape and
            # the traffic split across two processes).
            assert fleet_requests >= total
        finally:
            stop(proc)

    def test_batch_posts_work_against_the_fleet(self):
        proc, url = boot()
        try:
            body = json.dumps(
                {"items": [{"class": "IAP-IV", "n": n} for n in (4, 16)]}
            ).encode()
            request = urllib.request.Request(
                url + "/v1/costs", data=body, method="POST",
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=10.0) as response:
                payload = json.loads(response.read())
            assert payload["count"] == 2
            assert payload["errors"] == 0
        finally:
            stop(proc)

    def test_sigterm_under_load_drains_cleanly(self):
        proc, url = boot()
        stop_flag = threading.Event()
        statuses = []

        def hammer():
            while not stop_flag.is_set():
                try:
                    with urllib.request.urlopen(url + CLASSIFY, timeout=10.0) as r:
                        statuses.append(r.status)
                except urllib.error.HTTPError as error:
                    statuses.append(error.code)
                except (urllib.error.URLError, ConnectionError, socket.timeout):
                    return  # listener went away mid-drain: expected

        threads = [threading.Thread(target=hammer, daemon=True) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(50):
                if len(statuses) >= 20:
                    break
                threading.Event().wait(0.05)
            status, stderr = stop(proc)
        finally:
            stop_flag.set()
            for thread in threads:
                thread.join(10.0)
        assert status == 0
        assert "drained cleanly" in stderr
        assert statuses and set(statuses) <= {200, 503}

    def test_a_respawn_that_cannot_start_gives_up_its_slot(self, tmp_path):
        """A worker killed after start-up is respawned; if the respawn
        cannot start, the parent gives up the slot instead of looping."""
        jobs_dir = tmp_path / "jobs"
        proc, url = boot("--jobs-dir", str(jobs_dir))
        lines = []
        try:
            _, ready = get_json(url + "/v1/readyz")
            victim = ready["fleet"]["members"][0]["pid"]
            shutil.rmtree(jobs_dir)
            jobs_dir.write_text("")  # a respawned worker cannot open its jobs dir
            os.kill(victim, signal.SIGKILL)

            def read_until_given_up():
                for line in proc.stderr:
                    lines.append(line)
                    if "giving up" in line:
                        return

            reader = threading.Thread(target=read_until_given_up, daemon=True)
            reader.start()
            reader.join(30.0)
            assert not reader.is_alive()
        finally:
            status, stderr = stop(proc)
        assert status == 1
        assert lines[-1].startswith("worker slot ")
        assert "failed to restart" in lines[-1] and "Not a directory" in lines[-1]
        assert "respawned as" not in "".join(lines) + stderr

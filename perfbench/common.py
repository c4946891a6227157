"""Shared plumbing: checkout paths, seeds, statistics, spans, the server
process and a minimal keep-alive HTTP/1.1 client.

Everything here is standard library. The program under test is only
reached from outside (subprocesses and sockets) or, for the per-layer
numbers, through its public functions imported from ``src/``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import selectors
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Iterator

#: The checkout the benchmark runs in (the parent of this directory).
ROOT = Path(__file__).resolve().parent.parent
#: The program's source tree; the only thing put on child ``PYTHONPATH``.
SRC = ROOT / "src"
#: Scratch space for server job stores and CLI working directories.
WORK = ROOT / ".perfbench_work"
#: Where each run's full report (stamps, phases, spans) is written.
OUT = ROOT / ".perfbench_out"

#: Client-side socket timeout. A failed request enters the latency
#: percentiles at this value, which exceeds every latency limit.
REQUEST_TIMEOUT_S = 10.0


def have_program() -> bool:
    """True when the checkout holds the program's source tree."""
    return (SRC / "repro" / "cli.py").is_file() and (SRC / "repro" / "serve").is_dir()


def import_program() -> None:
    """Make ``import repro`` resolve to the checkout's ``src/``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for program subprocesses: the checkout's ``src`` first."""
    env = dict(os.environ)
    previous = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + previous if previous else "")
    for name in ("PYTHONSTARTUP", "PYTHONINSPECT", "PYTHONPROFILEIMPORTTIME"):
        env.pop(name, None)
    return env


def derive(seed: int, *labels: Any) -> int:
    """A 63-bit seed derived from the workload seed and a label path."""
    text = ":".join([str(seed)] + [str(label) for label in labels])
    return int(hashlib.sha256(text.encode("utf-8")).hexdigest()[:16], 16) >> 1


# -- statistics ----------------------------------------------------------


def median(values: "list[float]") -> float:
    """The median; raises on an empty sample (a metric must be measured)."""
    if not values:
        raise ValueError("no samples")
    return float(statistics.median(values))


def percentile(values: "list[float]", q: float) -> float:
    """Nearest-rank percentile ``q`` (0..100) of ``values``."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, min(len(ordered), int(-(-q * len(ordered) // 100))))
    return float(ordered[rank - 1])


# -- spans ---------------------------------------------------------------


class Tracer:
    """In-memory spans (name, start, end, parent), written at the end.

    Disabled tracers record nothing; :meth:`span` then costs one branch.
    Times are ``perf_counter`` seconds; :meth:`add` accepts wall-clock
    (``time.time``) stamps, e.g. from a job journal, and maps them onto
    the same base.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict[str, Any]] = []
        #: Ids of the open spans, innermost last.
        self._stack: list[int] = []
        self._wall_offset = time.time() - time.perf_counter()

    def add(
        self,
        name: str,
        start: float,
        end: float,
        *,
        parent: "int | None" = None,
        wall: bool = False,
        **attrs: Any,
    ) -> int:
        """Record a finished span; returns its id (-1 when disabled)."""
        if not self.enabled:
            return -1
        if wall:
            start -= self._wall_offset
            end -= self._wall_offset
        if parent is None and self._stack:
            parent = self._stack[-1]
        span_id = len(self.spans)
        self.spans.append(
            {"id": span_id, "parent": parent, "name": name, "start": start, "end": end, **attrs}
        )
        return span_id

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[int]:
        """Time the block as a child of the innermost open span."""
        if not self.enabled:
            yield -1
            return
        span_id = self.add(name, time.perf_counter(), 0.0, **attrs)
        self._stack.append(span_id)
        try:
            yield span_id
        finally:
            self._stack.pop()
            self.spans[span_id]["end"] = time.perf_counter()

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name (duration minus covered children)."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append((span["start"], span["end"]))
        totals: dict[str, float] = {}
        for span in self.spans:
            covered, cursor = 0.0, span["start"]
            for start, end in sorted(children.get(span["id"], [])):
                start, end = max(start, cursor), min(end, span["end"])
                if end > start:
                    covered += end - start
                    cursor = end
            own = max(span["end"] - span["start"] - covered, 0.0)
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
        return totals

    def span_cost_s(self, repeats: int = 20000) -> float:
        """Measured cost of recording one span, in seconds."""
        probe = Tracer(True)
        started = time.perf_counter()
        for _ in range(repeats):
            with probe.span("probe"):
                pass
        return (time.perf_counter() - started) / repeats


# -- the server under test -----------------------------------------------


class Server:
    """One ``python -m repro.serve`` child on an ephemeral port."""

    def __init__(self, *extra: str, cwd: Path, log: Path):
        self.started = time.perf_counter()
        self._log = open(log, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--port", "0", *extra],
            cwd=cwd,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._log,
        )
        try:
            self.port = self._read_port(deadline=self.started + 60.0)
            self._await_ready(deadline=self.started + 60.0)
        except BaseException:
            self.stop()
            raise
        #: Spawn to the first ``200`` from ``/v1/readyz``.
        self.setup_s = time.perf_counter() - self.started

    def _read_port(self, *, deadline: float) -> int:
        assert self.proc.stdout is not None
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            buffered = b""
            while b"\n" not in buffered:
                remaining = deadline - time.perf_counter()
                if remaining <= 0 or not selector.select(remaining):
                    raise RuntimeError("server did not announce its port")
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    raise RuntimeError(f"server exited early ({self.proc.wait()})")
                buffered += chunk
        line = buffered.split(b"\n", 1)[0].decode("utf-8").strip()
        if not line.startswith("listening on http://"):
            raise RuntimeError(f"unexpected server banner: {line!r}")
        return int(line.rsplit(":", 1)[1])

    def _await_ready(self, *, deadline: float) -> None:
        while True:
            try:
                with HttpClient(self.port, timeout=5.0) as client:
                    status, _ = client.request("GET", "/v1/readyz")
                if status == 200:
                    return
            except OSError:
                pass
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited during start-up ({self.proc.returncode})")
            if time.perf_counter() > deadline:
                raise RuntimeError("server never became ready")
            time.sleep(0.002)

    def stop(self) -> int:
        """SIGTERM, wait for the drain; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()
        return self.proc.returncode


# -- a minimal keep-alive HTTP/1.1 client --------------------------------


class HttpClient:
    """One persistent connection; reconnects when the server closes it.

    Hand-rolled because ``http.client`` doubles the client's share of a
    cached GET: on the reference box a closed loop of cache hits took a
    median 0.36 ms per request through ``http.client.HTTPConnection``
    and 0.19 ms through this client (8 alternating sets of 500 requests),
    a difference of about half of ``serve.single_p50_ms``. A request is
    one ``sendall`` of pre-built bytes, a response is a status line,
    headers and a ``Content-Length`` body.
    """

    def __init__(self, port: int, *, timeout: float = REQUEST_TIMEOUT_S):
        self.port = port
        self.timeout = timeout
        self._sock: "socket.socket | None" = None
        self._file: Any = None
        #: Connections opened (the first plus every reconnect).
        self.connects = 0

    def __enter__(self) -> "HttpClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
        if self._sock is not None:
            self._sock.close()
        self._sock = self._file = None

    def ensure_connected(self) -> None:
        """Open the connection now (e.g. after the server closed it) so the
        next request does not pay for the handshake."""
        if self._sock is None:
            self._connect()

    def _connect(self) -> None:
        sock = socket.create_connection(("127.0.0.1", self.port), timeout=self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock, self._file = sock, sock.makefile("rb")
        self.connects += 1

    @staticmethod
    def encode(method: str, target: str, body: bytes = b"") -> bytes:
        """The request bytes for ``method target`` with an optional JSON body."""
        head = f"{method} {target} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        if body or method == "POST":
            head += f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        return (head + "\r\n").encode("ascii") + body

    def request(self, method: str, target: str, body: bytes = b"") -> tuple[int, bytes]:
        """Send one request; returns ``(status, body)``."""
        return self.send(self.encode(method, target, body))

    def send(self, raw: bytes) -> tuple[int, bytes]:
        """Send pre-encoded request bytes; returns ``(status, body)``."""
        reused = self._sock is not None
        if not reused:
            self._connect()
        try:
            self._sock.sendall(raw)
            status_line = self._file.readline()
            if not status_line and reused:
                raise ConnectionResetError("keep-alive connection closed by server")
        except (BrokenPipeError, ConnectionResetError):
            if not reused:
                raise
            # The server closed an idle keep-alive connection: retry once.
            self.close()
            self._connect()
            self._sock.sendall(raw)
            status_line = self._file.readline()
        parts = status_line.split(None, 2)
        if len(parts) < 2:
            self.close()
            raise ConnectionError(f"malformed status line {status_line!r}")
        status = int(parts[1])
        length, close = 0, False
        while True:
            line = self._file.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            name = name.strip().lower()
            if name == b"content-length":
                length = int(value)
            elif name == b"connection" and value.strip().lower() == b"close":
                close = True
        body = self._file.read(length) if length else b""
        if len(body) != length:
            self.close()
            raise ConnectionError("truncated response body")
        if close:
            self.close()
        return status, body


# -- stamps --------------------------------------------------------------


def stamps(seed: int) -> dict[str, Any]:
    """What a result must carry to be comparable with another."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "none (not a git checkout)"
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode("utf-8"))
        digest.update(path.read_bytes())
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a program dependency
        numpy_version = "missing"
    return {
        "seed": seed,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def write_report(path: Path, report: dict[str, Any]) -> None:
    """Write one run's full report as JSON."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")

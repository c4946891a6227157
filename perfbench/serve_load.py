"""The ``serve`` part: one server, three traffic phases, run once per cycle.

* ``single`` — open loop of cacheable GETs on one keep-alive connection,
  each timed from its due time;
* ``batch`` — closed loop on one connection posting 256-item
  ``/v1/classify`` bodies cycled from 32 768 distinct signatures, so
  the response cache never hits;
* ``mixed`` — the single stream at a lower rate next to the batch stream.

``/v1/metrics`` is read between phases for cache and admission deltas.
The traced run replays the batch bodies in-process through the serve
layers' public functions.
"""

from __future__ import annotations

import gc
import itertools
import json
import random
import threading
import time
from pathlib import Path
from typing import Any, Iterator
from urllib.parse import parse_qsl, urlsplit

from common import (
    REQUEST_TIMEOUT_S, HttpClient, Server, Tracer, derive, import_program, median, percentile,
)
import inputs

#: Open-loop request rates (requests/s) of the single stream.
SINGLE_RATE = 500.0
#: Next to a batch a hit waits ~6 ms for the server's interpreter lock;
#: 50/s keeps that stream well below saturation on a slow machine.
MIXED_RATE = 50.0
#: The generator sleeps until this long before a due time, then yields in
#: a loop: a sleeping thread can wake milliseconds late on a virtual CPU.
SPIN_S = 0.001
#: Items checked per batch response against the in-process classifier.
SAMPLED_ITEMS = 4
#: Distinct single keys checked against an in-process handler per run.
SAMPLED_KEYS = 24


def _scrape(port: int) -> dict[str, float]:
    """``/v1/metrics`` as ``{series: value}``."""
    with HttpClient(port) as client:
        status, body = client.request("GET", "/v1/metrics")
    if status != 200:
        raise RuntimeError(f"/v1/metrics answered {status}")
    series = {}
    for line in body.decode("utf-8").splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            series[name] = float(value)
    return series


def _delta(before: dict[str, float], after: dict[str, float]) -> dict[str, float]:
    return {name: value - before.get(name, 0.0) for name, value in after.items()}


def _hist_p50_ms(delta: dict[str, float], name: str = "repro_serve_request_s") -> float:
    """Median of a histogram delta, interpolated inside its bucket."""
    buckets = sorted(
        (float(key.split('le="')[1].rstrip('"}')), value)
        for key, value in delta.items()
        if key.startswith(name + "_bucket") and "+Inf" not in key
    )
    total = delta.get(name + "_count", 0.0)
    if total <= 0:
        return 0.0
    rank, lower, previous = total / 2.0, 0.0, 0.0
    for bound, cumulative in buckets:
        if cumulative >= rank:
            share = (rank - previous) / max(cumulative - previous, 1e-12)
            return (lower + share * (bound - lower)) * 1e3
        lower, previous = bound, cumulative
    return lower * 1e3


def _hit_rate(delta: dict[str, float]) -> float:
    hits = delta.get("repro_serve_cache_hits_total", 0.0)
    lookups = hits + delta.get("repro_serve_cache_misses_total", 0.0)
    return hits / lookups if lookups else 0.0


class _Stream:
    """Outcome of one request stream: latencies, lateness, failures."""

    def __init__(self) -> None:
        self.latency_s: list[float] = []
        #: How late the generator woke for a due request it was idle for.
        self.lag_s: list[float] = [0.0]
        #: Requests whose due time passed while the previous one was in flight.
        self.queued = 0
        self.attempted = 0
        self.failed = 0
        self.items = 0
        self.errors: list[str] = []
        self.responses: list[tuple[int, bytes]] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def summary(self) -> dict[str, Any]:
        return {"attempted": self.attempted, "failed": self.failed, "queued": self.queued,
                "errors": self.errors}


def _open_loop(
    client: HttpClient, requests: list[bytes], keys: list[int], rate: float,
    reference: dict[int, bytes], stream: _Stream, stop: "threading.Event | None" = None,
) -> None:
    """Send ``requests[keys[i]]`` at ``start + i / rate``; time from due time."""
    start = time.perf_counter() + 0.01
    for i, key in enumerate(keys):
        due = start + i / rate
        delay = due - time.perf_counter()
        if delay > 0:
            if delay > SPIN_S:
                time.sleep(delay - SPIN_S)
            while time.perf_counter() < due:
                time.sleep(0)
            stream.lag_s.append(time.perf_counter() - due)
        else:
            stream.queued += 1
        stream.attempted += 1
        try:
            status, body = client.send(requests[key])
        except OSError as error:
            client.close()
            stream.latency_s.append(REQUEST_TIMEOUT_S)
            stream.fail(f"transport: {error!r}")
            continue
        if status != 200 or reference.setdefault(key, body) != body:
            stream.latency_s.append(REQUEST_TIMEOUT_S)
            stream.fail(f"key {key}: status {status} or body differs from its first response")
            continue
        stream.latency_s.append(time.perf_counter() - due)
        # The server closes a connection after its keep-alive budget; a
        # pooled client reconnects while idle, not on the next request.
        client.ensure_connected()
    if stop is not None:
        stop.set()


def _closed_batch(
    client: HttpClient, bodies: list[bytes], cycle: "Iterator[int]", stream: _Stream,
    stop_at: "float | None", stop: "threading.Event | None" = None,
) -> None:
    """Post batch bodies back to back until ``stop_at`` or ``stop``."""
    while not (stop is not None and stop.is_set()) and not (
        stop_at is not None and time.perf_counter() >= stop_at
    ):
        index = next(cycle) % len(bodies)
        stream.attempted += 1
        started = time.perf_counter()
        try:
            status, body = client.send(bodies[index])
        except OSError as error:
            client.close()
            stream.fail(f"transport: {error!r}")
            continue
        stream.latency_s.append(time.perf_counter() - started)
        if status != 200:
            stream.fail(f"batch {index}: status {status}")
        else:
            stream.items += inputs.BATCH_ITEMS
            stream.responses.append((index, body))


class Traffic:
    """One server; each :meth:`cycle` runs the three phases once."""

    def __init__(self, seed: int, workload: str, cwd: Path, tracer: Tracer):
        self._seed = seed
        self._tracer = tracer
        self.targets, self._weights = inputs.single_keys(seed, workload)
        self._singles = [HttpClient.encode("GET", target) for target in self.targets]
        self.bodies = inputs.batch_bodies(seed)
        self._batches = [HttpClient.encode("POST", "/v1/classify", body) for body in self.bodies]
        # One cycle through the bodies, continued by every batch stream.
        self._cycle = itertools.count()
        self.reference: dict[int, bytes] = {}
        self._warm = workload == "cache-fit"
        self.streams = {name: _Stream() for name in ("warmup", "single", "batch", "mixed", "mixed_batch")}
        self.deltas: dict[str, dict[str, float]] = {name: {} for name in ("single", "batch", "mixed")}
        self.batch_s = 0.0
        self.cycles = 0
        self.server = Server(cwd=cwd, log=cwd / "serve-server.log")
        self._single = HttpClient(self.server.port)
        self._heavy = HttpClient(self.server.port)

    def _phase(self, name: str, run: Any) -> None:
        before = _scrape(self.server.port)
        with self._tracer.span("serve.phase", phase=name):
            run()
        totals = self.deltas[name]
        for series, value in _delta(before, _scrape(self.server.port)).items():
            totals[series] = totals.get(series, 0.0) + value

    def cycle(self, seconds: dict[str, float]) -> None:
        """Run the three phases once, in order, for ``seconds[phase]`` each.

        On ``cache-fit`` every single key is sent once first (untimed):
        the batch items of the previous cycle have evicted them.
        """
        cycle, self.cycles = self.cycles, self.cycles + 1
        # Fresh connections: idle ones may have been closed by the server.
        for client in (self._single, self._heavy):
            client.close()
            client.ensure_connected()
        # A collector pause in this process would read as server latency.
        gc.collect()
        gc.disable()
        try:
            if self._warm:
                with self._tracer.span("serve.warmup"):
                    _open_loop(self._single, self._singles, list(range(len(self.targets))),
                               SINGLE_RATE * 4, self.reference, self.streams["warmup"])
            keys = inputs.key_schedule(self._seed, f"single-{cycle}", self._weights,
                                       int(SINGLE_RATE * seconds["single"]))
            self._phase("single", lambda: _open_loop(
                self._single, self._singles, keys, SINGLE_RATE, self.reference,
                self.streams["single"]))

            def batch() -> None:
                started = time.perf_counter()
                _closed_batch(self._heavy, self._batches, self._cycle, self.streams["batch"],
                              started + seconds["batch"])
                self.batch_s += time.perf_counter() - started

            self._phase("batch", batch)
            keys = inputs.key_schedule(self._seed, f"mixed-{cycle}", self._weights,
                                       int(MIXED_RATE * seconds["mixed"]))
            self._phase("mixed", lambda: self._mixed(keys))
        finally:
            gc.enable()

    def _mixed(self, keys: list[int]) -> None:
        stop = threading.Event()
        thread = threading.Thread(
            target=_closed_batch, name="batch-stream",
            args=(self._heavy, self._batches, self._cycle, self.streams["mixed_batch"], None, stop),
        )
        thread.start()
        try:
            _open_loop(self._single, self._singles, keys, MIXED_RATE, self.reference,
                       self.streams["mixed"], stop)
        finally:
            stop.set()
            thread.join(REQUEST_TIMEOUT_S * 2)
        if thread.is_alive():
            raise RuntimeError("the mixed-phase batch stream did not finish")

    def close(self) -> int:
        """Close the connections and stop the server; its exit code."""
        self._single.close()
        self._heavy.close()
        return self.server.stop()

    def result(self, exit_code: int) -> dict[str, Any]:
        return {
            "setup_s": self.server.setup_s,
            "exit_code": exit_code,
            "phases": {
                name: {**stream.summary(), "stream": stream, "metrics_delta": self.deltas.get(name, {})}
                for name, stream in self.streams.items()
                if stream.attempted or name != "warmup"
            },
            "batch_s": self.batch_s,
            "targets": self.targets,
            "reference": self.reference,
            "bodies": self.bodies,
        }


def verify(part: dict[str, Any], seed: int) -> tuple[bool, list[str]]:
    """Batch responses: count, errors and sampled classes. Singles: sampled
    keys against the in-process handler. Server: clean exit."""
    import_program()
    from repro.core.classify import canonical_class
    from repro.core.signature import make_signature
    from repro.serve.router import Request, TaxonomyService
    from repro.serve.validation import stable_json

    errors: list[str] = []
    if part["exit_code"] != 0:
        errors.append(f"serve server exited {part['exit_code']}")
    items_by_body = [json.loads(body)["items"] for body in part["bodies"]]
    rng = random.Random(derive(seed, "verify-batch"))
    for phase in ("batch", "mixed_batch"):
        for index, body in part["phases"][phase]["stream"].responses:
            payload = json.loads(body)
            if payload.get("count") != inputs.BATCH_ITEMS or payload.get("errors") != 0:
                errors.append(f"{phase} body {index}: count/errors {payload.get('count')}/{payload.get('errors')}")
                continue
            for row in rng.sample(range(inputs.BATCH_ITEMS), SAMPLED_ITEMS):
                item = items_by_body[index][row]
                signature = make_signature(
                    item["ips"], item["dps"],
                    **{key.replace("-", "_"): item.get(key) for key in
                       ("ip-ip", "ip-dp", "ip-im", "dp-dm", "dp-dp")},
                )
                expected = canonical_class(signature).serial
                if payload["results"][row]["class"]["serial"] != expected:
                    errors.append(f"{phase} body {index} item {row}: class differs")
    service = TaxonomyService()
    seen = sorted(part["reference"])
    for key in random.Random(derive(seed, "verify-single")).sample(seen, min(SAMPLED_KEYS, len(seen))):
        split = urlsplit(part["targets"][key])
        response = service.router.handle(Request.get(split.path, dict(parse_qsl(split.query))))
        if stable_json(response.payload) != part["reference"][key]:
            errors.append(f"single key {part['targets'][key]}: body differs from in-process")
    return not errors, errors


def end_to_end(part: dict[str, Any]) -> dict[str, float]:
    phases = part["phases"]
    single, mixed = phases["single"]["stream"], phases["mixed"]["stream"]
    batch = phases["batch"]
    return {
        "serve.single_p50_ms": percentile(single.latency_s, 50) * 1e3,
        "serve.single_p99_ms": percentile(single.latency_s, 99) * 1e3,
        "serve.batch_items_per_s": batch["stream"].items / part["batch_s"],
        "serve.mixed_single_p50_ms": percentile(mixed.latency_s, 50) * 1e3,
        "serve.mixed_single_p99_ms": percentile(mixed.latency_s, 99) * 1e3,
    }


def latency_profile(part: dict[str, Any]) -> dict[str, dict[str, float]]:
    """Latency percentiles (ms) of every open-loop stream, for the report."""
    return {
        name: {f"p{q:g}": percentile(part["phases"][name]["stream"].latency_s, q) * 1e3
               for q in (50, 90, 95, 99, 99.9)}
        for name in ("single", "mixed")
    }


def phase_metrics(part: dict[str, Any]) -> dict[str, float]:
    """Cache, admission and generator-lateness numbers per phase."""
    phases = part["phases"]
    deltas = {name: phases[name]["metrics_delta"] for name in ("single", "batch", "mixed")}
    totals: dict[str, float] = {}
    for delta in deltas.values():
        for name in ("repro_serve_rejected_total", "repro_serve_timeouts_total"):
            totals[name] = totals.get(name, 0.0) + delta.get(name, 0.0)
    single_delta = deltas["single"]
    requests = single_delta.get("repro_serve_request_s_count", 0.0)
    metrics = {
        "serve.cache_hit_rate.single": _hit_rate(deltas["single"]),
        "serve.cache_hit_rate.batch": _hit_rate(deltas["batch"]),
        # Batch items never hit, so every hit in the mixed phase is a single.
        "serve.cache_hit_rate.mixed_single": (
            deltas["mixed"].get("repro_serve_cache_hits_total", 0.0)
            / max(phases["mixed"]["stream"].attempted, 1)
        ),
        "serve.server_request_p50_ms": _hist_p50_ms(single_delta),
        "serve.server_request_mean_ms": (
            single_delta.get("repro_serve_request_s_sum", 0.0) / requests * 1e3 if requests else 0.0
        ),
        "serve.rejected": totals["repro_serve_rejected_total"],
        "serve.timeouts": totals["repro_serve_timeouts_total"],
    }
    for name in ("single", "mixed"):
        lag = phases[name]["stream"].lag_s
        metrics[f"serve.{name}_send_lag_p99_ms"] = percentile(lag, 99) * 1e3
        metrics[f"serve.{name}_send_lag_max_ms"] = max(lag) * 1e3
    return metrics


def probe_layers(part: dict[str, Any], tracer: Tracer, bodies_used: int = 12) -> dict[str, float]:
    """Replay batch bodies in-process through the serve layers.

    Stages are timed one at a time on the same bodies: body parse, item
    validation into signatures, columnar build, kernel, payload
    rendering and JSON encoding. Whole-request ``ServiceApp.dispatch``
    (no socket) is timed on other bodies, so its cache never hits.
    """
    import_program()
    from repro.core import batch as kernel
    from repro.serve.router import Request
    from repro.serve.server import ServerConfig, ServiceApp
    from repro.serve.validation import parse_body, stable_json

    app = ServiceApp(ServerConfig(port=0, workers=1))
    service = app.service
    stage = {name: 0.0 for name in ("parse", "signature", "from_signatures", "classify", "payload", "json")}
    items = dispatched = 0
    dispatch_s = 0.0
    hit_s: list[float] = []
    try:
        for body in part["bodies"][:bodies_used]:
            with tracer.span("serve.replay"):
                t0 = time.perf_counter()
                with tracer.span("serve.parse"):
                    _, raw_items = parse_body(body)
                    t1 = time.perf_counter()
                    signatures = [
                        service.parse_classify_request(Request("POST", "/v1/classify", item))
                        for item in raw_items
                    ]
                t2 = time.perf_counter()
                with tracer.span("serve.kernel"):
                    columns = kernel.SignatureBatch.from_signatures(signatures)
                    t3 = time.perf_counter()
                    classified = kernel.classify_batch(columns)
                t4 = time.perf_counter()
                with tracer.span("serve.payload"):
                    results = [
                        service.classify_payload(sig, classified.classification(row, sig))
                        for row, sig in enumerate(signatures)
                    ]
                t5 = time.perf_counter()
                with tracer.span("serve.json"):
                    stable_json({"count": len(results), "errors": 0, "results": results})
                t6 = time.perf_counter()
            for name, span in zip(stage, (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4, t6 - t5)):
                stage[name] += span
            items += len(signatures)
        for body in part["bodies"][bodies_used:2 * bodies_used]:
            with tracer.span("serve.dispatch"):
                t0 = time.perf_counter()
                response = app.dispatch("POST", "/v1/classify", body)
                dispatch_s += time.perf_counter() - t0
            if response.status != 200:
                raise RuntimeError(f"in-process dispatch answered {response.status}")
            dispatched += inputs.BATCH_ITEMS
        target = part["targets"][0]
        app.dispatch("GET", target)
        for _ in range(200):
            t0 = time.perf_counter()
            app.dispatch("GET", target)
            hit_s.append(time.perf_counter() - t0)
    finally:
        app.shutdown(drain_s=1.0)
    return {
        "serve.parse_body_us_per_item": stage["parse"] / items * 1e6,
        "serve.signature_us_per_item": stage["signature"] / items * 1e6,
        "batch.from_signatures_us_per_row": stage["from_signatures"] / items * 1e6,
        "batch.classify_us_per_row": stage["classify"] / items * 1e6,
        "serve.classify_payload_us_per_item": stage["payload"] / items * 1e6,
        "serve.stable_json_us_per_item": stage["json"] / items * 1e6,
        "serve.dispatch_us_per_item": dispatch_s / dispatched * 1e6,
        "serve.dispatch_hit_us": median(hit_s) * 1e6,
    }

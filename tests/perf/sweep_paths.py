"""The two ways a sweep gets run, for parametrizing engine contracts.

* ``serial`` — on the main thread: the plain loop, with ``SIGALRM``
  deadlines;
* ``thread`` — called off the main thread, the way a job runner calls
  it: the plain loop, with watchdog-thread deadlines.
"""

import threading

from repro.perf import sweep

PATHS = ("serial", "thread")


def on_thread(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` on a fresh worker thread; its result or exception."""
    outcome = []

    def _runner():
        try:
            outcome.append(("value", fn(*args, **kwargs)))
        except BaseException as exc:  # noqa: BLE001 - relayed to the caller
            outcome.append(("error", exc))

    runner = threading.Thread(target=_runner)
    runner.start()
    runner.join(60)
    assert not runner.is_alive(), f"{fn.__name__} did not finish on a worker thread"
    kind, payload = outcome[0]
    if kind == "error":
        raise payload
    return payload


def sweep_on(path, fn, points, **kwargs):
    """``sweep(fn, points, ...)`` along ``path``."""
    if path == "serial":
        return sweep(fn, points, **kwargs)
    return on_thread(sweep, fn, points, **kwargs)

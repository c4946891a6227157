"""Suite-wide hang guard.

``pyproject.toml`` caps every test at ``timeout`` seconds. pytest-timeout
enforces that where it is installed; everywhere else this watchdog does,
with :func:`faulthandler.dump_traceback_later`: a test still running at
the cap dumps every thread's stack to the real stderr and ends the run,
so a hung socket test fails loudly instead of blocking forever.
"""

import contextlib
import faulthandler
import os

import pytest

#: ``(seconds, stream)`` while the watchdog is armed for this test run.
_WATCHDOG = pytest.StashKey["tuple[float, object] | None"]()

_CAPS = {
    "timeout": "per-test wall-clock cap in seconds",
    "timeout_method": "how pytest-timeout interrupts a test",
}


def pytest_addoption(parser, pluginmanager):
    """Declare pytest-timeout's ini keys when the plugin is absent."""
    if not pluginmanager.hasplugin("timeout"):
        for name, help_text in _CAPS.items():
            parser.addini(name, help_text, default="")


def pytest_configure(config):
    """Open the stream the watchdog dumps to, past pytest's capture."""
    config.stash[_WATCHDOG] = None
    if config.pluginmanager.hasplugin("timeout"):
        return
    seconds = float(config.getini("timeout") or 0)
    if seconds <= 0:
        return
    # Captured output is lost when faulthandler exits the process, so
    # the dump goes to a duplicate of the stderr pytest started with.
    capture = config.pluginmanager.getplugin("capturemanager")
    with capture.global_and_fixture_disabled() if capture else contextlib.nullcontext():
        stream = os.fdopen(os.dup(2), "w")
    config.stash[_WATCHDOG] = (seconds, stream)


def pytest_unconfigure(config):
    """Close the watchdog's stream."""
    watchdog = config.stash.get(_WATCHDOG, None)
    if watchdog is not None:
        watchdog[1].close()


@pytest.hookimpl(wrapper=True)
def pytest_runtest_protocol(item):
    """Arm the watchdog for one test's setup, call and teardown."""
    watchdog = item.config.stash[_WATCHDOG]
    if watchdog is None:
        return (yield)
    seconds, stream = watchdog
    faulthandler.dump_traceback_later(seconds, exit=True, file=stream)
    try:
        return (yield)
    finally:
        faulthandler.cancel_dump_traceback_later()

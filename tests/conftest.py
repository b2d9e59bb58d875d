"""A stdlib watchdog: no test can hang the suite.

Each test arms `faulthandler.dump_traceback_later`; a test still running
after WATCHDOG_S seconds ends the process with every thread's traceback,
so a loop that never ends fails the run instead of stalling it.  The bound
sits far above the slowest test (about 6 s), so it never cuts a healthy run.
"""

import faulthandler
import os

import pytest

WATCHDOG_S = 120


@pytest.fixture(scope="session")
def _stderr_fd(pytestconfig):
    """A descriptor of the real stderr, taken while output capture is off,
    so that the dump is seen rather than captured with the dying test."""
    capman = pytestconfig.pluginmanager.getplugin("capturemanager")
    if capman is None:
        fd = os.dup(2)
    else:
        with capman.global_and_fixture_disabled():
            fd = os.dup(2)
    yield fd
    os.close(fd)


@pytest.fixture(autouse=True)
def _watchdog(_stderr_fd):
    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True, file=_stderr_fd)
    yield
    faulthandler.cancel_dump_traceback_later()

"""Shared fixtures: a per-test time limit for the whole suite, with the
standard library only, and ``quadric_mutant``.

A test that runs past ``TEST_TIME_LIMIT_S`` dumps every thread's traceback
to the terminal and ends the run, so a hang (say, a Groebner engine that
loses exactness and never terminates) fails instead of blocking.  The
slowest test takes about 6 s, so the limit sits far above any honest run.
"""

import faulthandler
import os
import sys

import pytest

TEST_TIME_LIMIT_S = 120

_stderr_fd = None


def pytest_configure(config):
    # output capture takes over fd 2 while a test runs; keep a copy of the
    # terminal's stderr, taken before capture starts, for the traceback
    global _stderr_fd
    _stderr_fd = os.dup(sys.stderr.fileno())


@pytest.fixture(autouse=True)
def _time_limit():
    faulthandler.dump_traceback_later(TEST_TIME_LIMIT_S, exit=True,
                                      file=_stderr_fd)
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def quadric_mutant(monkeypatch):
    """Installs a replacement for ``commalg._quadric_ideal``.  The quadric
    ideal J is cached per Cartan matrix, so its cache is cleared when the
    replacement is installed, for the run to build its J, and when the
    test ends, for no later test to read it."""
    from petcoh import commalg

    def install(builder):
        monkeypatch.setattr(commalg, "_quadric_ideal", builder)
        commalg.build_ideal_J.cache_clear()

    yield install
    commalg.build_ideal_J.cache_clear()

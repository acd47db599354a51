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
    ideals are cached per Cartan matrix, so the caches are cleared when the
    replacement is installed, for the run to build its ideals, and when the
    test ends, for no later test to read them."""
    from petcoh import commalg

    def clear():
        commalg.build_ideal_J.cache_clear()
        commalg.build_ideal_Jcheck.cache_clear()

    def install(builder):
        monkeypatch.setattr(commalg, "_quadric_ideal", builder)
        clear()

    yield install
    clear()

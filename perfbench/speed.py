"""Machine-speed normalisation by a co-sampled probe.

A shared host changes speed by up to ±30 % in spells that last from under a
second to minutes, and CPU time moves with wall time, so raw wall times of
the same code spread wider than any useful bound.  While a timed section
runs, an interval timer interrupts it every ``PERIOD_S`` and runs a small,
fixed probe of object-heavy Python work (tuples, a dict, Fractions, a sort),
timing each call.  The probe shares every spell with the code it interrupts,
so

    reference_s = sum over 1 s segments of
                  (wall time - probe time) * REF_PROBE_S / mean probe time

is the section's time on a machine where the probe takes ``REF_PROBE_S``.
On a 2-vCPU shared VM, medians of a 0.5 s section over 20 s windows spread
26 % (IQR/median) raw and 2 % normalised.

The probe runs with the garbage collector paused, so a collection that the
section's heap is due for is never charged to the probe; its objects are
freed before it returns, so it does not move the collector's schedule.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

PERIOD_S = 0.01
# about the probe's time on the reference VM (Intel Xeon, Python 3.11) when
# no other tenant contends for its core; a fixed constant, so it only sets
# the scale of reference seconds
REF_PROBE_S = 200e-6
WARMUP = 20
SEGMENT_S = 1.0
# fewest probes that set the speed of a segment
MIN_PROBES = 8


def probe():
    table = {}
    for i in range(60):
        key = (i, i * 7 % 13, i >> 2)
        table[key] = table.get(key, Fraction(0)) + Fraction(i, 3)
    return sorted(table.items())


class SpeedProbe:
    """Context manager timing a section in wall and reference seconds.

    The section is cut into segments of ``SEGMENT_S``; each segment's wall
    time is scaled by the mean of its own probes, since work done is wall
    time times speed, and speed changes from one segment to the next.
    """

    def __init__(self):
        self.wall_s = 0.0
        self.reference_s = 0.0
        self.probe_s = 0.0
        self.probes = 0
        self._segment_probe_s = 0.0
        self._segment_probes = 0

    def _time_probe(self):
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        probe()
        end = time.perf_counter()
        if enabled:
            gc.enable()
        self._segment_probe_s += end - start
        self._segment_probes += 1
        return end

    def _tick(self, *_):
        now = self._time_probe()
        if now - self._segment_start >= SEGMENT_S:
            self._close_segment(now - self._segment_start - self._segment_probe_s)
            self._segment_start = now

    def _close_segment(self, wall_s):
        mean_probe_s = self._segment_probe_s / self._segment_probes
        self.wall_s += wall_s
        self.reference_s += wall_s * REF_PROBE_S / mean_probe_s
        self.probe_s += self._segment_probe_s
        self.probes += self._segment_probes
        self._segment_probe_s = 0.0
        self._segment_probes = 0

    def __enter__(self):
        for _ in range(WARMUP):
            probe()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._segment_start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        wall_s = time.perf_counter() - self._segment_start - self._segment_probe_s
        signal.signal(signal.SIGALRM, self._previous)
        # a short last segment gets its remaining probes right after it
        while self._segment_probes < MIN_PROBES:
            self._time_probe()
        self._close_segment(wall_s)
        return False

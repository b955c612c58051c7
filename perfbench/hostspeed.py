"""Host-speed sampling, to rescale timings taken on a shared host.

On a shared host the same code does not run at one speed.  On a 2-vCPU
virtual machine, a fixed loop alternates between two speeds 1.3-1.4x apart,
switching within seconds and sometimes staying slow for minutes; raw
timings of identical runs spread by about 20% between their quartiles.

``Sampler`` times a fixed pure-Python loop of about 1 ms every 50 ms on a
daemon thread, from the start of the process.  ``rescale`` turns a measured
interval into its length at the host speed where that loop takes
``REFERENCE_S``, using the samples taken during the interval.  The loop runs
no rmtkit code, so a change to rmtkit moves a rescaled time as it moves the
raw one.  The process is pinned to one CPU, so that the loop times the CPU
the ops run on instead of sharing a core with them; it takes that CPU for
about 1 ms in 50, which adds about 2% to every raw time.
"""

import bisect
import statistics
import threading
import time

REFERENCE_S = 0.001
PERIOD_S = 0.05
# samples this far outside an interval still count for it, so that an
# interval shorter than the period has some
MARGIN_S = 0.25
_LOOP = 25_000


def _loop():
    s = 0
    for i in range(_LOOP):
        s += i
    return s


class Sampler:
    def __init__(self):
        self.starts, self.durations = [], []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        while not self._stop.wait(PERIOD_S):
            t0 = time.perf_counter()
            _loop()
            self.durations.append(time.perf_counter() - t0)
            self.starts.append(t0)

    def close(self):
        self._stop.set()
        self._thread.join()

    def rescale(self, t0, t1):
        """Length of [t0, t1] at the host speed where the loop takes
        REFERENCE_S."""
        lo = bisect.bisect_left(self.starts, t0 - MARGIN_S)
        hi = bisect.bisect_right(self.starts, t1 + MARGIN_S)
        loop_s = statistics.fmean(self.durations[lo:hi])
        return (t1 - t0) * REFERENCE_S / loop_s

    def median_loop_s(self):
        return statistics.median(self.durations)

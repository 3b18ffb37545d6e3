"""Machine-speed probe, run inside every measured process.

A shared host disturbs a VM's timings in two ways.  It takes the CPU away
(steal time): wall time grows, but the process's CPU clock does not, since
the guest kernel books stolen time apart.  And other tenants slow the CPU
itself down by up to about 1.9x, flipping between fast and slow within
seconds and staying slow for minutes; that slows CPU time as much as wall
time.  Measured work is therefore timed on the CPU clock, and a fixed piece
of work (a ``Fraction`` sum, the library's kind of arithmetic) is timed on
the same clock every ``INTERVAL_S`` of wall time, from a ``SIGALRM``
handler that runs between the measured process's own bytecodes.  The
probes see the same slowdown as the work around them, so a CPU time divided
by the mean probe CPU time over the same stretch, times ``REF_S``, no
longer depends on how busy the host was.  Probe time is kept apart and
taken off every measured interval: ``clock()`` and ``cpu_clock()`` are wall
and CPU clocks that stop while a probe runs.

The samples are ``(start, cpu seconds)`` pairs, the start on
``time.perf_counter``, which on Linux is ``CLOCK_MONOTONIC`` and so
comparable between processes.
"""

from __future__ import annotations

import bisect
import signal
from fractions import Fraction
from time import perf_counter, process_time

INTERVAL_S = 0.05
# One probe's CPU time on an unloaded host: a 2-vCPU Xeon VM at 2.0 GHz
# with Python 3.11.  Normalised times are in CPU seconds at that speed.
REF_S = 0.0006
_TERMS = 200

samples = []
spent = 0.0
spent_cpu = 0.0


def probe():
    global spent, spent_cpu
    t0, c0 = perf_counter(), process_time()
    s = Fraction(0)
    for i in range(1, _TERMS):
        s += Fraction(1, i)
    used = process_time() - c0
    samples.append((t0, used))
    spent += perf_counter() - t0
    spent_cpu += used


def start():
    probe()
    signal.signal(signal.SIGALRM, lambda signum, frame: probe())
    signal.siginterrupt(signal.SIGALRM, False)  # restart system calls it cuts into
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)


def stop():
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    probe()


def clock():
    """Wall clock that stands still while a probe runs."""
    return perf_counter() - spent


def cpu_clock():
    """Process CPU clock that stands still while a probe runs."""
    return process_time() - spent_cpu


class Speed:
    """Normalisation over the probe samples of one process."""

    def __init__(self, pairs):
        self.starts = [t for t, _ in pairs]
        self.prefix = [0.0]
        for _, took in pairs:
            self.prefix.append(self.prefix[-1] + took)

    def factor(self, a, b):
        """``REF_S`` over the mean probe CPU time of the probes that started
        in ``[a, b]``; with fewer than two there, the two nearest ones."""
        i = bisect.bisect_left(self.starts, a)
        j = bisect.bisect_right(self.starts, b)
        if j - i < 2:
            mid = bisect.bisect_left(self.starts, (a + b) / 2)
            i = max(0, min(mid - 1, len(self.starts) - 2))
            j = min(len(self.starts), i + 2)
        return REF_S * (j - i) / (self.prefix[j] - self.prefix[i])

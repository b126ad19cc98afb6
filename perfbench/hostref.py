"""The reference loop that every end-to-end timing is normalised by.

On a shared host the same code runs at speeds up to about 1.6x apart,
in phases from a fraction of a second to several minutes, and whole runs
land in a slow phase.  A fixed whitney-free Fraction loop slows down
with it: in a seven-minute trace on a 2-CPU host, the medians of raw
job times over 35 s windows moved by 31-42% while their ratios to this
loop, timed beside each job, moved by 5-10%.  The speed also changes
within a job of half a second, which the loop beside it cannot see.

So the loop is timed where the work is.  While a job runs, a ``Sampler``
interrupts it every INTERVAL_S and times one pass of the loop; the
job's own time excludes those passes.  The child also times the loop
for AROUND_S before its first job and after each job, which is all
there is for a job shorter than INTERVAL_S.  A job's time t is reported
as t * NOMINAL_S / p, where p is the mean pass time over the passes
taken during and beside it: the time t would have taken on a host where
a pass takes NOMINAL_S.  Set-up time, which the parent measures away
from any pass, is normalised by the run's median p.  For one job repeated
for a minute, the coefficient of variation of its time was 10-12% raw,
10% normalised by the loop beside it only, and 3-4% with the in-job
passes.

The loop runs with the cyclic collector off, so that the heap a job
leaves behind cannot make it slower; Fraction makes no cycles, so
nothing piles up.  It calls nothing in whitney, so no change to whitney
can change it.
"""

import gc
import resource
import signal
import time
from fractions import Fraction

ITERATIONS = 300
# about one pass on an unloaded 2-CPU x86_64 host with Python 3.11;
# only a scale, so that normalised times read like seconds
NOMINAL_S = 0.0008
# how often a running job is interrupted for one pass
INTERVAL_S = 0.02
# how long the loop repeats beside a job
AROUND_S = 0.01


def one_pass():
    """Seconds for one pass of the reference loop, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        s = Fraction(0)
        for i in range(1, ITERATIONS):
            s += Fraction(1, i % 97 + 1)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def reference(budget_s=AROUND_S):
    """(summed seconds, passes) of the loop repeated for budget_s, at least once."""
    t0 = time.perf_counter()
    total, passes = 0.0, 0
    while passes == 0 or time.perf_counter() - t0 < budget_s:
        total += one_pass()
        passes += 1
    return total, passes


def pass_time(*measures):
    """The mean pass time over these (summed seconds, passes)."""
    return sum(m[0] for m in measures) / sum(m[1] for m in measures)


class Sampler:
    """Times one pass of the loop every INTERVAL_S of wall time while active.

    ``spent_s`` and ``spent_cpu_s`` are what the passes and their
    interruptions cost, to be taken off the time of the work they
    interrupted.
    """

    def __init__(self):
        self.total_s = 0.0
        self.passes = 0
        self.spent_s = 0.0
        self.spent_cpu_s = 0.0
        self._previous = None
        self._busy = False

    def _on_alarm(self, signum, frame):
        if self._busy:  # a pass slower than INTERVAL_S; skip the alarm that came during it
            return
        self._busy = True
        t0, c0 = time.perf_counter(), _cpu()
        self.total_s += one_pass()
        self.passes += 1
        self.spent_s += time.perf_counter() - t0
        self.spent_cpu_s += _cpu() - c0
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def _cpu():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime

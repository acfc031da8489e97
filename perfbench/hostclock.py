"""Wall-clock intervals rescaled to a fixed host speed.

The benchmark shares a few cores of a busy host with other tenants, and
their load changes how fast the same Python code runs by 30% and more,
from one second to the next.  So the host's speed is measured where and
when each interval runs: a fixed piece of pure-Python work
(reference_work, which calls nothing in bikerelay) is timed right
before and right after the interval, and every SAMPLE_PERIOD_S inside
it, from a SIGALRM handler in the same thread.  The interval is then
rescaled by how much slower than REFERENCE_S the median sample ran.
An interval reported as 10 ms is one that would take 10 ms on a host
where reference_work takes REFERENCE_S.

The time spent in the samples taken inside an interval is left out of
it (and out of any trace span around it, see sampling_seconds).  The
program's own cost is untouched by this: making bikerelay slower or
faster moves the interval and not the reference.
"""

from __future__ import annotations

import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter

# Nominal duration of one reference_work() call, in seconds: about its
# time on an unloaded 2-vCPU x86-64 host under CPython 3.11.
REFERENCE_S = 0.0025
# Seconds between two reference samples inside one interval: at most
# about 4% of the interval goes into sampling.
SAMPLE_PERIOD_S = 0.25

_sampling_s = 0.0  # seconds spent in samples taken inside intervals so far


def _integer_loop():
    acc = 0
    for i in range(10000):
        acc += i * i % 7
    return acc


def _tuple_dict():
    d = {}
    for rep in range(3):
        for i in range(600):
            t = (i & 7, i >> 3, (i + rep) % 5)
            d[t] = d.get(t, 0) + sum(t)
    return len(d)


def _text_rows():
    rows = [tuple((i * j) >> 3 & 1 for j in range(64)) for i in range(24)]
    text = "\n".join("".join(map(str, r)) for r in rows)
    back = [tuple(int(c) for c in line) for line in text.split("\n")]
    return sum(map(sum, zip(*back)))


def _fractions():
    s = Fraction(0)
    for i in range(1, 300):
        s += Fraction(1, i)
    return s


REFERENCE_PARTS = (_integer_loop, _tuple_dict, _text_rows, _fractions)


def reference_work():
    """Fixed pure-Python work in four parts, which a busy host slows by different amounts.

    Integer arithmetic, small tuples in a dict, 0/1 rows written as text
    and parsed back, and Fraction sums: together they track how much
    slower the package's mix of code runs at the moment.  Every part
    keeps a small working set, so the program's own memory use does not
    slow the reference.
    """
    for part in REFERENCE_PARTS:
        part()


def reference_sample():
    """Seconds one reference_work() call takes now.

    The call is made twice and the second one is timed, so that what
    the program left in the caches does not slow the sample.  The
    garbage collector is held off meanwhile: a collection of the
    objects an operation left behind is the operation's cost, and
    would otherwise land on whichever sample triggers it.
    """
    enabled = gc.isenabled()
    gc.disable()
    reference_work()
    t0 = perf_counter()
    reference_work()
    t1 = perf_counter()
    if enabled:
        gc.enable()
    return t1 - t0


def sampling_seconds():
    """Seconds spent so far in reference samples taken inside intervals."""
    return _sampling_s


class HostClock:
    """Times intervals and rescales them to reference speed.

    Construct it right before the first interval, which samples the
    reference once.  Bracket each interval with start() and stop(); the
    closing sample of one interval also opens the next.
    """

    def __init__(self):
        self.last = reference_sample()
        self.inner: list[float] = []
        self.running = False

    def _tick(self, signum, frame):
        global _sampling_s
        if not self.running:  # a signal left pending by stop()
            return
        t0 = perf_counter()
        self.inner.append(reference_sample())
        _sampling_s += perf_counter() - t0

    def start(self):
        """Open an interval; returns its start time (perf_counter)."""
        self.inner = []
        self.sampled_at_start = _sampling_s
        self.running = True
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return perf_counter()

    def stop(self, t0):
        """Close the interval opened at t0; returns (seconds as measured, seconds at reference speed).

        Seconds as measured leave out the samples taken inside the interval.
        """
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.running = False
        t1 = perf_counter()
        seconds = t1 - t0 - (_sampling_s - self.sampled_at_start)
        now = reference_sample()
        typical = statistics.median([self.last, *self.inner, now])
        self.last = now
        return seconds, seconds * REFERENCE_S / typical

"""The machine's speed, sampled by a fixed pure-Python loop through the run.

On a shared machine the same Python code runs 10-30 % slower for
stretches of a second to a minute, when other tenants load the cores.
The end-to-end timings are corrected for that.  While a phase is
measured, a timer signal interrupts the program every INTERVAL_S, also
inside frobtile's calls, and the handler times LOOPS turns of a fixed
loop.  A time spent between start and end is multiplied by

    REF_SAMPLE_S / (median loop time of the samples in [start, end])

(at least NEAR samples, widening the window on both sides), which is
the time it would take on a machine where the loop takes REF_SAMPLE_S.  A change to frobtile moves it just as it moves the raw
time; a slow stretch of the machine slows the loop as well and cancels
out.  The handler's own time is kept in `spent`, so that callers can
take it out of what they time.  Nothing in frobtile can change the
loop's cost.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

LOOPS = 2_000
INTERVAL_S = 0.01
# an operation's speed is the median of at least this many samples around it
NEAR = 20
WARM_UP_LOOPS = 20
# the loop's median time on the 2-CPU machine the README's figures come from
REF_SAMPLE_S = 0.0002


_TABLE = [0] * 256


def loop_time() -> float:
    """Seconds for LOOPS turns of the loop.  It allocates only ints, which
    the garbage collector does not track, so it never starts a collection."""
    started = perf_counter()
    s = 0
    for i in range(LOOPS):
        s += i * i % 7
        _TABLE[i & 255] = s
    return perf_counter() - started


class Sampler:
    """Loop times taken on a timer signal while running."""

    def __init__(self):
        # the interpreter specialises the loop's bytecode over its first
        # runs, which are slower: run it a few times before sampling
        for _ in range(WARM_UP_LOOPS):
            loop_time()
        self.times: list[float] = []
        self.stamps: list[float] = []   # when each sample was taken
        self.spent = 0.0      # seconds inside the handler, ever
        self.running = False

    def _fire(self, _signum, _frame):
        entered = perf_counter()
        self.stamps.append(entered)
        self.times.append(loop_time())
        if self.running:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        self.spent += perf_counter() - entered

    def start(self) -> None:
        """Forget earlier samples and sample until stop()."""
        self.times = []
        self.stamps = []
        self.running = True
        signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def stop(self) -> None:
        self.running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        if not self.times:  # a phase shorter than one interval
            self.stamps.append(perf_counter())
            self.times.append(loop_time())

    def corrected(self, seconds: float, start: float, end: float) -> float:
        """seconds, spent between start and end, at the reference speed.

        The speed is the median of the samples taken in [start, end],
        widened on both sides to at least NEAR samples.  A median, because
        a sample the scheduler cut into runs several times too long.
        Call after stop().
        """
        lo = bisect.bisect_left(self.stamps, start)
        hi = bisect.bisect_right(self.stamps, end)
        n = len(self.stamps)
        while hi - lo < NEAR and (lo > 0 or hi < n):
            lo, hi = max(0, lo - 1), min(n, hi + 1)
        return seconds * REF_SAMPLE_S / statistics.median(self.times[lo:hi])


SAMPLER = Sampler()

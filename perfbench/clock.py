"""Times corrected for the speed of the machine at the moment they were taken.

On a shared machine other tenants slow this process by up to half, for
seconds to minutes at a time, so raw times of the same work differ by 30%
or more between runs.  While requests run, a timer signal runs a fixed
pure-Python reference loop (exact ``Fraction`` arithmetic and enumeration,
like the library itself) every ``INTERVAL_S`` and records how long it
took.  A request's time is then its own work (its elapsed time
minus the reference runs inside it) scaled by ``REF_SECONDS`` over the
mean reference duration around it: seconds at a fixed reference speed.
A slower program still reads slower; a busier machine does not.

The garbage collector is off during each reference run, so a collection
that the reference loop's allocations would start runs at the program's
next allocation instead, in the program's time.  The reference loop still
shares the process's CPU caches with the program; a program whose live heap
evicts them also slows the reference runs a little, and that share of its
cost is divided out.
"""

from __future__ import annotations

import gc
import signal
import statistics
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import product
from time import perf_counter

# Duration of one reference run on an idle core of the 2-core x86-64
# sandbox (Python 3.11) the benchmark was tuned on.  It only sets the scale.
REF_SECONDS = 0.0008
INTERVAL_S = 0.02
WINDOW_S = 0.5  # reference runs within this distance of a request count


_PREFIX = [[Fraction(i * j % 7, 9) for j in range(8)] for i in range(3)]
_ZERO = Fraction(0)


def reference_run() -> int:
    # exact arithmetic on small objects, a sort and a dict, as in the model
    # and the LP ...
    xs = [Fraction(i * 7 % 13 + 1, i % 17 + 2) for i in range(60)]
    xs.sort()
    seen = {}
    acc = _ZERO
    for x in xs:
        acc += x * x
        seen[x] = acc
    # ... and enumeration with running Fraction sums, as in the splitter and
    # the oracle.  Tracking both kinds of code keeps every workload steady;
    # either half alone let one workload drift by 10%.
    hits = 0
    for owners in product(range(3), repeat=4):
        if len(set(owners)) != 3:
            continue
        for i, prefix in enumerate(_PREFIX):
            upper = _ZERO
            for j, owner in enumerate(owners):
                if owner == i:
                    gain = prefix[j + 2] - prefix[j]
                    if gain > _ZERO:
                        upper += gain
            hits += upper < acc
    return hits


def timed_reference_run() -> tuple[float, float]:
    """(start, duration) of one reference run with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        reference_run()
        return start, perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def reference_speed(runs: int) -> float:
    """Median duration of ``runs`` back-to-back reference runs."""
    return statistics.median(timed_reference_run()[1] for _ in range(runs))


def scale(seconds: float, reference_s: float) -> float:
    """Seconds at reference speed, for work timed at ``reference_s``."""
    return seconds * REF_SECONDS / reference_s


class ReferenceClock:
    """While entered, runs the reference loop every INTERVAL_S from SIGALRM."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start, duration = timed_reference_run()
        self.starts.append(start)
        self.durations.append(duration)

    def __enter__(self):
        self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def work(self, start: float, end: float) -> float:
        """Seconds at reference speed of the work done in [start, end]."""
        inside = self.durations[bisect_left(self.starts, start):bisect_right(self.starts, end)]
        lo = bisect_left(self.starts, start - WINDOW_S)
        hi = bisect_right(self.starts, end + WINDOW_S)
        around = self.durations[lo:hi] or self.durations[-1:]  # never empty
        # the mean, not the median: work slows by the time-average of the
        # machine's speed, and slow spells are short and deep
        return scale(end - start - sum(inside), statistics.fmean(around))

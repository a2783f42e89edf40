"""Track the host's speed with a fixed calibration kernel run on a timer.

The benchmark runs on shared machines whose speed drifts by tens of percent
over seconds, the same for every process on them, so two runs of the same
code can differ by more than any useful regression bound. The kernel below
is fixed pure-Python work (calls, small-int bit operations, a short
recursion, the kinds of work the library's hot loops do) that never touches
the library, so its time measures the host alone. A SIGALRM timer runs it
every SAMPLE_INTERVAL_S, also in the middle of a long op, and the time it
takes is kept out of the op's time. An op's time is then rescaled by the
kernel's time around it, ``op_time * REFERENCE_S / kernel_time``, i.e.
reported as if the kernel took REFERENCE_S.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time

# A typical kernel time on the shared 2-core x86-64 VM (Python 3.11.7) the
# benchmark was defined on, where run medians ranged over 1.2-2.3 ms; scaling
# to it keeps reported times close to that machine's milliseconds.
REFERENCE_S = 1.5e-3

SAMPLE_INTERVAL_S = 0.1
WINDOW_S = 0.5
MIN_SAMPLES = 5

_WIDTH = 24
_MASKS = [((i * 0x9E3779B1) >> 7) & 0xFFFFFF | (1 << i) for i in range(_WIDTH)]
_FULL = (1 << _WIDTH) - 1


def kernel() -> int:
    """Fixed work: a depth-3 subset walk over 24 bit masks, then an int loop."""
    count = 0

    def walk(start: int, depth: int, covered: int) -> None:
        nonlocal count
        count += 1
        if covered == _FULL or depth == 3:
            return
        for i in range(start, _WIDTH):
            walk(i + 1, depth + 1, covered | _MASKS[i])

    walk(0, 0, 0)
    acc = 0
    for i in range(5000):
        acc ^= ((i * 2654435761) & 0xFFFFFFFF).bit_count() << (i & 7)
    return count + acc


class HostSpeed:
    """Kernel timings over a run; `paused` is the total time spent in the kernel."""

    def __init__(self):
        self.times: list[float] = []
        self.durations: list[float] = []
        self.paused = 0.0
        self._busy = False

    def sample(self, *_signal_args) -> None:
        if self._busy:  # a timer signal that arrives while the kernel runs
            return
        self._busy = True
        start = time.perf_counter()
        kernel()
        duration = time.perf_counter() - start
        self.times.append(start)
        self.durations.append(duration)
        self.paused += duration
        self._busy = False

    @contextlib.contextmanager
    def sampling(self):
        """Run the kernel every SAMPLE_INTERVAL_S of wall time while inside."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scaled(self, start: float, end: float, busy: float) -> float:
        """`busy` seconds spent in [start, end], at the kernel's reference speed.

        Uses the median kernel time within WINDOW_S of the interval, widened
        until it holds MIN_SAMPLES samples (or all of them).
        """
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.times)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.times))
        return busy * REFERENCE_S / statistics.median(self.durations[lo:hi])

"""Load generation and the statistics the benchmark reports.

Nothing here imports the program, so the scheduler and the percentile
rule can be tested with a fake clock.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

TAIL_Q = 95.0
# A tail percentile is trusted only with at least this many samples
# strictly beyond it.
MIN_BEYOND = 10
# The open-loop generator sleeps until this long before an operation is
# due and spins the rest, so sleep wake-up jitter does not land in the
# measured latency.
SPIN_S = 0.002


@dataclass(frozen=True)
class Tail:
    value: float
    n: int
    beyond: int

    @property
    def resolved(self) -> bool:
        return self.beyond >= MIN_BEYOND


def tail(samples, q: float = TAIL_Q) -> Tail:
    """The q-th percentile, its sample count and how many lie beyond it."""
    arr = np.asarray(samples, dtype=np.float64)
    value = float(np.percentile(arr, q))
    return Tail(value, int(arr.size), int(np.count_nonzero(arr > value)))


@dataclass(frozen=True)
class Dispatch:
    """One open-loop operation: when it was due, started and ended.

    free is when the previous operation ended (the system became free).
    """

    due: float
    start: float
    end: float
    free: float

    @property
    def latency(self) -> float:
        """From the due time to completion, queueing included."""
        return self.end - self.due

    @property
    def busy(self) -> float:
        return self.end - self.start

    @property
    def queued(self) -> float:
        """Wait imposed by the previous operation running past this due time."""
        return max(0.0, self.free - self.due)

    @property
    def generator_late(self) -> float:
        """How late the generator sent it once due and the system was free."""
        return self.start - max(self.due, self.free)


def open_loop(op, n: int, period: float,
              clock=time.perf_counter, sleep=time.sleep) -> list[Dispatch]:
    """Call op(i) for i < n, operation i due at t0 + i * period.

    The schedule does not slow down when op does: an operation due while
    the previous one still runs is sent as soon as it returns, and its
    latency counts the wait.  One caller, so this is the single-stream
    deployment: packets arrive at a fixed rate and one host thread
    processes them in order.  Each Dispatch records how late the generator
    itself was.
    """
    t0 = clock()
    free = t0
    out: list[Dispatch] = []
    for i in range(n):
        due = t0 + i * period
        now = clock()
        if now < due - SPIN_S:
            sleep(due - now - SPIN_S)
        while (now := clock()) < due:
            pass
        op(i)
        end = clock()
        out.append(Dispatch(due, now, end, free))
        free = end
    return out


def closed_loop(op, seconds: float, clock=time.perf_counter) -> list[float]:
    """Call op(i) back to back until `seconds` have passed (at least once);
    return each call's duration."""
    durations: list[float] = []
    t0 = clock()
    i = 0
    while True:
        start = clock()
        op(i)
        end = clock()
        durations.append(end - start)
        i += 1
        if end - t0 >= seconds:
            return durations

"""Machine-speed calibration of timed work.

The 2-vCPU VM this benchmark was tuned on changes speed by up to 25 %
within seconds, and drifts further over minutes, with nothing else running
in it.  Raw round times therefore spread across runs by more than any
useful regression bound.  The runner samples the speed with a fixed kernel
that does not touch racerank, run before each timed round, every 0.1 s of
work inside it (started by a timer signal) and after it, and divides the
round's time by the kernel's speed relative to its reference time.  The
setup processes run the Python kernel after their import in the same way.
Reported times are thus seconds at the reference speed.  The raw times and
the speed factors go into the run record.

Two kernels match the two kinds of work.  One does pure-Python big-integer
and Fraction arithmetic, for the exact routes.  The other
does numpy bit generation, conversion and row sorting, for Monte Carlo.
"""

from __future__ import annotations

import contextlib
import math
import signal
import statistics
import time
from fractions import Fraction

_now = time.perf_counter


def _python_kernel() -> Fraction:
    acc = Fraction(0)
    for k in range(1, 1500):
        acc += Fraction(math.factorial(k % 90 + 20), math.factorial(k % 37 + 10) * (k % 50 + 1))
    return acc


def _numpy_kernel():
    # numpy is imported here, so that the Python kernel can time a process
    # that has not imported it yet (see run.py's setup_s).
    import numpy as np

    # Arrays of ~3 MB each: larger than the L2 cache, so the kernel feels
    # contention for the shared L3 cache and memory as the 34 MB chunks of
    # the Monte Carlo workloads do; a 1.6 MB version tracked their speed
    # far worse.
    rows = 2000
    u = (np.random.Philox(key=0).random_raw(rows * 200) >> np.uint64(11)) * 2.0**-53
    block = u.reshape(rows, 200)
    order = np.argsort(block, axis=-1, kind="stable")
    ranks = np.empty(block.shape, dtype=np.int64)
    np.put_along_axis(ranks, order, np.arange(1, 201, dtype=np.int64), axis=-1)
    return np.bincount(ranks[:, 0], minlength=201)


# Kernel and its median time on the reference machine (Intel Xeon VM,
# 2 vCPUs, Python 3.11, numpy 2.4), so that speed factors are near 1 there.
KERNELS = {
    "python": (_python_kernel, 0.010),
    "numpy": (_numpy_kernel, 0.040),
}

# Work time between two kernel runs inside a round.
TICK_S = 0.1

# Total time the kernels have run in this process; work_clock leaves it out.
_kernel_s = 0.0


def work_clock() -> float:
    """``time.perf_counter`` less the time spent in calibration kernels.

    Every timed round and call reads this clock, so a kernel run that the
    timer starts inside a round or a call is not counted as its work.
    """
    while True:
        kernel_s = _kernel_s
        now = _now()
        # A kernel that ran between the two reads changed _kernel_s: retry.
        if kernel_s == _kernel_s:
            return now - kernel_s


class Speed:
    """Kernel timings taken before, during and after timed rounds.

    Inside ``sampling()`` a one-shot interval timer raises SIGALRM after
    each ``TICK_S`` of work, and its handler runs the kernel in the main
    thread between two bytecodes.  So the speed is sampled while the round
    works, also inside one long call such as ``curve_200x30``'s, with no
    extra thread and no wrapper around racerank.  ``round_done`` samples
    once more and returns the round's speed factor: the mean kernel time
    over the round's samples (the one before it included) divided by the
    reference time.  A factor above 1 means the machine ran slow.  The mean,
    not the median: the machine switches between a fast and a slow state
    within a round, and the mean weighs each state by its share of the
    round, where the median picks one of them.
    """

    def __init__(self, kind: str) -> None:
        self._kernel, self._reference = KERNELS[kind]
        self.kernel_s: list[float] = []
        self._round_start = 0
        self._armed = False
        self._sample()

    def _sample(self) -> None:
        global _kernel_s
        t0 = _now()
        self._kernel()
        elapsed = _now() - t0
        _kernel_s += elapsed
        self.kernel_s.append(elapsed)

    def _on_alarm(self, signum, frame) -> None:
        if self._armed:
            self._sample()
            signal.setitimer(signal.ITIMER_REAL, TICK_S)

    @contextlib.contextmanager
    def sampling(self):
        # The handler stays installed afterwards: unarmed it does nothing,
        # so a signal still pending when the timer is stopped is harmless.
        signal.signal(signal.SIGALRM, self._on_alarm)
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, TICK_S)
        try:
            yield
        finally:
            self._armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)

    def round_done(self) -> float:
        self._sample()
        samples = self.kernel_s[self._round_start:]
        self._round_start = len(self.kernel_s) - 1
        return statistics.fmean(samples) / self._reference

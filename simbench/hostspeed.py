"""The host's speed, measured by a fixed reference kernel, and the scale
factor that turns a measured time into reference seconds.

On a shared virtual machine the CPU a run gets slows and speeds up with
the other tenants' load: a pure-Python loop varied by +-20% over a few
seconds and by up to 1.5x over minutes, and every statement of a
workload slowed by the same factor.  So the benchmark times a fixed
pure-Python kernel (its own code, which no change to the program can
move) every ``SAMPLE_EVERY_S`` and scales each time it measures by
``REFERENCE_KERNEL_S`` over the kernel times around it.  A time in
reference seconds is the time the op would have taken on a host that
runs the kernel in ``REFERENCE_KERNEL_S``.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import threading
import time
from typing import List

#: the kernel's time on the reference host (about its time on a
#: 2-vCPU virtual machine with Python 3.11)
REFERENCE_KERNEL_S = 0.002
#: the longest gap between two samples of the kernel
SAMPLE_EVERY_S = 0.05


class _Item:
    __slots__ = ("key", "label")

    def __init__(self, key: int, label: str):
        self.key = key
        self.label = label


def kernel() -> int:
    """Fixed work of the kind the program does: object allocation,
    string formatting, dict insertion and a keyed sort."""
    table = {}
    for i in range(2500):
        table[(i, i % 7)] = _Item(i, str(i))
    ordered = sorted(table.values(), key=lambda item: -item.key)
    return sum(item.key for item in ordered)


def time_kernel() -> float:
    """CPU seconds one kernel run takes in the calling thread.  The cyclic
    collector is paused for it, so the program's heap cannot slow it,
    and thread CPU time leaves out time the thread waited for the CPU or
    the interpreter lock."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        began = time.thread_time()
        kernel()
        return time.thread_time() - began
    finally:
        if enabled:
            gc.enable()


def scale_now(samples: int = 21) -> float:
    """``REFERENCE_KERNEL_S`` over the median of ``samples`` kernel times
    taken now, for a span of work that brackets itself with two calls
    (a set-up in another process)."""
    return REFERENCE_KERNEL_S / statistics.median(
        time_kernel() for _ in range(samples))


class HostSpeed:
    """Kernel times sampled during a phase, in the caller's thread
    (:meth:`maybe_sample` between ops) or in a thread of its own
    (:meth:`start` / :meth:`stop`, for phases whose ops run in other
    threads and processes on the same CPU)."""

    def __init__(self):
        #: ``time.perf_counter()`` at the end of each sample
        self.times: List[float] = []
        self.kernel_s: List[float] = []
        self._stop = threading.Event()
        self._thread = None

    def sample(self) -> None:
        kernel_s = time_kernel()
        self.times.append(time.perf_counter())
        self.kernel_s.append(kernel_s)

    def maybe_sample(self) -> None:
        if not self.times or \
                time.perf_counter() - self.times[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def start(self, quiet) -> "HostSpeed":
        """Sample in a thread of its own until :meth:`stop`.  ``quiet``
        is a context manager factory that holds the phase's ops back
        while a sample runs, so that no other thread or process shares
        the CPU with the kernel (a preempted kernel finds its cache lines
        evicted by whatever ran meanwhile)."""
        self.sample()

        def loop() -> None:
            while not self._stop.wait(SAMPLE_EVERY_S):
                with quiet():
                    self.sample()

        self._thread = threading.Thread(target=loop, daemon=True,
                                        name="simbench-hostspeed")
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is not None:
            self._stop.set()
            # a sample that waits on an op which never ends must not hang
            # the run; the thread is a daemon
            self._thread.join(timeout=10)
            self._thread = None
        self.sample()

    def scale(self, begin: float, end: float) -> float:
        """``REFERENCE_KERNEL_S`` over the median kernel time of the
        samples around ``[begin, end]`` (``perf_counter`` seconds): the
        last one taken by ``begin`` through the first one taken after
        ``end``."""
        last = len(self.times) - 1
        low = max(0, bisect.bisect_right(self.times, begin) - 1)
        high = min(last, bisect.bisect_left(self.times, end))
        return REFERENCE_KERNEL_S / statistics.median(
            self.kernel_s[low:high + 1])

    def median_kernel_s(self) -> float:
        return statistics.median(self.kernel_s)

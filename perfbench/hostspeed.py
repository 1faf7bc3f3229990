"""Host speed, from a fixed pure-Python kernel timed next to the workload.

The benchmark host's speed drifts by up to a factor of two over seconds to
minutes, and whole runs land in slow or fast phases.  Timing this kernel at
op boundaries and scaling each op's host time by ``REFERENCE_NS`` over the
median kernel time within ``WINDOW_NS`` of the op cancels most of that drift;
the median over a window, rather than the nearest run, keeps the kernel's own
noise out of single ops.  The kernel is the benchmark's own code, so a change
to casim moves the scaled times fully.  Its mix (a heap of tuples, dict
updates, float sums) resembles the emulator's inner loop.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import statistics
import time

REFERENCE_NS = 30_000_000  # scaled times are for a host that runs the kernel in 30 ms
KERNEL_ITEMS = 15_000
EVERY_NS = 250_000_000  # one kernel run per 0.25 s of ops
MAX_RUNS = 5
WINDOW_NS = 3_000_000_000  # an op is scaled by the kernel runs within 3 s of it


def kernel_ns() -> int:
    """Host time of one run of the fixed kernel.

    The garbage collector is off while it runs: otherwise its allocations
    would trigger collections over the workload's live objects, and the
    kernel's time would depend on the workload's heap, not on the host.
    """
    gc.disable()
    try:
        start = time.perf_counter_ns()
        heap: list = []
        for i in range(KERNEL_ITEMS):
            heapq.heappush(heap, ((i * 7919) % 10007 * 0.5, i))
        sums: dict = {}
        while heap:
            t, i = heapq.heappop(heap)
            sums[i % 1009] = sums.get(i % 1009, 0.0) + t
        return time.perf_counter_ns() - start
    finally:
        gc.enable()


class HostSpeed:
    """Kernel runs taken between ops, and the start time of each op."""

    def __init__(self):
        self.at: list[int] = []  # when each kernel run ended
        self.ns: list[int] = []
        self.starts: list[int] = []

    def tick(self) -> None:
        """Call right before each op; runs the kernel once per EVERY_NS gone
        by since its last run, up to MAX_RUNS, so that long ops get as many
        kernel runs around them as short ones."""
        due = (time.perf_counter_ns() - self.at[-1]) // EVERY_NS if self.at else MAX_RUNS
        for _ in range(min(due, MAX_RUNS)):
            self.measure()
        self.starts.append(time.perf_counter_ns())

    def measure(self) -> None:
        """Run the kernel now; call once more after the last op."""
        self.ns.append(kernel_ns())
        self.at.append(time.perf_counter_ns())

    def scale(self, start_ns: int, op_ns: float) -> float:
        """An op's host time scaled to the reference host speed."""
        lo = bisect.bisect_left(self.at, start_ns - WINDOW_NS)
        hi = bisect.bisect_right(self.at, start_ns + op_ns + WINDOW_NS)
        return op_ns * REFERENCE_NS / statistics.median(self.ns[lo:hi])

"""Machine-speed calibration: timed figures at a reference speed.

The benchmark runs on a shared virtual machine whose speed wanders by
itself. A fixed pure-Python loop, timed in 20 s windows over two
minutes, took from 7.1 to 10.1 ms (median per window), and CPU time
moved exactly as wall time did, so the drift is the host's speed, not
time stolen from the process. Ten runs of identical work (the
``index_build`` build) spread by up to 46% (interquartile range over
median), more than any bound a later change could be held to.

Each workload therefore times a fixed *calibration kernel* beside its
own work, interleaved with it: between queries (``warm_query``),
between keyword builds and between posting-list writes
(``index_build``), and in the generator while no request is in flight
(``serve``); set-ups have a short burst of readings before and after.
Every timed figure is reported scaled to the speed at which the kernel
takes ``REFERENCE_MS``:

    figure_at_reference = figure_as_timed / slowdown
    slowdown            = median of nearby kernel times / REFERENCE_MS

(a rate is multiplied by the slowdown instead). The kernel's own time
is left out of every figure. It runs only the interpreter and the
standard library, never the program, so a change to the program moves
the figures and not the kernel. Timed within a minute of the same
process, the ratio of a warm query pass to the kernel moved 8% between
25 s windows where the raw time moved 23%. The raw figures and the
kernel's median are on every run's ``# report`` line.
"""

from __future__ import annotations

import gc
import heapq
import time
from statistics import median

#: Kernel time, in ms, that the reported figures are scaled to: about
#: its median on the two-vCPU machine the bounds were set on.
REFERENCE_MS = 4.0


class _Node:
    __slots__ = ("key", "weight")

    def __init__(self, key, weight) -> None:
        self.key = key
        self.weight = weight


def kernel() -> int:
    """A fixed piece of interpreter work: tuple-keyed dict inserts of
    small objects, a sort, attribute reads and a heap merge, the
    operations (and the allocation) the engine's own inner loops are
    made of. A kernel that allocated nothing tracked the workloads'
    drift about half as well."""
    table = {}
    for i in range(2000):
        table[(i * 7919) % 4093, i & 15] = _Node(i, (i * 31) % 97)
    heap: list = []
    for key, node in sorted(table.items()):
        heapq.heappush(heap, (node.weight, key))
    total = 0
    while heap:
        weight, key = heapq.heappop(heap)
        total += weight + key[1]
    return total


class Speed:
    """Kernel readings of one run, with the times they were taken."""

    def __init__(self) -> None:
        self.readings: list[float] = []
        self.at: list[float] = []

    def sample(self) -> float:
        """Time the kernel once; returns the seconds it took.

        The collector is off while the kernel runs, and everything the
        kernel allocates is freed by reference counting when it
        returns, so it leaves the collector's counts as it found them.
        With the collector on, its allocations set off full collections
        of the caller's heap (up to 90 ms in the ``serve`` generator)
        in the middle of the timed work."""
        enabled = gc.isenabled()
        gc.disable()
        started = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - started
        if enabled:
            gc.enable()
        self.readings.append(elapsed)
        self.at.append(started)
        return elapsed

    def burst(self, seconds: float) -> float:
        """Time the kernel back to back for about ``seconds``; returns
        the seconds spent."""
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            self.sample()
        return time.perf_counter() - started

    def slowdown(self, since: int = 0, until: int | None = None) -> float:
        """Median kernel time of readings ``since``..``until`` over the
        reference time: 1.0 at the reference speed, 1.25 when the
        machine ran 25% slower."""
        readings = self.readings[since:until]
        if not readings:
            raise RuntimeError("no calibration readings")
        return median(readings) * 1000.0 / REFERENCE_MS

    def local_slowdowns(self, times: list[float],
                        window: int = 4) -> list[float]:
        """For each moment in ``times`` (sorted), the slowdown over the
        ``2 * window`` readings taken nearest before and after it."""
        factors = []
        position = 0
        for moment in times:
            while position < len(self.at) and self.at[position] <= moment:
                position += 1
            low = max(0, position - window)
            high = min(len(self.readings), position + window)
            if high - low < 2 * window:
                low = max(0, high - 2 * window)
                high = min(len(self.readings), low + 2 * window)
            factors.append(self.slowdown(low, high))
        return factors

    def scaled(self, start: float, end: float) -> float:
        """Seconds from ``start`` to ``end`` at the reference speed,
        leaving out the readings taken in between: each stretch between
        two readings is scaled by the slowdown around it."""
        inside = [index for index, at in enumerate(self.at)
                  if start <= at < end]
        edges = [start] + [self.at[index] for index in inside] + [end]
        gaps = [0.0] + [self.readings[index] for index in inside]
        stretches = [(edges[i] + gaps[i], edges[i + 1])
                     for i in range(len(edges) - 1)]
        factors = self.local_slowdowns(
            [(low + high) / 2.0 for low, high in stretches])
        return sum(max(0.0, high - low) / factor
                   for (low, high), factor in zip(stretches, factors))

    def kernel_ms(self) -> float:
        return median(self.readings) * 1000.0

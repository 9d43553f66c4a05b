"""Host-speed probe: rescale timings to a quiet host's speed.

The benchmark runs on a shared VM whose vCPU slows by up to ~1.9x for
stretches of a fraction of a second to tens of seconds, because other
tenants load the physical machine.  The slowdown shows in thread CPU time
(the guest sees no steal time), so measuring CPU time instead of wall time
does not remove it.  Raw timings then depend on how much of a run the host
spent slow, and ten runs of the same code spread by 20-50%.

:class:`HostSpeed` runs a fixed probe (:func:`probe_loop`, a short
pure-Python loop) between the client's commands, every :data:`PROBE_EVERY`
seconds, and records its thread CPU time.  Thread CPU time leaves out every
other thread of the process, so a change that keeps the CPU busier in the
server cannot slow the probe and rescale itself away; the loop stays in the
L1 cache, so what the program left in the caches barely moves it.  Under
contention, frame latency in 2-3 s windows rose as the probe's slowdown to a
power of 0.9-1.35, depending on the workload; a probe that also walked a
32 MB or 256 MB table tracked the frames no better.

A timing that starts after probe ``i - 1`` is divided by
:meth:`HostSpeed.factor` ``(i)``: the median, over the probes around it, of
the probe's thread time over :data:`REFERENCE_S`, its thread time on a quiet
host.  Rescaled values are what the run would have read had the host stayed
quiet.  Re-measure :data:`REFERENCE_S` on other hardware with
``python3 bench/hostspeed.py``.
"""

from __future__ import annotations

import os
import statistics
import sys
import time

#: Seconds of client time between probes.
PROBE_EVERY = 0.010
#: Probes on each side of a timing whose slowdowns its factor takes the
#: median of.
REACH = 4
#: Probes in one :meth:`HostSpeed.burst`.
BURST = 15
#: Iterations of one probe.
PROBE_STEPS = 2000
#: Thread CPU seconds of one probe on a quiet host: the 10th percentile of
#: per-second medians over 60 s of ``python3 bench/hostspeed.py`` on the
#: 2-vCPU VM (Xeon, 2.1 GHz, Python 3.11) the benchmark was written on.
REFERENCE_S = 0.0001130


def probe_loop(steps: int) -> int:
    """A fixed slice of interpreter work."""
    total = 0
    for i in range(steps):
        total += i * i
    return total


class HostSpeed:
    """Probe samples of one run, and the slowdown factor they imply."""

    def __init__(self) -> None:
        #: Per probe, its thread time over :data:`REFERENCE_S`.
        self.samples: list[float] = []
        self._last = float("-inf")

    def probe(self) -> None:
        cpu = time.thread_time()
        probe_loop(PROBE_STEPS)
        self.samples.append((time.thread_time() - cpu) / REFERENCE_S)
        self._last = time.perf_counter()

    def maybe_probe(self) -> None:
        """Probe if :data:`PROBE_EVERY` has passed since the last probe."""
        if time.perf_counter() - self._last >= PROBE_EVERY:
            self.probe()

    def burst(self) -> None:
        """Probe :data:`BURST` times, :data:`PROBE_EVERY` apart (around a
        set-up, which cannot be interrupted to probe)."""
        for _ in range(BURST):
            time.sleep(PROBE_EVERY)
            self.probe()

    @property
    def index(self) -> int:
        """The index a timing that starts now is rescaled by."""
        return len(self.samples)

    def factor(self, index: int, reach: int = REACH) -> float:
        """Host slowdown around probe ``index``: the median of the
        ``reach`` probes before it and the ``reach`` from it on."""
        if not self.samples:
            return 1.0
        index = min(max(index, 0), len(self.samples) - 1)
        return statistics.median(
            self.samples[max(index - reach, 0):index + reach])

    def rescale(self, timings: list[tuple[int, float]]) -> list[float]:
        """``(index, seconds)`` pairs as quiet-host seconds."""
        return [seconds / self.factor(index) for index, seconds in timings]


def main() -> int:
    """Print the probe's quiet-host thread time: the 10th percentile of its
    per-second medians over a stretch of probing."""
    seconds = float(sys.argv[1]) if len(sys.argv) > 1 else 60.0
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    host = HostSpeed()
    medians = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        host.samples.clear()
        while len(host.samples) < 1.0 / PROBE_EVERY:
            time.sleep(PROBE_EVERY)
            host.probe()
        medians.append(statistics.median(host.samples) * REFERENCE_S)
    medians.sort()
    print(f"{medians[len(medians) // 10]:.7f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Host speed probe, sampled while the benchmark works.

On a shared host the speed of one vCPU changes by 1.4x to 2x over seconds to
minutes, for reasons outside the process (CPU time tracks wall time, so it is
not waiting). A run's median wall time then depends on when it ran more than
on the code. ``HostSpeed`` times a small fixed pure-Python loop from a
SIGALRM handler every 10 ms, in the benchmark's own thread, so it sees the
same slowdown as the work around it. Multiplying a wall time measured inside
the block by ``scale()`` gives the time at the speed where the probe takes
NOMINAL_PROBE_S. On a 2-vCPU Intel Xeon host this cut the pass-to-pass
variation of the benchmark's workloads from 9-12% to 2-6%. It does not
remove it: work that waits on memory slows by another factor than the probe.
"""

from __future__ import annotations

import signal
import statistics
import time

# The probe's time on an idle 2-vCPU Intel Xeon host (CPython 3.11).
NOMINAL_PROBE_S = 40e-6
INTERVAL_S = 0.01


def _probe() -> None:
    d = {}
    acc = 0
    for i in range(300):
        acc += (i * 7) % 13
        d[i & 31] = acc


class HostSpeed:
    """Context manager that samples the probe while its block runs."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _probe()
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self) -> HostSpeed:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """Mean of NOMINAL_PROBE_S over each probe time, for the probes taken
        between the perf_counter times start and end. Samples are evenly
        spaced in time, so this weighs each stretch by how long it lasted; a
        probe that a context switch lengthened counts for little. One probe
        now if the stretch was too short to hold any."""
        picked = [d for t, d in self.samples if start <= t < end]
        if not picked:
            self._sample(None, None)
            picked = [self.samples[-1][1]]
        return statistics.fmean(NOMINAL_PROBE_S / d for d in picked)

    def scaled(self, interval: tuple[float, float]) -> float:
        """The wall time of an interval inside the block, at nominal speed."""
        start, end = interval
        return (end - start) * self.scale(start, end)

"""Host-speed probes, so timings compare across runs on a shared host.

On a shared host, other tenants can slow the same pure-Python loop by up
to 2x for seconds to minutes (measured on a two-vCPU Xeon VM).  The drift
shows up in process CPU time too (it is lost instructions per cycle, not
stolen time), so no clock avoids it.  A
probe therefore times a fixed loop at moments when the program is not
running; every wall-clock interval the benchmark reports is scaled by the
host speed the probes saw around it.  A slower program still reads
slower; a slower host does not.

A probe's speed factor is :data:`REFERENCE_S` over its duration (1.0 on a
host that runs the probe loop in :data:`REFERENCE_S`).  An instant takes
the factor of the nearest probe, smoothed over its neighbours so one
interrupted probe cannot skew an interval.
"""

from __future__ import annotations

import bisect
import time
from typing import List, Sequence, Tuple

__all__ = ["PROBE_LOOPS", "REFERENCE_S", "HostSpeed"]

#: Iterations of the probe loop (about 1.2 to 2.4 ms).
PROBE_LOOPS = 20_000
#: The probe loop's duration on the reference host; scales reported times.
REFERENCE_S = 0.0012
#: Open loops probe while nothing is in flight: at most this often...
IDLE_PROBE_EVERY_S = 0.05
#: ...and only with this much time left before the next send is due.
IDLE_PROBE_ROOM_S = 0.005


class HostSpeed:
    """A time series of probe results and the interval scaling they give."""

    def __init__(self) -> None:
        self._times: List[float] = []
        self._factors: List[float] = []
        self._smoothed: List[float] = []

    def probe(self) -> None:
        """Time the fixed loop once and record the host's speed factor."""
        start = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i * i
        end = time.perf_counter()
        self.record((start + end) / 2, end - start)

    def record(self, at: float, duration: float) -> None:
        """Add a probe that took ``duration`` seconds, centred at ``at``."""
        self._times.append(at)
        self._factors.append(REFERENCE_S / duration)
        self._smoothed = []

    @property
    def probes(self) -> int:
        return len(self._times)

    def probe_if_idle(self, room: float) -> bool:
        """Probe when ``room`` seconds remain before the next due send and
        the last probe is old enough; returns whether it probed."""
        if room < IDLE_PROBE_ROOM_S:
            return False
        if self._times and time.perf_counter() - self._times[-1] < IDLE_PROBE_EVERY_S:
            return False
        self.probe()
        return True

    def factors(self) -> List[float]:
        """Each probe's factor, smoothed over itself and its two neighbours.

        The median of the three, or the faster of two at either end: an
        interrupted probe only ever reads slow, so one cannot drag its
        neighbours down.
        """
        if not self._smoothed:
            raw = self._factors
            windows = (sorted(raw[max(i - 1, 0) : i + 2]) for i in range(len(raw)))
            self._smoothed = [window[len(window) // 2] for window in windows]
        return self._smoothed

    def scale(self, start: float, end: float) -> float:
        """Reference-speed seconds of the wall interval ``[start, end]``.

        Each instant counts at the factor of the nearest probe, so the
        interval is cut at the midpoints between consecutive probes.
        """
        if not self._times:
            raise ValueError("no host-speed probe recorded")
        times, factors = self._times, self.factors()
        i = max(bisect.bisect_right(times, start) - 1, 0)
        if i + 1 < len(times) and times[i + 1] - start < start - times[i]:
            i += 1
        total, at = 0.0, start
        while at < end:
            edge = (times[i] + times[i + 1]) / 2 if i + 1 < len(times) else end
            if edge <= at:
                i += 1
                continue
            upto = min(edge, end)
            total += (upto - at) * factors[i]
            at = upto
            i += 1
        return total

    def total(self, intervals: Sequence[Tuple[float, float]]) -> float:
        """Reference-speed seconds of several wall intervals."""
        return sum(self.scale(start, end) for start, end in intervals)

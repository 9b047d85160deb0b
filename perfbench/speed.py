"""Machine speed reference, for steady timings on a shared machine.

On a shared machine the CPU speed drifts by tens of percent within
seconds, and every timing drifts with it. The benchmark therefore times a
fixed pure-Python loop between operations, at most every ``SAMPLE_EVERY``
seconds, and rescales each timing by ``REF_LOOP_S`` over the median loop
time within ``WINDOW_S`` seconds of it: a timing reads as it would with
the loop at its reference speed. A slower program still reads slower; a
slower machine does not. The window is short because the drift is fast:
on the baseline machine a wider window let more of it through.
"""

from __future__ import annotations

import bisect
import statistics
import time

LOOP_N = 10_000
# About the median loop time on the machine named in baseline.json.
REF_LOOP_S = 0.0025
SAMPLE_EVERY = 0.02
WINDOW_S = 0.1


def loop() -> int:
    """Fixed work of the kinds the package does: small and big integer
    arithmetic, bit operations and dict updates."""
    acc, mask, seen = 0, 0, {}
    for i in range(LOOP_N):
        acc += i * i % 7
        mask |= 1 << (i & 255)
        seen[i & 63] = acc
    return acc + mask.bit_count() + len(seen)


class SpeedRef:
    """Loop timings over a run, as (midpoint, duration) in time order."""

    def __init__(self):
        self.mids: list[float] = []
        self.durations: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        loop()
        t1 = time.perf_counter()
        self.mids.append((t0 + t1) / 2)
        self.durations.append(t1 - t0)

    def maybe_sample(self) -> None:
        if not self.mids or time.perf_counter() - self.mids[-1] >= SAMPLE_EVERY:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Factor that rescales a timing taken between ``start`` and ``end``."""
        lo = bisect.bisect_left(self.mids, start - WINDOW_S)
        hi = bisect.bisect_right(self.mids, end + WINDOW_S)
        near = self.durations[lo:hi] or self.durations
        return REF_LOOP_S / statistics.median(near)

"""The host's speed, measured by a loop of the benchmark's own.

Other tenants of the host slow each core by up to half, in spells that come
and go every second or so and sometimes last minutes. A fixed loop, of the
same grain as the program's work (small numpy operations, formatting and
parsing numbers as text, and the Python calls between them), is timed just
before and just after each timed call into the program; each timing is a
"mark". A stretch of the program's work between two marks is multiplied by
REFERENCE_S over the mean of the two. REFERENCE_S is the loop's time on an
idle core of the x86-64 host where the bounds were set, so a scaled time
reads as the time on that idle core.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

import numpy as np

REFERENCE_S = 0.0066
REFERENCE_BLOCKS = 3      # a mark is the median of this many runs of the loop
MARK_REUSE_S = 0.05
_A = np.random.default_rng(0).standard_normal((64, 96))
_W = np.random.default_rng(1).standard_normal((96, 96)) / 10.0


def reference_s() -> float:
    """Median seconds of REFERENCE_BLOCKS runs of the reference loop."""
    times = []
    for _ in range(REFERENCE_BLOCKS):
        start = perf_counter()
        acc = 0.0
        for i in range(120):
            b = np.tanh(_A @ _W) * 0.5 + 1.0
            row = ",".join([repr(float(v)) for v in b[i % 64, :8]])
            acc += sum(float(x) for x in row.split(",")) + len({j: j * i for j in range(8)})
        times.append(perf_counter() - start)
    return median(times)


class HostSpeed:
    """Reference times ("marks"), each with the interval it took.

    A timed interval needs a mark that ends before it and one that starts
    after it. A mark asked for only to open an interval, within MARK_REUSE_S
    of the end of the last one, is not taken again: the last one serves."""

    def __init__(self):
        self.marks: list[tuple[float, float, float]] = []   # (start, end, seconds)
        self.mark()

    def mark(self, opening: bool = False) -> None:
        start = perf_counter()
        if opening and start - self.marks[-1][1] < MARK_REUSE_S:
            return
        seconds = reference_s()
        self.marks.append((start, perf_counter(), seconds))

    def scaled_s(self, start: float, end: float) -> float:
        """Seconds of the program's work in [start, end], scaled: the time
        between marks inside the interval is left out, and each piece is
        multiplied by REFERENCE_S over the mean of the marks around it."""
        before = max(i for i, m in enumerate(self.marks) if m[1] <= start)
        total, t = 0.0, start
        for m0, m1 in zip(self.marks[before:], self.marks[before + 1:]):
            if m1[0] >= end:
                return total + (end - t) * REFERENCE_S * 2.0 / (m0[2] + m1[2])
            total += (m1[0] - t) * REFERENCE_S * 2.0 / (m0[2] + m1[2])
            t = m1[1]
        raise RuntimeError("no mark after the interval")

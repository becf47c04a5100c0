"""Utilisation tracing over piecewise-constant resource logs.

Links and core pools record ``(time, value)`` change points, each log
bounded by :func:`append_bounded`.  This module turns those logs into
fixed-width time-bucketed series (time-weighted averages), which is how
we regenerate the paper's Table 2 — per-node CPU% and network MB/s over
the first 300 seconds of a V2S run.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

#: entries a change log keeps: past twice this many, the oldest are
#: compacted away, so a long-lived fabric's logs stay in memory
LOG_LIMIT = 65536


def append_bounded(log: List[Tuple[float, float]],
                   point: Tuple[float, float]) -> None:
    """Append a change point, keeping the newest ``LOG_LIMIT`` past the bound.

    Amortised O(1): the log is halved in one slice once it holds twice
    ``LOG_LIMIT`` points.  Every ``(time, value)`` change log in the sim
    (``Link.rate_log``, ``Resource.usage_log``) appends through here.
    """
    log.append(point)
    if len(log) > 2 * LOG_LIMIT:
        del log[: len(log) - LOG_LIMIT]


def bucket_series(
    log: Sequence[Tuple[float, float]],
    start: float,
    end: float,
    step: float,
) -> List[float]:
    """Time-weighted average of a piecewise-constant log per bucket.

    ``log`` holds (time, value) change points, with each value holding
    until the next change point.  Points need not arrive sorted —
    change-point logs assembled from several processes can interleave —
    so they are sorted by time here.  Returns one average per bucket of
    width ``step`` covering [start, end).
    """
    if step <= 0:
        raise ValueError(f"bucket step must be positive: {step}")
    if end <= start:
        return []
    points = sorted(log, key=lambda point: point[0])
    buckets: List[float] = []
    t = start
    while t < end - 1e-12:
        t_next = min(t + step, end)
        buckets.append(_window_average(points, t, t_next))
        t = t_next
    return buckets


def _window_average(points: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    if not points:
        return 0.0
    total = 0.0
    # Value active at the start of the window.
    current = 0.0
    for time, value in points:
        if time <= lo:
            current = value
        else:
            break
    prev_time = lo
    for time, value in points:
        if time <= lo:
            continue
        if time >= hi:
            break
        total += current * (time - prev_time)
        prev_time = time
        current = value
    total += current * (hi - prev_time)
    return total / (hi - lo)


class UsageTrace:
    """A named utilisation series with convenience statistics."""

    def __init__(self, name: str, times: Sequence[float], values: Sequence[float]):
        if len(times) != len(values):
            raise ValueError("times and values must be the same length")
        self.name = name
        self.times = list(times)
        self.values = list(values)

    @classmethod
    def from_log(
        cls,
        name: str,
        log: Sequence[Tuple[float, float]],
        start: float,
        end: float,
        step: float,
    ) -> "UsageTrace":
        values = bucket_series(log, start, end, step)
        times = [start + step * i for i in range(len(values))]
        return cls(name, times, values)

    @property
    def mean(self) -> float:
        return sum(self.values) / len(self.values) if self.values else 0.0

    @property
    def peak(self) -> float:
        return max(self.values) if self.values else 0.0

    def steady_state(self, skip_fraction: float = 0.25) -> float:
        """Average over the trailing part of the series, past the ramp-up."""
        if not self.values:
            return 0.0
        skip = int(len(self.values) * skip_fraction)
        tail = self.values[skip:] or self.values
        return sum(tail) / len(tail)

    def sparkline(self, width: int = 60, peak: float = 0.0) -> str:
        """Render the series as a one-line ASCII sparkline."""
        if not self.values:
            return ""
        glyphs = " .:-=+*#%@"
        top = peak or self.peak or 1.0
        # Partition the full series into near-equal chunks, one per output
        # column, so trailing values are never dropped when the length is
        # not a multiple of the width.
        n = min(width, len(self.values))
        cells = []
        for k in range(n):
            lo = k * len(self.values) // n
            hi = (k + 1) * len(self.values) // n
            chunk = self.values[lo:hi]
            cells.append(sum(chunk) / len(chunk))
        out = []
        for cell in cells:
            idx = min(len(glyphs) - 1, int(round(cell / top * (len(glyphs) - 1))))
            out.append(glyphs[max(0, idx)])
        return "".join(out)

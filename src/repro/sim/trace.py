"""Utilisation tracing over piecewise-constant resource logs.

Links and core pools record ``(time, value)`` change points in a
:class:`ChangeLog`.  This module turns those logs into fixed-width
time-bucketed series (time-weighted averages), which is how we
regenerate the paper's Table 2 — per-node CPU% and network MB/s over the
first 300 seconds of a V2S run.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator, List, Sequence, Tuple

#: entries a change log keeps: past twice this many, the oldest are
#: compacted away, so a long-lived fabric's logs stay in memory
LOG_LIMIT = 65536


class ChangeLog:
    """A bounded ``(time, value)`` change log held in two ``array('d')``.

    Every change log in the sim (``Link.rate_log``, ``Resource.usage_log``)
    is one: 16 bytes a point, no tuple or float object per value.  It
    reads as ``(time, value)`` pairs — iteration, ``len`` and indexing.
    :meth:`record` skips a value equal to the last one (within ``eps``
    when ``eps`` is set, else by ``==``), overwrites a point recorded at
    the same instant, and otherwise appends; once the log holds twice
    ``LOG_LIMIT`` points it keeps the newest ``LOG_LIMIT`` (amortised
    O(1)).
    """

    __slots__ = ("times", "values", "eps")

    def __init__(self, time: float, value: float, eps: float = 0.0):
        self.times = array("d", (time,))
        self.values = array("d", (value,))
        self.eps = eps

    def record(self, time: float, value: float) -> None:
        values = self.values
        last = values[-1]
        if abs(last - value) < self.eps if self.eps else last == value:
            return
        times = self.times
        if times[-1] == time:
            values[-1] = value
            return
        times.append(time)
        values.append(value)
        if len(times) > 2 * LOG_LIMIT:
            del times[: len(times) - LOG_LIMIT]
            del values[: len(values) - LOG_LIMIT]

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[Tuple[float, float]]:
        return zip(self.times, self.values)

    def __getitem__(self, index: int) -> Tuple[float, float]:
        return self.times[index], self.values[index]


def bucket_series(
    log: Iterable[Tuple[float, float]],
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
        log: Iterable[Tuple[float, float]],
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

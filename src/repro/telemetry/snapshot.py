"""A frozen export of a registry's state, ready for reporting.

``MetricsRegistry.snapshot()`` produces one of these and ``render()``
turns it into a plain-text telemetry section.  The snapshot owns plain
data (dicts, tuples, SpanRecords) so it stays valid after the registry
is reset or the simulation torn down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.telemetry.spans import SpanRecord


@dataclass
class MetricsSnapshot:
    """Counters, gauges, histogram summaries, spans, traces, kernel stats."""

    counters: Dict[str, float] = field(default_factory=dict)
    #: name -> (final value, peak value)
    gauges: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    #: name -> {count, total, mean, min, max}
    histograms: Dict[str, Dict[str, float]] = field(default_factory=dict)
    spans: List[SpanRecord] = field(default_factory=list)
    traces: List[Any] = field(default_factory=list)
    kernel: Dict[str, float] = field(default_factory=dict)

    # -- queries -------------------------------------------------------------
    def counter(self, name: str, default: float = 0.0) -> float:
        return self.counters.get(name, default)

    def span_names(self) -> List[str]:
        """Distinct span names, in first-completion order."""
        seen: Dict[str, None] = {}
        for record in self.spans:
            seen.setdefault(record.name, None)
        return list(seen)

    def spans_named(self, name: str) -> List[SpanRecord]:
        return [record for record in self.spans if record.name == name]

    def span_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-name aggregate: count, total/min/max/mean duration."""
        summary: Dict[str, Dict[str, float]] = {}
        for record in self.spans:
            entry = summary.setdefault(
                record.name,
                {"count": 0, "total": 0.0, "min": float("inf"), "max": float("-inf")},
            )
            entry["count"] += 1
            entry["total"] += record.duration
            entry["min"] = min(entry["min"], record.duration)
            entry["max"] = max(entry["max"], record.duration)
        for entry in summary.values():
            entry["mean"] = entry["total"] / entry["count"]
        return summary

    # -- serialisation -------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        return {
            "counters": dict(self.counters),
            "gauges": {n: list(v) for n, v in self.gauges.items()},
            "histograms": {n: dict(s) for n, s in self.histograms.items()},
            "spans": {
                name: {k: round(v, 6) for k, v in entry.items()}
                for name, entry in self.span_summary().items()
            },
            "kernel": dict(self.kernel),
        }

    def render(self) -> str:
        """A human-readable telemetry section (plain text)."""
        lines: List[str] = ["telemetry"]

        if self.counters:
            lines.append("  counters:")
            for name in sorted(self.counters):
                lines.append(f"    {name:<40} {_fmt_num(self.counters[name])}")

        if self.gauges:
            lines.append("  gauges (final / peak):")
            for name in sorted(self.gauges):
                value, peak = self.gauges[name]
                lines.append(f"    {name:<40} {_fmt_num(value)} / {_fmt_num(peak)}")

        if self.histograms:
            lines.append("  histograms:")
            for name in sorted(self.histograms):
                s = self.histograms[name]
                lines.append(
                    f"    {name:<40} n={s['count']:<6g} "
                    f"mean={s['mean']:.4g} min={s['min']:.4g} max={s['max']:.4g}"
                )

        summary = self.span_summary()
        if summary:
            lines.append("  spans:")
            for name in sorted(summary):
                s = summary[name]
                lines.append(
                    f"    {name:<40} n={s['count']:<6g} "
                    f"mean={s['mean']:.4g}s total={s['total']:.4g}s"
                )

        if self.kernel:
            lines.append("  kernel:")
            for name in sorted(self.kernel):
                lines.append(f"    {name:<40} {_fmt_num(self.kernel[name])}")

        for trace in self.traces:
            lines.append(f"  trace {trace.name}: {trace.sparkline()}")

        if len(lines) == 1:
            lines.append("  (no instruments recorded)")
        return "\n".join(lines)


def _fmt_num(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return f"{value:.4g}"

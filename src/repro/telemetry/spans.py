"""Hierarchical timed spans.

A span is a named, tagged interval of (simulated) time::

    with telemetry.span("s2v.phase1", task=task_index):
        yield from phase1(...)

Spans nest: while a span is open, further spans opened by the *same
simulation process* become its children.  Nesting is tracked per active
process — interleaved task attempts running in the same environment each
maintain an independent stack, so concurrency does not corrupt ancestry.

A span works across ``yield from`` inside generator-based sim processes
because the registry consults ``env.active_process`` at open/close time,
not at resume time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple


@dataclass(frozen=True)
class SpanRecord:
    """An immutable record of one finished span."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    end: float
    tags: Tuple[Tuple[str, Any], ...] = ()
    error: Optional[str] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def tag_dict(self) -> Dict[str, Any]:
        return dict(self.tags)

    def __str__(self) -> str:
        tags = " ".join(f"{k}={v}" for k, v in self.tags)
        label = f"{self.name} [{tags}]" if tags else self.name
        suffix = f" ERROR({self.error})" if self.error else ""
        return f"{label} {self.start:.4f}s..{self.end:.4f}s ({self.duration:.4f}s){suffix}"


class Span:
    """An open span; use as a context manager."""

    __slots__ = ("span_id", "name", "tags", "parent", "start", "end", "error", "_registry")

    def __init__(self, registry, name: str, tags: Dict[str, Any]):
        self.span_id = next(registry._span_ids)
        self.name = name
        self.tags = tags
        self.parent: Optional["Span"] = None
        self.start = 0.0
        self.end = 0.0
        self.error: Optional[str] = None
        self._registry = registry

    def tag(self, **tags: Any) -> "Span":
        """Attach extra tags; returns self for chaining."""
        self.tags.update(tags)
        return self

    def __enter__(self) -> "Span":
        self.start = self._registry.now()
        self._registry._open_span(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end = self._registry.now()
        if exc is not None:
            self.error = f"{exc_type.__name__}: {exc}"
        self._registry._close_span(self)

    def record(self) -> SpanRecord:
        return SpanRecord(
            span_id=self.span_id,
            parent_id=self.parent.span_id if self.parent is not None else None,
            name=self.name,
            start=self.start,
            end=self.end,
            tags=tuple(sorted(self.tags.items())),
            error=self.error,
        )

    def __repr__(self) -> str:
        return f"Span({self.name!r}, id={self.span_id})"

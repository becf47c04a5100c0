"""What a benchmark area *is*: a parameter grid plus how to measure it.

An area declares its axes (the cross product is the set of *cells*), a
cell runner, the shape checks the finished cells must satisfy, the
paper's stated values and a gate policy.  The machinery that runs,
reports and gates areas is :mod:`repro.bench.grid`; the areas themselves
are one module each under :mod:`repro.bench.areas`.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple


def config_fingerprint(config: Dict[str, Any]) -> str:
    """Short stable digest of a configuration dict."""
    blob = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


# ------------------------------------------------------------------ statuses
DONE = "DONE"
FAILED = "FAILED"

Cell = Dict[str, Any]
Checks = List[Tuple[str, bool]]


class GridError(Exception):
    """Harness-level failure (a grid declared without axes or values)."""


class GridCellError(Exception):
    """A cell's measurement produced an invalid result."""


class ParameterGrid:
    """A named cross product of axes; iteration order is deterministic."""

    def __init__(self, area: str, axes: Mapping[str, Sequence[Any]]):
        if not axes:
            raise GridError(f"grid {area!r} declares no axes")
        self.area = area
        self.axes: Dict[str, Tuple[Any, ...]] = {
            name: tuple(values) for name, values in axes.items()
        }
        for name, values in self.axes.items():
            if not values:
                raise GridError(f"grid {area!r} axis {name!r} is empty")

    def cells(self) -> List[Dict[str, Any]]:
        """Every cell's parameters, in row-major axis order."""
        out: List[Dict[str, Any]] = [{}]
        for name, values in self.axes.items():
            out = [dict(cell, **{name: v}) for cell in out for v in values]
        return out

    def cell_id(self, params: Mapping[str, Any]) -> str:
        return ",".join(f"{name}={params[name]}" for name in self.axes)

    def fingerprint(self) -> str:
        return config_fingerprint({"area": self.area, "axes": self.axes})

    def __len__(self) -> int:
        n = 1
        for values in self.axes.values():
            n *= len(values)
        return n


class BenchArea:
    """One benchmark area: a grid, a cell runner, checks and a gate policy.

    ``axes`` is the area's one grid: every run, CI's included, executes
    all of it.  ``checks`` is only called once every cell is DONE — the
    harness itself records "all cells DONE" — so it may index cells
    without guarding.  The runner returns a metrics dict: its
    ``sim_seconds`` is the cell's simulated duration, and its ``wall``, a
    zero-argument statement, is what the grid times into the ``wall_ms``
    metric.  An area whose cells return one says ``wall=True``, and
    ``grid --pairs`` judges it against the parent tree by default.
    ``paper`` maps a ``cell_id`` to the seconds the paper states for that
    cell (the report's "paper (s)" column); ``notes`` are printed under
    the table.
    """

    def __init__(self, name: str, title: str,
                 axes: Mapping[str, Sequence[Any]],
                 runner: Callable[[Dict[str, Any], Dict[str, Any]],
                                  Dict[str, Any]],
                 config: Optional[Dict[str, Any]] = None,
                 checks: Optional[Callable[[List[Cell]], Checks]] = None,
                 gate: Optional[Dict[str, Any]] = None,
                 paper: Optional[Mapping[str, float]] = None,
                 notes: Sequence[str] = (), wall: bool = False):
        self.name = name
        self.title = title
        self.axes = dict(axes)
        self.runner = runner
        self.config = dict(config or {})
        self.checks = checks or (lambda cells: [])
        #: gate policy copied into the artifact; the CI gate reads it from
        #: the *baseline*, so loosening a band requires a baseline commit
        self.gate = dict(gate or {})
        self.paper = dict(paper or {})
        self.notes = list(notes)
        self.wall = wall

    def grid(self) -> ParameterGrid:
        return ParameterGrid(self.name, self.axes)

    def run_cell(self, params: Dict[str, Any]) -> Dict[str, Any]:
        return self.runner(params, self.config)


#: the two-sided band every sim-seconds area is gated with: sim time is a
#: function of the cell's inputs, so the band only absorbs platform
#: differences (zlib builds deflate to different sizes, and charged bytes
#: follow) — a cost-model change commits a new baseline instead
SIM_GATE = {"sim_tolerance": 0.02}


def keyed(cells: Sequence[Cell], metric: Optional[str] = None) -> Dict[Any, Any]:
    """Cells' sim seconds (or one named metric, if reported) by axis values.

    The key is the tuple of the cell's parameter values in axis order —
    or the bare value for a one-axis grid.
    """
    out: Dict[Any, Any] = {}
    for cell in cells:
        key = tuple(cell["params"].values())
        value = cell["sim_seconds"] if metric is None else cell["metrics"].get(metric)
        out[key[0] if len(key) == 1 else key] = value
    return out

"""Experiment reports: paper-vs-measured tables.

Every benchmark area produces an :class:`ExperimentReport` that prints
(and saves) the same rows/series the paper reports, side by side with the
reproduction's measured values.  Absolute numbers are not expected to
match (the substrate is a calibrated simulator); the *shape* — who wins,
by roughly what factor, where crossovers fall — is the reproduction
target, so each report may carry explicit shape checks.

Saving a report emits two artifacts under ``benchmarks/results/``:

- ``<exp_id>.txt`` — the human table, exactly as printed;
- ``<exp_id>.json`` — a machine-readable sidecar carrying the raw rows,
  every check outcome, the experiment's config fingerprint and its wall/
  sim timings.  The grid harness (:mod:`repro.bench.grid`) extends it
  through ``payload`` into the ``BENCH_<area>.json`` artifact, so all
  persisted perf history shares one schema.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: version of the JSON sidecar / BENCH artifact schema; bump on any
#: backwards-incompatible change so the CI gate refuses stale baselines
REPORT_SCHEMA_VERSION = 1


def config_fingerprint(config: Dict[str, Any]) -> str:
    """Short stable digest of an experiment's configuration dict."""
    blob = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def append_jsonl(path: str, record: Dict[str, Any]) -> None:
    """Append one JSON record to a line-oriented journal file."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True, default=str) + "\n")


class ExperimentReport:
    """One experiment's paper-vs-measured comparison."""

    def __init__(self, exp_id: str, title: str):
        self.exp_id = exp_id
        self.title = title
        self.columns: List[str] = ["case", "paper", "measured"]
        self.rows: List[Tuple] = []
        self.notes: List[str] = []
        self.checks: List[Tuple[str, bool]] = []
        #: the inputs that produced these numbers (fingerprinted on save)
        self.config: Dict[str, Any] = {}
        #: real seconds the harness spent producing the report
        self.wall_seconds: Optional[float] = None
        #: simulated seconds elapsed across the experiment's fabrics
        self.sim_seconds: Optional[float] = None
        #: extra machine-readable payload merged into the JSON sidecar
        #: (the grid harness stores its per-cell records here)
        self.payload: Dict[str, Any] = {}

    def set_columns(self, columns: Sequence[str]) -> None:
        self.columns = list(columns)

    def add(self, *values: Any) -> None:
        self.rows.append(tuple(values))

    def note(self, text: str) -> None:
        self.notes.append(text)

    def check(self, description: str, passed: bool) -> None:
        """Record a shape assertion (who-wins / monotonicity / factor)."""
        self.checks.append((description, bool(passed)))

    def timing(self, wall_seconds: Optional[float] = None,
               sim_seconds: Optional[float] = None) -> None:
        """Record how long the experiment took, in real and sim seconds."""
        if wall_seconds is not None:
            self.wall_seconds = wall_seconds
        if sim_seconds is not None:
            self.sim_seconds = sim_seconds

    @property
    def all_checks_pass(self) -> bool:
        return all(ok for __, ok in self.checks)

    def failed_checks(self) -> List[str]:
        return [desc for desc, ok in self.checks if not ok]

    # -- rendering ---------------------------------------------------------------
    def render(self) -> str:
        out = [f"== {self.exp_id}: {self.title} =="]
        widths = [len(c) for c in self.columns]
        formatted_rows = []
        for row in self.rows:
            cells = [_fmt(v) for v in row]
            cells += [""] * (len(self.columns) - len(cells))
            formatted_rows.append(cells)
            for index, cell in enumerate(cells[: len(widths)]):
                widths[index] = max(widths[index], len(cell))
        header = "  ".join(c.ljust(widths[i]) for i, c in enumerate(self.columns))
        out.append(header)
        out.append("-" * len(header))
        for cells in formatted_rows:
            out.append(
                "  ".join(
                    cell.ljust(widths[i]) if i < len(widths) else cell
                    for i, cell in enumerate(cells)
                )
            )
        for note in self.notes:
            out.append(f"note: {note}")
        for description, ok in self.checks:
            out.append(f"[{'PASS' if ok else 'FAIL'}] {description}")
        if self.wall_seconds is not None or self.sim_seconds is not None:
            wall = "-" if self.wall_seconds is None else f"{self.wall_seconds:.2f}"
            sim = "-" if self.sim_seconds is None else f"{self.sim_seconds:.1f}"
            out.append(f"timing: wall {wall} s, sim {sim} s")
        return "\n".join(out)

    # -- persistence -------------------------------------------------------------
    def to_json(self) -> Dict[str, Any]:
        """The machine-readable sidecar: raw rows, checks, config, timing.

        ``payload`` keys are merged at the top level (they may not shadow
        the report's own keys), so harnesses like the benchmark grid can
        extend the schema without a second file format.
        """
        doc: Dict[str, Any] = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "exp_id": self.exp_id,
            "title": self.title,
            "columns": list(self.columns),
            "rows": [list(row) for row in self.rows],
            "notes": list(self.notes),
            "checks": [
                {"description": desc, "passed": ok} for desc, ok in self.checks
            ],
            "config": dict(self.config),
            "config_fingerprint": config_fingerprint(self.config),
            "wall_seconds": self.wall_seconds,
            "sim_seconds": self.sim_seconds,
        }
        for key, value in self.payload.items():
            if key in doc:
                raise ValueError(f"payload key {key!r} shadows a report field")
            doc[key] = value
        return doc

    def save(self, directory: str = "benchmarks/results") -> str:
        """Write the ``.txt`` table plus its ``.json`` sidecar.

        Returns the text path.  The sidecar keeps everything the table
        loses to formatting — raw row values, check booleans, the config
        fingerprint — so a later run can be compared mechanically against
        this one instead of diffing prose.
        """
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"{self.exp_id}.txt")
        with open(path, "w") as handle:
            handle.write(self.render() + "\n")
        self.save_json(os.path.join(directory, f"{self.exp_id}.json"))
        return path

    def save_json(self, path: str) -> str:
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        doc = self.to_json()
        doc["saved_at"] = time.strftime("%Y-%m-%dT%H:%M:%S")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True, default=str)
            handle.write("\n")
        return path


def _fmt(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value >= 100:
            return f"{value:.0f}"
        if value >= 1:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)

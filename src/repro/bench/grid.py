"""Resumable experiment-grid harness with a persisted perf trajectory.

The paper's evidence is a parameter grid — Figures 6-12 sweep partitions
× cluster size × data scale × transport, Tables 2-4 are two- and
three-cell grids — so this harness is the one way a paper figure, table
or ablation is produced.  What an area *is* (its
:class:`~repro.bench.area.ParameterGrid`, cell runner, shape checks,
paper values) lives in :mod:`repro.bench.area`; the areas themselves are
one module each under :mod:`repro.bench.areas`.  This module is the
machinery that runs them:

- a :class:`ResultsStore` persists one record per cell with a status
  (``PENDING/RUNNING/DONE/FAILED``) into an append-only JSONL journal, so
  an interrupted sweep **resumes** instead of restarting — and publishes
  the finished trajectory into the repro's own Vertica tables
  (``bench_results``, written via the S2V connector, read back via V2S:
  the measurement store dogfoods the system under measurement);
- a :class:`GridRunner` executes the pending cells of a grid through one
  area's cell runner, journaling begin/done/fail around each;
- each area emits a schema-versioned ``BENCH_<area>.json`` artifact
  (routed through :class:`~repro.bench.report.ExperimentReport`'s JSON
  sidecar) carrying the cost-model fingerprint plus per-cell sim and
  wall seconds, next to the paper-vs-measured ``BENCH_<area>.txt`` table;
- :func:`compare_artifacts` is the CI perf gate: a fresh artifact is
  compared against the committed baseline with tolerance bands, and any
  regression (or stale grid/cost-model fingerprint) fails the job;
- ``--update-baselines`` appends one record per area to
  ``trajectory.jsonl``, which ``--trajectory`` renders across PRs.

Command line::

    python -m repro.bench.grid                  # every area (CI runs this)
    python -m repro.bench.grid fig06 staging    # selected areas
    python -m repro.bench.grid --full           # the full (large) grids
    python -m repro.bench.grid --gate           # compare vs baselines
    python -m repro.bench.grid --list           # show areas and axes
    python -m repro.bench.grid --trajectory     # render the perf history

Interrupt a sweep at any point and re-run the same command: completed
cells are skipped, cells that were mid-flight are reconciled back to
PENDING and re-run.  ``--fresh`` discards the journal and restarts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.bench.area import (
    DONE,
    FAILED,
    PENDING,
    RUNNING,
    BenchArea,
    GridError,
    ParameterGrid,
)
from repro.bench.areas import AREAS
from repro.bench.fabric import Fabric
from repro.bench.report import ExperimentReport, append_jsonl, config_fingerprint
from repro.connector.costmodel import NULL_COST_MODEL, PAPER_COST_MODEL
from repro.spark.row import StructField, StructType

#: the Vertica table the results store publishes finished cells into
RESULTS_TABLE = "bench_results"
RESULTS_SCHEMA = StructType([
    StructField("area", "string"),
    StructField("cell_id", "string"),
    StructField("status", "string"),
    StructField("attempts", "long"),
    StructField("sim_seconds", "double"),
    StructField("wall_seconds", "double"),
])


def cost_model_fingerprint(cost_model=PAPER_COST_MODEL) -> str:
    """Digest of every cost-model knob; baselines are only comparable
    against runs calibrated identically."""
    return config_fingerprint(vars(cost_model))


# ------------------------------------------------------------- results store
class ResultsStore:
    """One grid's per-cell records, journaled for resume.

    The journal is append-only JSONL: a ``grid`` header pins the axes
    fingerprint, then ``begin``/``done``/``fail`` events per cell.
    :meth:`load` folds the events into the latest state; cells left
    ``RUNNING`` by a killed process are reconciled back to ``PENDING``
    (their attempt count survives, so flaky cells are visible).
    """

    def __init__(self, path: str, grid: ParameterGrid):
        self.path = path
        self.grid = grid
        self._records: Dict[str, Dict[str, Any]] = {}
        #: cells found mid-flight on load and reset to PENDING
        self.reconciled: List[str] = []
        self.load()

    # -- journal replay ---------------------------------------------------------
    def load(self) -> None:
        self._records = {
            self.grid.cell_id(params): {
                "cell_id": self.grid.cell_id(params),
                "params": dict(params),
                "status": PENDING,
                "attempts": 0,
                "sim_seconds": None,
                "wall_seconds": None,
                "metrics": {},
                "error": None,
            }
            for params in self.grid.cells()
        }
        self.reconciled = []
        if not os.path.exists(self.path):
            return
        with open(self.path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                self._apply(json.loads(line))
        for record in self._records.values():
            if record["status"] == RUNNING:
                record["status"] = PENDING
                self.reconciled.append(record["cell_id"])

    def _apply(self, event: Dict[str, Any]) -> None:
        kind = event.get("event")
        if kind == "grid":
            if event.get("fingerprint") != self.grid.fingerprint():
                raise GridError(
                    f"journal {self.path} was written for a different grid "
                    f"(fingerprint {event.get('fingerprint')!r} != "
                    f"{self.grid.fingerprint()!r}); re-run with --fresh"
                )
            return
        record = self._records.get(event.get("cell_id", ""))
        if record is None:  # a cell the current grid no longer declares
            return
        if kind == "begin":
            record["status"] = RUNNING
            record["attempts"] += 1
        elif kind == "done":
            record["status"] = DONE
            record["sim_seconds"] = event.get("sim_seconds")
            record["wall_seconds"] = event.get("wall_seconds")
            record["metrics"] = event.get("metrics", {})
            record["error"] = None
        elif kind == "fail":
            record["status"] = FAILED
            record["wall_seconds"] = event.get("wall_seconds")
            record["error"] = event.get("error")

    # -- event writers ------------------------------------------------------------
    def _append(self, event: Dict[str, Any]) -> None:
        if not os.path.exists(self.path):
            append_jsonl(self.path, {
                "event": "grid",
                "area": self.grid.area,
                "axes": self.grid.axes,
                "fingerprint": self.grid.fingerprint(),
            })
        append_jsonl(self.path, event)
        self._apply(event)

    def begin(self, cell_id: str) -> None:
        self._append({
            "event": "begin",
            "cell_id": cell_id,
            "params": self._records[cell_id]["params"],
            "at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        })

    def complete(self, cell_id: str, metrics: Dict[str, Any],
                 wall_seconds: float) -> None:
        metrics = dict(metrics)
        sim = metrics.pop("sim_seconds", None)
        self._append({
            "event": "done",
            "cell_id": cell_id,
            "sim_seconds": None if sim is None else round(sim, 3),
            "wall_seconds": round(wall_seconds, 4),
            "metrics": metrics,
        })

    def fail(self, cell_id: str, error: str, wall_seconds: float) -> None:
        self._append({
            "event": "fail",
            "cell_id": cell_id,
            "error": error,
            "wall_seconds": round(wall_seconds, 4),
        })

    # -- accessors ----------------------------------------------------------------
    def record(self, cell_id: str) -> Dict[str, Any]:
        return self._records[cell_id]

    def records(self) -> List[Dict[str, Any]]:
        """All cell records, in grid order."""
        return [self._records[self.grid.cell_id(p)] for p in self.grid.cells()]

    def counts(self) -> Dict[str, int]:
        out = {PENDING: 0, RUNNING: 0, DONE: 0, FAILED: 0}
        for record in self._records.values():
            out[record["status"]] += 1
        return out

    def discard(self) -> None:
        if os.path.exists(self.path):
            os.remove(self.path)
        self.load()


# -------------------------------------------------------- Vertica dogfooding
def publish_results(stores: Sequence[ResultsStore],
                    fabric: Optional[Fabric] = None) -> Tuple[Fabric, int]:
    """Persist every finished cell into the repro's own Vertica tables.

    Creates ``bench_results`` (one CREATE TABLE through the engine) and
    appends one row per DONE/FAILED cell **via the S2V connector** — the
    store's durable query surface is the system under measurement.
    Returns the fabric and the number of rows written.
    """
    fabric = fabric or Fabric(num_vertica=2, num_spark=2,
                              cost_model=NULL_COST_MODEL)
    session = fabric.vertica.db.connect()
    try:
        exists = session.execute(
            "SELECT COUNT(*) FROM v_catalog.tables "
            f"WHERE table_name = '{RESULTS_TABLE.upper()}'"
        ).scalar() > 0
        if not exists:
            session.execute(RESULTS_SCHEMA.create_table_sql(
                RESULTS_TABLE, segmented_by=["cell_id"], varchar_length=500,
            ))
    finally:
        session.close()
    rows = []
    for store in stores:
        for record in store.records():
            if record["status"] not in (DONE, FAILED):
                continue
            rows.append((
                store.grid.area,
                record["cell_id"],
                record["status"],
                record["attempts"],
                float(record["sim_seconds"] if record["sim_seconds"]
                      is not None else -1.0),
                float(record["wall_seconds"] if record["wall_seconds"]
                      is not None else -1.0),
            ))
    if not rows:
        return fabric, 0
    df = fabric.spark.create_dataframe(rows, RESULTS_SCHEMA, num_partitions=2)
    df.write.format("vertica").options(
        db=fabric.vertica, table=RESULTS_TABLE, numpartitions=2,
        scale_factor=1.0,
    ).mode("append").save()
    return fabric, len(rows)


def read_results(fabric: Fabric) -> List[Tuple]:
    """Read the published trajectory back through the V2S connector."""
    df = fabric.spark.read.format("vertica").options(
        db=fabric.vertica, table=RESULTS_TABLE, numpartitions=2,
        scale_factor=1.0,
    ).load()
    return df.collect()


# -------------------------------------------------------------------- runner
class GridRunner:
    """Executes a grid's pending cells through one cell runner."""

    def __init__(self, grid: ParameterGrid, runner: Callable[[Dict[str, Any]],
                 Dict[str, Any]], store: ResultsStore,
                 log: Callable[[str], None] = print):
        self.grid = grid
        self.runner = runner
        self.store = store
        self.log = log

    def run(self, resume: bool = True) -> Dict[str, int]:
        """Run every non-DONE cell; returns run/skipped/failed counts.

        With ``resume`` (the default) DONE cells are skipped and FAILED
        cells are retried; without it the journal is discarded first.
        """
        if not resume:
            self.store.discard()
        if self.store.reconciled:
            self.log(
                f"[{self.grid.area}] reconciled {len(self.store.reconciled)} "
                f"interrupted cell(s) back to PENDING"
            )
        summary = {"run": 0, "skipped": 0, "failed": 0,
                   "reconciled": len(self.store.reconciled)}
        for params in self.grid.cells():
            cell_id = self.grid.cell_id(params)
            record = self.store.record(cell_id)
            if record["status"] == DONE:
                summary["skipped"] += 1
                continue
            self.store.begin(cell_id)
            started = time.perf_counter()
            try:
                metrics = self.runner(dict(params))
            except KeyboardInterrupt:
                raise  # journal keeps the begin event; next run reconciles
            except Exception as exc:  # noqa: BLE001 - journaled, not hidden
                wall = time.perf_counter() - started
                self.store.fail(cell_id, repr(exc), wall)
                summary["failed"] += 1
                self.log(f"[{self.grid.area}] FAILED {cell_id}: {exc!r}")
                continue
            wall = time.perf_counter() - started
            self.store.complete(cell_id, metrics, wall)
            summary["run"] += 1
            sim = metrics.get("sim_seconds")
            shown = "-" if sim is None else f"{sim:.1f}s sim"
            self.log(f"[{self.grid.area}] DONE {cell_id} ({shown}, "
                     f"{wall:.2f}s wall)")
        return summary


# ------------------------------------------------------------------ artifacts
def build_area_report(area: BenchArea, store: ResultsStore,
                      smoke: bool) -> ExperimentReport:
    """Fold a store's cells into the area's ``BENCH_<area>`` report.

    The report's JSON sidecar *is* the artifact: per-cell records ride in
    the payload next to the grid and cost-model fingerprints the CI gate
    keys on.
    """
    cells = store.records()
    report = ExperimentReport(f"BENCH_{area.name}", area.title)
    axis_names = list(store.grid.axes)
    paper = ["paper (s)"] if area.paper else []
    report.set_columns(
        axis_names + ["status"] + paper + ["sim (s)", "wall (s)", "metrics"])
    total_wall = 0.0
    total_sim = 0.0
    for record in cells:
        metrics = ", ".join(
            f"{k}={v}" for k, v in sorted(record["metrics"].items())
        )
        row = [record["params"][a] for a in axis_names] + [record["status"]]
        if area.paper:
            row.append(area.paper.get(record["cell_id"]))
        report.add(*row, record["sim_seconds"], record["wall_seconds"],
                   metrics or None)
        total_wall += record["wall_seconds"] or 0.0
        total_sim += record["sim_seconds"] or 0.0
    for note in area.notes:
        report.note(note)
    all_done = all(record["status"] == DONE for record in cells)
    report.check("all cells DONE", all_done)
    if all_done:  # shape checks index cells freely; they need every one
        for description, ok in area.checks(cells):
            report.check(description, ok)
    report.config = dict(area.config, area=area.name, smoke=smoke)
    report.timing(wall_seconds=round(total_wall, 3),
                  sim_seconds=round(total_sim, 3))
    report.payload = {
        "area": area.name,
        "grid": {"axes": {k: list(v) for k, v in store.grid.axes.items()},
                 "fingerprint": store.grid.fingerprint()},
        "cost_model_fingerprint": cost_model_fingerprint(),
        "gate": dict(area.gate),
        "cells": cells,
    }
    return report


def artifact_path(results_dir: str, area_name: str) -> str:
    return os.path.join(results_dir, f"BENCH_{area_name}.json")


def load_artifact(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------- gate
def compare_artifacts(fresh: Dict[str, Any],
                      baseline: Dict[str, Any]) -> List[str]:
    """The perf gate: why a fresh artifact regressed from its baseline.

    Returns a list of human-readable failures (empty = gate passes):

    - schema / grid / cost-model fingerprints must match (a stale
      baseline is a failure, not a silent skip);
    - every baseline cell must be DONE in the fresh run;
    - sim seconds must stay within baseline × (1 ± ``sim_tolerance``):
      a run is a function of its inputs, so any move — slower *or*
      faster — is a cost-model change that has to say so by committing
      a new baseline; and a banded cell may not stop reporting sim time;
    - every check recorded in the fresh artifact must have passed
      (wall-clock metrics are machine-dependent, so they are never
      banded: an area bounds them with a check against a static floor).
    """
    failures: List[str] = []
    area = baseline.get("area", "?")
    if fresh.get("schema_version") != baseline.get("schema_version"):
        failures.append(
            f"{area}: artifact schema_version {fresh.get('schema_version')} "
            f"!= baseline {baseline.get('schema_version')}"
        )
        return failures
    if (fresh.get("grid", {}).get("fingerprint")
            != baseline.get("grid", {}).get("fingerprint")):
        failures.append(
            f"{area}: grid fingerprint changed — the baseline no longer "
            f"describes this grid; regenerate and commit it"
        )
        return failures
    if (fresh.get("cost_model_fingerprint")
            != baseline.get("cost_model_fingerprint")):
        failures.append(
            f"{area}: cost-model fingerprint changed — recalibrate the "
            f"baseline alongside the cost model"
        )
        return failures
    gate = baseline.get("gate", {})
    tolerance = gate.get("sim_tolerance")
    fresh_cells = {c["cell_id"]: c for c in fresh.get("cells", [])}
    for base in baseline.get("cells", []):
        cell_id = base["cell_id"]
        cell = fresh_cells.get(cell_id)
        if cell is None:
            failures.append(f"{area}: cell {cell_id} missing from fresh run")
            continue
        if cell.get("status") != DONE:
            failures.append(
                f"{area}: cell {cell_id} is {cell.get('status')}, not DONE"
                + (f" ({cell.get('error')})" if cell.get("error") else "")
            )
            continue
        base_sim = base.get("sim_seconds")
        fresh_sim = cell.get("sim_seconds")
        if tolerance is not None and base_sim:
            if fresh_sim is None:
                failures.append(
                    f"{area}: cell {cell_id} stopped reporting sim time "
                    f"(baseline {base_sim:.3f}s)"
                )
            elif abs(fresh_sim - base_sim) > base_sim * tolerance:
                verdict = ("regressed" if fresh_sim > base_sim
                           else "improved without a new baseline")
                failures.append(
                    f"{area}: cell {cell_id} {verdict}: {fresh_sim:.3f}s sim "
                    f"vs baseline {base_sim:.3f}s "
                    f"({100 * (fresh_sim / base_sim - 1):+.1f}%, band "
                    f"±{100 * tolerance:.0f}%)"
                )
    for check in fresh.get("checks", []):
        if not check.get("passed"):
            failures.append(
                f"{area}: check failed: {check.get('description')}"
            )
    return failures


def gate_areas(area_names: Sequence[str], results_dir: str,
               baseline_dir: str,
               log: Callable[[str], None] = print) -> List[str]:
    """Compare every area's fresh artifact against its committed baseline."""
    failures: List[str] = []
    for name in area_names:
        fresh_path = artifact_path(results_dir, name)
        base_path = artifact_path(baseline_dir, name)
        if not os.path.exists(base_path):
            failures.append(f"{name}: no committed baseline at {base_path}")
            continue
        if not os.path.exists(fresh_path):
            failures.append(f"{name}: no fresh artifact at {fresh_path}; "
                            f"run the grid first")
            continue
        area_failures = compare_artifacts(
            load_artifact(fresh_path), load_artifact(base_path)
        )
        status = "PASS" if not area_failures else "FAIL"
        log(f"[gate] {name}: {status} "
            f"({fresh_path} vs {base_path})")
        failures.extend(area_failures)
    return failures


# ------------------------------------------------------------ trajectory view
SPARK_GLYPHS = "▁▂▃▄▅▆▇█"

#: the perf-history journal ``--update-baselines`` appends to (committed:
#: one record per area per PR is what ``--trajectory`` trends)
TRAJECTORY_BASENAME = "trajectory.jsonl"

#: sparklines show at most this many trailing runs per experiment
TRAJECTORY_WINDOW = 24


def sparkline(values: Sequence[Optional[float]]) -> str:
    """Render a series as unicode block glyphs (blank for missing points)."""
    present = [v for v in values if v is not None]
    if not present:
        return ""
    low, high = min(present), max(present)
    span = high - low
    glyphs = []
    for value in values:
        if value is None:
            glyphs.append(" ")
        elif span == 0:
            glyphs.append(SPARK_GLYPHS[0])
        else:
            index = int((value - low) / span * (len(SPARK_GLYPHS) - 1))
            glyphs.append(SPARK_GLYPHS[index])
    return "".join(glyphs)


def trajectory_lines(records: Sequence[Mapping[str, Any]],
                     source: str) -> List[str]:
    """Fold trajectory records into a markdown table with sparklines."""
    by_experiment: Dict[str, List[Mapping[str, Any]]] = {}
    for record in records:
        if record.get("kind") != "experiment":
            continue
        by_experiment.setdefault(str(record.get("experiment")), []).append(record)
    lines = [
        "# Performance trajectory",
        "",
        f"Rendered from `{source}`; one row per experiment, sparkline over "
        f"the last {TRAJECTORY_WINDOW} recorded wall times (low → high).",
        "",
        "| experiment | runs | last wall (s) | best wall (s) | last sim (s) "
        "| last checks | wall trend |",
        "|---|---:|---:|---:|---:|---|---|",
    ]
    for name in sorted(by_experiment):
        runs = by_experiment[name]
        walls = [r.get("wall_seconds") for r in runs]
        present = [w for w in walls if w is not None]
        latest = runs[-1]
        sim = latest.get("sim_seconds")
        lines.append(
            "| {name} | {count} | {last} | {best} | {sim} | {checks} "
            "| `{trend}` |".format(
                name=name,
                count=len(runs),
                last=f"{walls[-1]:.2f}" if walls[-1] is not None else "-",
                best=f"{min(present):.2f}" if present else "-",
                sim=f"{sim:.1f}" if sim is not None else "-",
                checks="pass" if latest.get("checks_passed") else "FAIL",
                trend=sparkline(walls[-TRAJECTORY_WINDOW:]),
            )
        )
    if not by_experiment:
        lines.append("| (no experiment records yet) | | | | | | |")
    return lines


def record_trajectory(results_dir: str, report: ExperimentReport) -> None:
    """Append one area run's ``experiment`` record to the trajectory."""
    append_jsonl(os.path.join(results_dir, TRAJECTORY_BASENAME), {
        "kind": "experiment",
        "experiment": report.payload["area"],
        "wall_seconds": report.wall_seconds,
        "sim_seconds": report.sim_seconds,
        "grid_fingerprint": report.payload["grid"]["fingerprint"],
        "cost_model_fingerprint": report.payload["cost_model_fingerprint"],
        "checks_passed": report.all_checks_pass,
        "failed_checks": report.failed_checks(),
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
    })


def render_trajectory(results_dir: str,
                      log: Callable[[str], None] = print) -> int:
    """``--trajectory``: write and print ``TRAJECTORY.md`` from the journal."""
    path = os.path.join(results_dir, TRAJECTORY_BASENAME)
    if not os.path.exists(path):
        log(f"no trajectory journal at {path}")
        return 1
    records = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except ValueError:
                continue  # a torn write never blocks the report
    lines = trajectory_lines(records, path)
    out_path = os.path.join(results_dir, "TRAJECTORY.md")
    with open(out_path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    for line in lines:
        log(line)
    log(f"\nwrote {out_path}")
    return 0


# ------------------------------------------------------------------------ CLI
def journal_path(results_dir: str, area_name: str, smoke: bool) -> str:
    flavor = "smoke" if smoke else "full"
    return os.path.join(results_dir, f"grid_{area_name}.{flavor}.jsonl")


def run_area(area: BenchArea, results_dir: str, smoke: bool = True,
             resume: bool = True,
             log: Callable[[str], None] = print) -> Tuple[ResultsStore,
                                                          ExperimentReport]:
    """Run one area's grid (resuming), then emit its BENCH artifact."""
    grid = area.grid(smoke=smoke)
    store = ResultsStore(journal_path(results_dir, area.name, smoke), grid)
    runner = GridRunner(grid, area.run_cell, store, log=log)
    summary = runner.run(resume=resume)
    log(f"[{area.name}] {summary['run']} run, {summary['skipped']} resumed "
        f"(skipped), {summary['failed']} failed of {len(grid)} cells")
    report = build_area_report(area, store, smoke=smoke)
    report.save(results_dir)
    log(f"[{area.name}] wrote {artifact_path(results_dir, area.name)}")
    return store, report


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.grid",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("areas", nargs="*",
                        help=f"areas to run (default: all of "
                             f"{sorted(AREAS)})")
    parser.add_argument("--list", action="store_true",
                        help="list areas, axes and cell counts")
    parser.add_argument("--full", action="store_true",
                        help="run the full grids where an area's smoke "
                             "subset is smaller")
    parser.add_argument("--fresh", action="store_true",
                        help="discard journals and restart the sweep")
    parser.add_argument("--results-dir", default="benchmarks/results")
    parser.add_argument("--baseline-dir", default="benchmarks/baselines")
    parser.add_argument("--gate", action="store_true",
                        help="compare existing artifacts against committed "
                             "baselines instead of running")
    parser.add_argument("--update-baselines", action="store_true",
                        help="after running, copy fresh artifacts into the "
                             "baseline directory and append one record per "
                             "area to trajectory.jsonl")
    parser.add_argument("--no-publish", action="store_true",
                        help="skip publishing the trajectory into the "
                             "dogfood Vertica results table")
    parser.add_argument("--trajectory", action="store_true",
                        help="render the perf-history journal "
                             "(trajectory.jsonl) into TRAJECTORY.md")
    args = parser.parse_args(argv)

    if args.trajectory:
        return render_trajectory(args.results_dir)

    if args.list:
        for name, area in sorted(AREAS.items()):
            smoke = area.grid(True)
            full = area.grid(False)
            print(f"{name:18s} {area.title}")
            print(f"{'':18s} axes: {full.axes} "
                  f"({len(smoke)} smoke / {len(full)} full cells)")
        return 0

    unknown = [a for a in args.areas if a not in AREAS]
    if unknown:
        print(f"unknown areas {unknown}; known: {sorted(AREAS)}",
              file=sys.stderr)
        return 2
    selected = args.areas or sorted(AREAS)

    if args.gate:
        failures = gate_areas(selected, args.results_dir, args.baseline_dir)
        if failures:
            print("\nPERF GATE FAILURES:", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print(f"perf gate passed for {len(selected)} area(s)")
        return 0

    smoke = not args.full
    stores: List[ResultsStore] = []
    bad = False
    for name in selected:
        store, report = run_area(AREAS[name], args.results_dir, smoke=smoke,
                                 resume=not args.fresh)
        stores.append(store)
        counts = store.counts()
        if counts[FAILED] or counts[PENDING] or not report.all_checks_pass:
            bad = True
        for description in report.failed_checks():
            print(f"[{name}] CHECK FAILED: {description}", file=sys.stderr)
        if args.update_baselines:
            report.save_json(artifact_path(args.baseline_dir, name))
            record_trajectory(args.results_dir, report)
            print(f"[{name}] baseline updated: "
                  f"{artifact_path(args.baseline_dir, name)}")

    if not args.no_publish:
        fabric, written = publish_results(stores)
        readback = read_results(fabric)
        print(f"published {written} cell row(s) into {RESULTS_TABLE} via "
              f"S2V; V2S reads back {len(readback)} row(s)")
        if written != len(readback):
            print("dogfood store round-trip mismatch", file=sys.stderr)
            bad = True

    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())


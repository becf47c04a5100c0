"""Experiment-grid harness with a persisted perf trajectory.

The paper's evidence is a parameter grid — Figures 6-12 sweep partitions
× cluster size × data scale × transport, Tables 2-4 are two- and
three-cell grids — so this harness is the one way a paper figure, table
or ablation is produced.  What an area *is* (its
:class:`~repro.bench.area.ParameterGrid`, cell runner, shape checks,
paper values) lives in :mod:`repro.bench.area`; the areas themselves are
one module each under :mod:`repro.bench.areas`.  This module is the
machinery that runs them:

- :func:`run_area` runs every cell of an area's grid, in order, every
  time — a cell is a function of its inputs, so a sweep that was cut
  short or whose code changed is simply run again — and keeps one record
  per cell (``DONE`` with its sim and wall seconds and metrics, or
  ``FAILED`` with the exception; a failed cell never stops the sweep);
- each area emits a schema-versioned ``BENCH_<area>.json`` artifact
  (routed through :class:`~repro.bench.report.ExperimentReport`'s JSON
  sidecar) carrying the cost-model fingerprint plus the cell records,
  next to the paper-vs-measured ``BENCH_<area>.txt`` table;
- :func:`publish_results` writes the cell records into the repro's own
  Vertica tables (``bench_results``, written via the S2V connector, read
  back via V2S: the measurement store dogfoods the system under
  measurement);
- :func:`compare_artifacts` is the CI perf gate: a fresh artifact is
  compared against the committed baseline with tolerance bands, and any
  regression (or stale grid/cost-model fingerprint) fails the job;
- ``--update-baselines`` appends one record per area to
  ``trajectory.jsonl``, which ``--trajectory`` renders across PRs.

Command line::

    python -m repro.bench.grid                  # every area (CI runs this)
    python -m repro.bench.grid fig06 staging    # selected areas
    python -m repro.bench.grid --gate           # compare vs baselines
    python -m repro.bench.grid --list           # show areas and axes
    python -m repro.bench.grid --trajectory     # render the perf history
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.bench.area import DONE, FAILED, BenchArea, Cell
from repro.bench.areas import AREAS
from repro.bench.fabric import Fabric
from repro.bench.report import ExperimentReport, append_jsonl, config_fingerprint
from repro.connector.costmodel import NULL_COST_MODEL, PAPER_COST_MODEL
from repro.spark.row import StructField, StructType

#: the Vertica table finished cells are published into
RESULTS_TABLE = "bench_results"
RESULTS_SCHEMA = StructType([
    StructField("area", "string"),
    StructField("cell_id", "string"),
    StructField("status", "string"),
    StructField("sim_seconds", "double"),
    StructField("wall_seconds", "double"),
])


def cost_model_fingerprint(cost_model=PAPER_COST_MODEL) -> str:
    """Digest of every cost-model knob; baselines are only comparable
    against runs calibrated identically."""
    return config_fingerprint(vars(cost_model))


# ---------------------------------------------------------------------- cells
def run_cells(area: BenchArea,
              log: Callable[[str], None] = print) -> List[Cell]:
    """Run every cell of the area's grid, in order; one record per cell.

    A cell that raises is recorded ``FAILED`` with its error and the
    sweep goes on to the next one.
    """
    grid = area.grid()
    cells: List[Cell] = []
    for params in grid.cells():
        cell_id = grid.cell_id(params)
        metrics: Dict[str, Any] = {}
        error = None
        started = time.perf_counter()
        try:
            metrics = dict(area.run_cell(dict(params)))
        except Exception as exc:  # noqa: BLE001 - recorded, not hidden
            error = repr(exc)
        wall = round(time.perf_counter() - started, 4)
        sim = metrics.pop("sim_seconds", None)
        if error is None:
            shown = "-" if sim is None else f"{sim:.1f}s sim"
            log(f"[{area.name}] DONE {cell_id} ({shown}, {wall:.2f}s wall)")
        else:
            log(f"[{area.name}] FAILED {cell_id}: {error}")
        cells.append({
            "cell_id": cell_id,
            "params": params,
            "status": DONE if error is None else FAILED,
            "sim_seconds": None if sim is None else round(sim, 3),
            "wall_seconds": wall,
            "metrics": metrics,
            "error": error,
        })
    return cells


# -------------------------------------------------------- Vertica dogfooding
def publish_results(cells_by_area: Mapping[str, Sequence[Cell]],
                    fabric: Optional[Fabric] = None) -> Tuple[Fabric, int]:
    """Persist each area's cell records into the repro's own Vertica tables.

    Creates ``bench_results`` (one CREATE TABLE through the engine) and
    appends one row per cell **via the S2V connector** — the results'
    query surface is the system under measurement.  A time a cell did not
    report (a wall-only area's sim seconds, a FAILED cell's) is NULL, so
    SQL aggregates skip it.  Returns the fabric and the number of rows
    written.
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
    rows = [
        (area_name, cell["cell_id"], cell["status"],
         cell["sim_seconds"], cell["wall_seconds"])
        for area_name, cells in cells_by_area.items() for cell in cells
    ]
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


# ------------------------------------------------------------------ artifacts
def build_area_report(area: BenchArea,
                      cells: Sequence[Cell]) -> ExperimentReport:
    """Fold an area's cell records into its ``BENCH_<area>`` report.

    The report's JSON sidecar *is* the artifact: the cell records ride in
    the payload next to the grid and cost-model fingerprints the CI gate
    keys on.
    """
    grid = area.grid()
    report = ExperimentReport(f"BENCH_{area.name}", area.title)
    axis_names = list(grid.axes)
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
        total_wall += record["wall_seconds"]
        total_sim += record["sim_seconds"] or 0.0
    for note in area.notes:
        report.note(note)
    all_done = all(record["status"] == DONE for record in cells)
    report.check("all cells DONE", all_done)
    if all_done:  # shape checks index cells freely; they need every one
        for description, ok in area.checks(cells):
            report.check(description, ok)
    report.config = dict(area.config, area=area.name)
    report.timing(wall_seconds=round(total_wall, 3),
                  sim_seconds=round(total_sim, 3))
    report.payload = {
        "area": area.name,
        "grid": {"axes": {k: list(v) for k, v in grid.axes.items()},
                 "fingerprint": grid.fingerprint()},
        "cost_model_fingerprint": cost_model_fingerprint(),
        "gate": dict(area.gate),
        "cells": list(cells),
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
def run_area(area: BenchArea, results_dir: str,
             log: Callable[[str], None] = print) -> ExperimentReport:
    """Run every cell of one area's grid, then emit its BENCH artifact."""
    cells = run_cells(area, log)
    failed = sum(cell["status"] == FAILED for cell in cells)
    log(f"[{area.name}] {len(cells) - failed} done, {failed} failed "
        f"of {len(cells)} cells")
    report = build_area_report(area, cells)
    report.save(results_dir)
    log(f"[{area.name}] wrote {artifact_path(results_dir, area.name)}")
    return report


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
            grid = area.grid()
            print(f"{name:18s} {area.title}")
            print(f"{'':18s} axes: {grid.axes} ({len(grid)} cells)")
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

    cells_by_area: Dict[str, List[Cell]] = {}
    bad = False
    for name in selected:
        report = run_area(AREAS[name], args.results_dir)
        cells_by_area[name] = report.payload["cells"]
        if not report.all_checks_pass:  # "all cells DONE" is one of them
            bad = True
        for description in report.failed_checks():
            print(f"[{name}] CHECK FAILED: {description}", file=sys.stderr)
        if args.update_baselines:
            report.save_json(artifact_path(args.baseline_dir, name))
            record_trajectory(args.results_dir, report)
            print(f"[{name}] baseline updated: "
                  f"{artifact_path(args.baseline_dir, name)}")

    if not args.no_publish:
        fabric, written = publish_results(cells_by_area)
        readback = read_results(fabric)
        print(f"published {written} cell row(s) into {RESULTS_TABLE} via "
              f"S2V; V2S reads back {len(readback)} row(s)")
        if written != len(readback):
            print("dogfood store round-trip mismatch", file=sys.stderr)
            bad = True

    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())


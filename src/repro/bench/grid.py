"""Experiment-grid harness: run, report and gate every benchmark area.

The paper's evidence is a parameter grid (Figures 6-12 sweep partitions
× cluster size × data scale × transport; Tables 2-4 are small grids), so
this harness is the one way a paper figure, table or ablation is
produced.  What an area *is* lives in :mod:`repro.bench.area`, the areas
in :mod:`repro.bench.areas`; this module runs them:

- :func:`run_area` runs every cell of an area's grid, in order, every
  time (a cell is a function of its inputs), keeps one ``DONE`` or
  ``FAILED`` record per cell, and writes the schema-versioned
  ``BENCH_<area>.json`` artifact (:func:`build_artifact`) next to its
  paper-vs-measured ``BENCH_<area>.txt`` table (:func:`render_artifact`);
- :func:`publish_results` writes the records into the repro's own
  Vertica tables via S2V, read back via V2S: the store dogfoods the
  system under measurement;
- :func:`compare_artifacts` is the CI perf gate against the committed
  baseline: fingerprints, the sim band and the checks;
- :func:`diff_areas` (``--against DIR``) compares two runs cell by cell,
  wall fields aside: the check that a change is neutral;
- :func:`repro.bench.pairs.judge` (``--pairs TREE``) is the one judge
  of wall time: every statement a runner returns under ``"wall"``, in
  alternating pairs against the tree at ``TREE``;
- ``--update-baselines`` promotes a passing run's artifact to the
  baseline; the baselines' git history is the perf history.

Command line::

    python -m repro.bench.grid                  # every area (CI runs this)
    python -m repro.bench.grid fig06 staging    # selected areas
    python -m repro.bench.grid --gate           # compare vs baselines
    python -m repro.bench.grid --against DIR    # same cells as DIR's run?
    python -m repro.bench.grid --pairs TREE     # wall cells vs TREE's
    python -m repro.bench.grid --list           # show areas and axes
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.bench import pairs
from repro.bench.area import DONE, FAILED, BenchArea, Cell, config_fingerprint
from repro.bench.areas import AREAS
from repro.bench.fabric import Fabric
from repro.connector.costmodel import NULL_COST_MODEL, PAPER_COST_MODEL
from repro.spark.row import StructField, StructType

#: version of the ``BENCH_<area>.json`` schema; bump on any backwards-
#: incompatible change so the CI gate refuses stale baselines
REPORT_SCHEMA_VERSION = 1

#: one area run's ``BENCH_<area>.json`` document
Artifact = Dict[str, Any]

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
    sweep goes on to the next one.  A runner's ``"wall"`` statement is
    timed here, after the runner returns, over one window of
    :mod:`repro.bench.pairs`' timer, and reported as the ``wall_ms``
    metric (milliseconds per execution on this machine): the runner's own
    set-up is never timed.  Only checks within one run read it;
    ``--pairs`` judges wall time.
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
            statement = metrics.pop("wall", None)
            if statement is not None:
                n = pairs.calls_per_window(statement, pairs.WINDOW_SECONDS)
                metrics["wall_ms"] = round(1e3 * pairs.seconds(statement, n) / n, 3)
        except Exception as exc:  # noqa: BLE001 - recorded, not hidden
            metrics, error = {}, repr(exc)
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
    """Read the published cell records back through the V2S connector."""
    df = fabric.spark.read.format("vertica").options(
        db=fabric.vertica, table=RESULTS_TABLE, numpartitions=2,
        scale_factor=1.0,
    ).load()
    return df.collect()


# ------------------------------------------------------------------ artifacts
def build_artifact(area: BenchArea, cells: Sequence[Cell]) -> Artifact:
    """Fold an area's cell records into its ``BENCH_<area>`` artifact.

    Next to the cell records it carries the table the ``.txt`` renders
    (``columns``, ``rows``, ``notes``), every check outcome, the config
    and its fingerprint, wall/sim totals, and the grid and cost-model
    fingerprints the CI gate keys on.
    """
    grid = area.grid()
    axis_names = list(grid.axes)
    paper = ["paper (s)"] if area.paper else []
    rows = []
    for record in cells:
        metrics = ", ".join(
            f"{k}={v}" for k, v in sorted(record["metrics"].items())
        )
        row = [record["params"][a] for a in axis_names] + [record["status"]]
        if area.paper:
            row.append(area.paper.get(record["cell_id"]))
        rows.append(row + [record["sim_seconds"], record["wall_seconds"],
                           metrics or None])
    all_done = all(record["status"] == DONE for record in cells)
    checks = [("all cells DONE", all_done)]
    if all_done:  # shape checks index cells freely; they need every one
        checks += area.checks(cells)
    config = dict(area.config, area=area.name)
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "exp_id": f"BENCH_{area.name}",
        "title": area.title,
        "columns": axis_names + ["status"] + paper
                   + ["sim (s)", "wall (s)", "metrics"],
        "rows": rows,
        "notes": list(area.notes),
        "checks": [{"description": description, "passed": bool(ok)}
                   for description, ok in checks],
        "config": config,
        "config_fingerprint": config_fingerprint(config),
        "wall_seconds": round(sum(c["wall_seconds"] for c in cells), 3),
        "sim_seconds": round(sum(c["sim_seconds"] or 0.0 for c in cells), 3),
        "area": area.name,
        "grid": {"axes": {k: list(v) for k, v in grid.axes.items()},
                 "fingerprint": grid.fingerprint()},
        "cost_model_fingerprint": cost_model_fingerprint(),
        "gate": dict(area.gate),
        "cells": list(cells),
    }


def failed_checks(artifact: Artifact) -> List[str]:
    return [check["description"] for check in artifact["checks"]
            if not check["passed"]]


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


def render_artifact(artifact: Artifact) -> str:
    """The human ``BENCH_<area>.txt`` table: one aligned row per cell
    (``None`` as ``-``), then notes, ``[PASS]``/``[FAIL]`` checks and the
    wall/sim totals."""
    rows = [[_fmt(value) for value in row] for row in artifact["rows"]]
    widths = [max([len(column)] + [len(row[index]) for row in rows])
              for index, column in enumerate(artifact["columns"])]

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths))

    header = line(artifact["columns"])
    out = [f"== {artifact['exp_id']}: {artifact['title']} ==", header,
           "-" * len(header)]
    out += [line(row) for row in rows]
    out += [f"note: {note}" for note in artifact["notes"]]
    out += [f"[{'PASS' if check['passed'] else 'FAIL'}] {check['description']}"
            for check in artifact["checks"]]
    out.append(f"timing: wall {artifact['wall_seconds']:.2f} s, "
               f"sim {artifact['sim_seconds']:.1f} s")
    return "\n".join(out)


def artifact_path(results_dir: str, area_name: str) -> str:
    return os.path.join(results_dir, f"BENCH_{area_name}.json")


def save_json(path: str, artifact: Artifact) -> None:
    """Write ``artifact`` to ``path``, stamped with when it was saved."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(dict(artifact, saved_at=time.strftime("%Y-%m-%dT%H:%M:%S")),
                  handle, indent=2, sort_keys=True, default=str)
        handle.write("\n")


def save_artifact(results_dir: str, artifact: Artifact) -> None:
    """Write ``BENCH_<area>.txt`` and its ``BENCH_<area>.json``."""
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, f"{artifact['exp_id']}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_artifact(artifact) + "\n")
    save_json(artifact_path(results_dir, artifact["area"]), artifact)


def load_artifact(path: str) -> Artifact:
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
      a new baseline, and a banded cell may not stop reporting them;
    - every check recorded in the fresh artifact must have passed.
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
    tolerance = baseline.get("gate", {}).get("sim_tolerance")
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
        was, now = base.get("sim_seconds"), cell.get("sim_seconds")
        if tolerance is None or not was:
            continue
        if now is None:
            failures.append(f"{area}: cell {cell_id} stopped reporting sim "
                            f"time (baseline {was:.3f}s sim)")
        elif abs(now - was) > was * tolerance:
            verdict = ("regressed" if now > was
                       else "improved without a new baseline")
            failures.append(
                f"{area}: cell {cell_id} {verdict}: {now:.3f}s sim "
                f"vs baseline {was:.3f}s sim ({100 * (now / was - 1):+.1f}%, "
                f"band ±{100 * tolerance:.0f}%)"
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


def _without_wall(cell: Cell) -> Cell:
    """A cell's fields, each metric as ``metrics.<name>``, without those
    that measure this machine, not the cell: every one named ``wall…``."""
    fields = dict(cell, **{f"metrics.{k}": v
                           for k, v in cell.get("metrics", {}).items()})
    return {k: v for k, v in fields.items() if k != "metrics"
            and not k.removeprefix("metrics.").startswith("wall")}


def _changes(old: Cell, new: Cell) -> List[str]:
    """``field: old → new`` per differing field (``None``: a side lacks it)."""
    return [f"{k}: {old.get(k)!r} → {new.get(k)!r}"
            for k in dict.fromkeys([*old, *new]) if old.get(k) != new.get(k)]


def diff_areas(area_names: Sequence[str], results_dir: str, other_dir: str,
               log: Callable[[str], None] = print) -> int:
    """``--against``: the cells of two result directories that differ.

    Every field of a cell (status, params, error, sim seconds, every
    metric) counts except its wall fields.  Logs, per area, the cells
    compared and each differing cell's id and fields, ``other_dir``'s
    value first; a cell on one side only, or a missing artifact, counts.
    """
    differing = 0
    for name in area_names:
        paths = [artifact_path(d, name) for d in (results_dir, other_dir)]
        missing = [path for path in paths if not os.path.exists(path)]
        if missing:
            log(f"[against] {name}: no artifact at {missing[0]}")
            differing += 1
            continue
        ours, theirs = ({cell["cell_id"]: _without_wall(cell)
                         for cell in load_artifact(path)["cells"]}
                        for path in paths)
        ids = dict.fromkeys([*ours, *theirs])
        differ = {i: changes for i in ids
                  if (changes := _changes(theirs.get(i, {}), ours.get(i, {})))}
        log(f"[against] {name}: {len(ids)} cells compared, {len(differ)} "
            "differ" + "".join(f"\n  {i}" + "".join(f"\n    {c}" for c in cs)
                               for i, cs in differ.items()))
        differing += len(differ)
    return differing


# ------------------------------------------------------------------------ CLI
def run_area(area: BenchArea, results_dir: str,
             log: Callable[[str], None] = print) -> Artifact:
    """Run every cell of one area's grid, then emit its BENCH artifact."""
    cells = run_cells(area, log)
    failed = sum(cell["status"] == FAILED for cell in cells)
    log(f"[{area.name}] {len(cells) - failed} done, {failed} failed "
        f"of {len(cells)} cells")
    artifact = build_artifact(area, cells)
    save_artifact(results_dir, artifact)
    log(f"[{area.name}] wrote {artifact_path(results_dir, area.name)}")
    return artifact


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
                        help="after running, copy each passing area's fresh "
                             "artifact into the baseline directory")
    parser.add_argument("--against", metavar="DIR",
                        help="compare existing artifacts with DIR's cell by "
                             "cell, wall fields aside, instead of running; "
                             "exit 1 on any difference")
    parser.add_argument("--pairs", metavar="TREE",
                        help="judge every wall cell of the areas named (by "
                             "default those declared wall=True) against the "
                             "checkout at TREE in alternating pairs, instead "
                             "of running; exit 1 on a failed cell")
    parser.add_argument("--no-publish", action="store_true",
                        help="skip publishing the cell records into the "
                             "dogfood Vertica results table")
    args = parser.parse_args(argv)

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

    if args.against:
        return 1 if diff_areas(selected, args.results_dir, args.against) else 0

    if args.pairs:
        return pairs.judge(args.pairs, args.areas or [
            name for name in selected if AREAS[name].wall])

    cells_by_area: Dict[str, List[Cell]] = {}
    bad = False
    for name in selected:
        artifact = run_area(AREAS[name], args.results_dir)
        cells_by_area[name] = artifact["cells"]
        failed = failed_checks(artifact)  # "all cells DONE" is one of them
        for description in failed:
            print(f"[{name}] CHECK FAILED: {description}", file=sys.stderr)
        if failed:
            bad = True
            if args.update_baselines:
                print(f"[{name}] baseline NOT updated: a run with a failed "
                      f"cell or check never becomes the baseline",
                      file=sys.stderr)
        elif args.update_baselines:
            save_json(artifact_path(args.baseline_dir, name), artifact)
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


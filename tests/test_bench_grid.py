"""Tests for the experiment-grid harness.

The contract under test: a run executes every cell of its area, every
time (a raising cell is recorded FAILED and the sweep goes on), artifacts
are schema-versioned and fingerprinted, the CI gate trips on an injected
regression while passing on an identical baseline, and the cell records
round-trip through the repro's own Vertica tables via S2V/V2S.  The
registry tests pin the "one bench spine" contract: every paper figure,
table and ablation is an area with a committed, current, passing baseline.
"""

import copy
import json
import os
import re

import pytest

from repro.bench import pairs
from repro.bench.area import SIM_GATE, GridError, ParameterGrid
from repro.bench.grid import (
    AREAS,
    DONE,
    FAILED,
    REPORT_SCHEMA_VERSION,
    BenchArea,
    artifact_path,
    build_artifact,
    compare_artifacts,
    cost_model_fingerprint,
    diff_areas,
    failed_checks,
    load_artifact,
    main,
    publish_results,
    read_results,
    run_area,
    run_cells,
    save_artifact,
)


def tiny_grid(area="tiny"):
    return ParameterGrid(area, {"direction": ("v2s", "s2v"),
                                "partitions": (2, 4, 8)})


def deterministic_runner(params):
    """sim seconds derived from the cell's own parameters."""
    base = 100.0 if params["direction"] == "v2s" else 80.0
    return {"sim_seconds": base / params["partitions"],
            "rows_out": 1000 * params["partitions"]}


def flaky_runner(params):
    """Raises on both ``partitions=4`` cells."""
    if params["partitions"] == 4:
        raise RuntimeError("boom")
    return deterministic_runner(params)


def quiet(_msg):
    pass


class TestParameterGrid:
    def test_cells_are_the_ordered_cross_product(self):
        grid = tiny_grid()
        assert len(grid) == 6
        cells = grid.cells()
        assert cells[0] == {"direction": "v2s", "partitions": 2}
        assert cells[-1] == {"direction": "s2v", "partitions": 8}
        assert grid.cell_id(cells[0]) == "direction=v2s,partitions=2"

    def test_fingerprint_tracks_axes(self):
        assert tiny_grid().fingerprint() == tiny_grid().fingerprint()
        other = ParameterGrid("tiny", {"direction": ("v2s",),
                                       "partitions": (2, 4, 8)})
        assert other.fingerprint() != tiny_grid().fingerprint()

    def test_empty_axes_rejected(self):
        with pytest.raises(GridError):
            ParameterGrid("bad", {})
        with pytest.raises(GridError):
            ParameterGrid("bad", {"partitions": ()})


def tiny_area(runner=deterministic_runner):
    return BenchArea(
        "tiny", "synthetic area for gate tests",
        axes={"direction": ("v2s", "s2v"), "partitions": (2, 4, 8)},
        runner=lambda params, config: runner(params),
        checks=lambda cells: [(
            "rows_out above the 1500 floor",
            all(c["metrics"]["rows_out"] > 1500 for c in cells),
        )],
        gate={"sim_tolerance": 0.2},
        paper={"direction=v2s,partitions=2": 48.0},
        notes=["a note"],
    )


def tiny_artifact(runner=deterministic_runner):
    area = tiny_area(runner)
    return build_artifact(area, run_cells(area, quiet))


class TestRunArea:
    def test_a_raising_cell_is_recorded_and_the_sweep_goes_on(self, tmp_path):
        artifact = run_area(tiny_area(flaky_runner), str(tmp_path), log=quiet)
        cells = artifact["cells"]
        assert [c["status"] for c in cells] == [DONE, FAILED, DONE] * 2
        failed = cells[1]
        assert failed["cell_id"] == "direction=v2s,partitions=4"
        assert "boom" in failed["error"]
        assert failed["sim_seconds"] is None
        assert failed["wall_seconds"] is not None
        assert cells[2]["sim_seconds"] == 12.5 and cells[2]["error"] is None
        assert failed_checks(artifact) == ["all cells DONE"]

    def test_a_second_run_measures_again(self, tmp_path):
        """Two runs into one results directory, the runner's answer changed
        in between: the artifact carries the second run's numbers."""
        run_area(tiny_area(), str(tmp_path), log=quiet)
        first = load_artifact(artifact_path(str(tmp_path), "tiny"))

        def recalibrated(params):
            return dict(deterministic_runner(params),
                        sim_seconds=7.0 * params["partitions"])

        run_area(tiny_area(recalibrated), str(tmp_path), log=quiet)
        second = load_artifact(artifact_path(str(tmp_path), "tiny"))
        assert [c["sim_seconds"] for c in first["cells"]] == [
            50.0, 25.0, 12.5, 40.0, 20.0, 10.0]
        assert [c["sim_seconds"] for c in second["cells"]] == [
            14.0, 28.0, 56.0, 14.0, 28.0, 56.0]
        assert sorted(os.listdir(str(tmp_path))) == [
            "BENCH_tiny.json", "BENCH_tiny.txt"]


@pytest.fixture
def quick_wall(monkeypatch):
    """A short window: the timer's logic, not its precision."""
    monkeypatch.setattr(pairs, "WINDOW_SECONDS", 0.005)


class TestWallClock:
    def test_only_the_statement_is_timed(self, quick_wall):
        calls = {"setup": 0, "statement": 0}

        def runner(params):
            calls["setup"] += 1

            def statement():
                calls["statement"] += 1
            return {"sim_seconds": None, "wall": statement}

        area = BenchArea("w", "timed", axes={"n": (1,)},
                         runner=lambda params, config: runner(params))
        [cell] = run_cells(area, quiet)
        assert calls["setup"] == 1
        # a warm call, a sizing call, then one window of n calls
        assert calls["statement"] >= 3
        assert set(cell["metrics"]) == {"wall_ms"}
        assert cell["sim_seconds"] is None and cell["metrics"]["wall_ms"] >= 0

    def test_a_raising_statement_fails_the_cell(self, quick_wall):
        def statement():
            raise RuntimeError("timed boom")

        area = BenchArea("w", "timed", axes={"n": (1,)},
                         runner=lambda params, config: {"sim_seconds": 3.0,
                                                        "wall": statement})
        [cell] = run_cells(area, quiet)
        assert cell["status"] == FAILED and "timed boom" in cell["error"]
        assert cell["sim_seconds"] is None and cell["metrics"] == {}


class TestArtifact:
    def test_schema_and_fingerprints(self):
        doc = tiny_artifact()
        assert doc["schema_version"] == REPORT_SCHEMA_VERSION
        assert doc["area"] == "tiny"
        assert doc["grid"]["fingerprint"] == tiny_area().grid().fingerprint()
        assert doc["cost_model_fingerprint"] == cost_model_fingerprint()
        assert doc["gate"] == {"sim_tolerance": 0.2}
        assert len(doc["cells"]) == 6
        cell = doc["cells"][0]
        assert cell["status"] == DONE
        assert cell["sim_seconds"] == 50.0
        assert cell["wall_seconds"] is not None
        assert cell["metrics"] == {"rows_out": 2000}
        assert doc["wall_seconds"] is not None
        assert doc["sim_seconds"] > 0
        # the paper's stated value rides next to the measured one
        assert doc["columns"][:4] == ["direction", "partitions", "status",
                                      "paper (s)"]
        assert doc["rows"][0][3] == 48.0 and doc["rows"][1][3] is None
        assert doc["notes"] == ["a note"]
        assert [c["description"] for c in doc["checks"]] == [
            "all cells DONE", "rows_out above the 1500 floor"]

    def test_shape_checks_wait_for_every_cell(self):
        doc = tiny_artifact(flaky_runner)
        assert doc["checks"] == [
            {"description": "all cells DONE", "passed": False}]


class TestGate:
    def test_identical_artifacts_pass(self):
        doc = tiny_artifact()
        assert compare_artifacts(copy.deepcopy(doc), doc) == []

    def test_injected_regression_trips_the_gate(self):
        baseline = tiny_artifact()
        fresh = copy.deepcopy(baseline)
        # >20% slower than baseline on one cell: outside the band.
        fresh["cells"][2]["sim_seconds"] = \
            baseline["cells"][2]["sim_seconds"] * 1.25
        failures = compare_artifacts(fresh, baseline)
        assert len(failures) == 1
        assert "regressed" in failures[0]
        # ...while a within-band wobble passes.
        fresh["cells"][2]["sim_seconds"] = \
            baseline["cells"][2]["sim_seconds"] * 1.15
        assert compare_artifacts(fresh, baseline) == []

    def test_the_band_is_two_sided_and_two_percent(self):
        """Sim time is a function of the cell's inputs, so an unexplained
        *improvement* is as much a cost-model change as a regression: both
        must say so by committing a new baseline."""
        baseline = tiny_artifact()
        baseline["gate"] = dict(SIM_GATE)
        assert SIM_GATE == {"sim_tolerance": 0.02}
        base_sim = baseline["cells"][2]["sim_seconds"]
        fresh = copy.deepcopy(baseline)
        for factor, verdict in ((1.03, "regressed"),
                                (0.97, "improved without a new baseline")):
            fresh["cells"][2]["sim_seconds"] = base_sim * factor
            failures = compare_artifacts(fresh, baseline)
            assert len(failures) == 1 and verdict in failures[0], failures
        for factor in (1.01, 0.99):
            fresh["cells"][2]["sim_seconds"] = base_sim * factor
            assert compare_artifacts(fresh, baseline) == []

    def test_floor_violation_trips_the_gate(self):
        baseline = tiny_artifact()

        def slow(params):
            return dict(deterministic_runner(params), rows_out=100)

        failures = compare_artifacts(
            tiny_artifact(slow), baseline)
        assert failures == [
            "tiny: check failed: rows_out above the 1500 floor"]

    def test_banded_cell_that_stops_reporting_sim_time_fails(self):
        baseline = tiny_artifact()
        fresh = copy.deepcopy(baseline)
        fresh["cells"][3]["sim_seconds"] = None
        failures = compare_artifacts(fresh, baseline)
        assert len(failures) == 1
        assert "stopped reporting sim time" in failures[0]
        # an unbanded area (wall-clock only) never had a sim time to lose
        baseline["gate"] = {}
        assert compare_artifacts(fresh, baseline) == []

    def test_unfinished_or_missing_cells_fail(self):
        baseline = tiny_artifact()
        fresh = copy.deepcopy(baseline)
        fresh["cells"][1]["status"] = FAILED
        fresh["cells"][1]["error"] = "RuntimeError('boom')"
        del fresh["cells"][0]
        failures = compare_artifacts(fresh, baseline)
        assert any("missing" in f for f in failures)
        assert any("not DONE" in f for f in failures)

    def test_fingerprint_mismatches_fail_fast(self):
        baseline = tiny_artifact()
        stale = copy.deepcopy(baseline)
        stale["grid"]["fingerprint"] = "deadbeef"
        assert any("fingerprint" in f
                   for f in compare_artifacts(baseline, stale))
        recal = copy.deepcopy(baseline)
        recal["cost_model_fingerprint"] = "deadbeef"
        assert any("cost-model" in f
                   for f in compare_artifacts(baseline, recal))
        bumped = copy.deepcopy(baseline)
        bumped["schema_version"] = REPORT_SCHEMA_VERSION + 1
        assert any("schema_version" in f
                   for f in compare_artifacts(bumped, baseline))

    def test_failed_check_in_fresh_artifact_fails(self):
        baseline = tiny_artifact()
        fresh = copy.deepcopy(baseline)
        fresh["checks"] = [{"description": "shape holds", "passed": False}]
        assert any("shape holds" in f
                   for f in compare_artifacts(fresh, baseline))


class TestVerticaDogfood:
    def test_results_round_trip_through_s2v_and_v2s(self):
        def flaky(params):
            if params == {"direction": "s2v", "partitions": 8}:
                raise RuntimeError("boom")
            return deterministic_runner(params)

        cells = run_cells(tiny_area(flaky), quiet)
        fabric, written = publish_results({"tiny": cells})
        assert written == 6
        rows = read_results(fabric)
        assert len(rows) == 6
        by_cell = {row[1]: row for row in rows}
        assert by_cell["direction=s2v,partitions=8"][2] == FAILED
        assert by_cell["direction=v2s,partitions=2"][2] == DONE
        assert by_cell["direction=v2s,partitions=2"][3] == 50.0
        # a time a cell did not report is NULL, not a sentinel: SQL
        # aggregates over the table skip it
        assert by_cell["direction=s2v,partitions=8"][3] is None
        with fabric.vertica.db.connect() as session:
            assert session.execute(
                "SELECT cell_id FROM bench_results WHERE sim_seconds IS NULL"
            ).rows == [("direction=s2v,partitions=8",)]
            assert session.execute(
                "SELECT COUNT(*), COUNT(sim_seconds), AVG(sim_seconds) "
                "FROM bench_results"
            ).rows == [(6, 5, (50.0 + 25.0 + 12.5 + 40.0 + 20.0) / 5)]

    def test_publish_appends_across_runs(self):
        cells = {"tiny": run_cells(tiny_area(), quiet)}
        fabric, first = publish_results(cells)
        __, second = publish_results(cells, fabric=fabric)
        assert first == second == 6
        assert len(read_results(fabric)) == 12


class TestRealAreas:
    def test_fig06_area_runs(self, tmp_path):
        # the real runner and checks at a fifth of the committed baseline's
        # rows, so tier-1 stays fast
        real = AREAS["fig06"]
        area = BenchArea(real.name, real.title, real.axes, real.runner,
                         config={"real_rows": 400}, checks=real.checks,
                         paper=real.paper)
        artifact = run_area(area, str(tmp_path), log=quiet)
        assert [c["status"] for c in artifact["cells"]] == [DONE] * 14
        assert not failed_checks(artifact)
        path = os.path.join(str(tmp_path), "BENCH_fig06.json")
        assert os.path.exists(path)
        with open(path) as handle:
            doc = json.load(handle)
        assert doc["schema_version"] == REPORT_SCHEMA_VERSION
        assert doc["cost_model_fingerprint"] == cost_model_fingerprint()


class TestUpdateBaselines:
    def test_a_passing_run_becomes_the_baseline(self, tmp_path):
        results, baselines = str(tmp_path / "r"), str(tmp_path / "b")
        args = ["tab02", "avro", "--results-dir", results,
                "--baseline-dir", baselines, "--no-publish"]
        assert main(args) == 0  # a plain run writes no baseline
        assert not os.path.exists(baselines)
        assert main(args + ["--update-baselines"]) == 0
        for name in ("tab02", "avro"):
            baseline = load_artifact(artifact_path(baselines, name))
            fresh = load_artifact(artifact_path(results, name))
            assert baseline["cells"] == fresh["cells"]
            assert baseline["grid"]["fingerprint"] == \
                AREAS[name].grid().fingerprint()
            assert baseline["cost_model_fingerprint"] == \
                cost_model_fingerprint()

    def test_a_failed_run_never_becomes_the_baseline(self, tmp_path,
                                                     monkeypatch, capsys):
        results, baselines = tmp_path / "r", tmp_path / "b"
        baselines.mkdir()
        committed = os.path.join(REPO, "benchmarks", "baselines",
                                 "BENCH_tab02.json")
        with open(committed, "rb") as handle:
            before = handle.read()
        (baselines / "BENCH_tab02.json").write_bytes(before)

        def raising(params, config):
            raise RuntimeError("boom")

        monkeypatch.setattr(AREAS["tab02"], "runner", raising)
        assert main(["tab02", "--results-dir", str(results),
                     "--baseline-dir", str(baselines), "--no-publish",
                     "--update-baselines"]) == 1
        assert "baseline NOT updated" in capsys.readouterr().err
        assert (baselines / "BENCH_tab02.json").read_bytes() == before
        # the fresh (failed) artifact is still written for inspection
        assert load_artifact(artifact_path(str(results), "tab02"))[
            "cells"][0]["status"] == FAILED


class TestAgainst:
    """``--against DIR``: two runs' cells compared, wall fields aside."""

    def two_runs(self, tmp_path, edit=None):
        ours, theirs = str(tmp_path / "a"), str(tmp_path / "b")
        artifact = tiny_artifact()
        save_artifact(ours, artifact)
        other = copy.deepcopy(artifact)
        if edit:
            edit(other["cells"])
        save_artifact(theirs, other)
        lines = []
        return diff_areas(["tiny"], ours, theirs, log=lines.append), lines

    def test_identical_runs_pass(self, tmp_path):
        differing, lines = self.two_runs(tmp_path)
        assert differing == 0
        assert lines == ["[against] tiny: 6 cells compared, 0 differ"]

    def test_one_metric_change_fails_and_names_its_cell(self, tmp_path):
        def edit(cells):
            cells[4]["metrics"]["rows_out"] += 1

        differing, lines = self.two_runs(tmp_path, edit)
        assert differing == 1
        assert lines == ["[against] tiny: 6 cells compared, 1 differ\n"
                         "  direction=s2v,partitions=4"]

    def test_a_difference_in_wall_fields_only_passes(self, tmp_path):
        def edit(cells):
            for cell in cells:
                cell["wall_seconds"] += 1.0
                cell["metrics"]["wall_ms"] = 9.9

        assert self.two_runs(tmp_path, edit)[0] == 0

    def test_command_line(self, tmp_path, capsys):
        committed = artifact_path(
            os.path.join(REPO, "benchmarks", "baselines"), "tab02")
        ours, theirs = tmp_path / "a", tmp_path / "b"
        for directory in (ours, theirs):
            directory.mkdir()
            save_artifact(str(directory), load_artifact(committed))
        args = ["tab02", "--results-dir", str(ours), "--against", str(theirs)]
        assert main(args) == 0
        doc = load_artifact(artifact_path(str(theirs), "tab02"))
        doc["cells"][0]["sim_seconds"] += 0.001
        save_artifact(str(theirs), doc)
        assert main(args) == 1
        assert doc["cells"][0]["cell_id"] in capsys.readouterr().out


REPO = os.path.join(os.path.dirname(__file__), "..")


class TestRegistry:
    """One bench spine: no cells run here, only the committed state."""

    def paper_areas(self):
        """({paper id: area}, {ablation areas}) from DESIGN.md's index."""
        with open(os.path.join(REPO, "DESIGN.md"), encoding="utf-8") as handle:
            text = handle.read()
        index = text[text.index("## 4. Experiment index"):
                     text.index("## 5. ")]
        figures = dict(re.findall(r"^\| ((?:Fig|Tab) \d+) \|.*`(\w+)` \|$",
                                  index, flags=re.M))
        return figures, set(re.findall(r"area `(\w+)`", index))

    def test_every_paper_experiment_is_an_area(self):
        figures, ablations = self.paper_areas()
        assert sorted(figures) == sorted(
            [f"Fig {n}" for n in range(6, 13)] + [f"Tab {n}" for n in (2, 3, 4)])
        assert {"locality", "prehash", "avro", "twostage", "agg"} <= ablations
        named = set(figures.values()) | ablations
        assert named <= set(AREAS), named - set(AREAS)

    @pytest.mark.parametrize("name", sorted(AREAS))
    def test_area_has_a_current_passing_baseline(self, name):
        path = artifact_path(os.path.join(REPO, "benchmarks", "baselines"), name)
        assert os.path.exists(path), f"no committed baseline for {name}"
        doc = load_artifact(path)
        assert doc["grid"]["fingerprint"] == AREAS[name].grid().fingerprint()
        assert doc["cost_model_fingerprint"] == cost_model_fingerprint()
        assert doc["gate"] == AREAS[name].gate
        assert len(doc["checks"]) > 1  # more than the harness's "all DONE"
        assert all(check["passed"] for check in doc["checks"]), doc["checks"]

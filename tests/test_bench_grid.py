"""Tests for the resumable experiment-grid harness.

The contract under test is the ISSUE's: an interrupted sweep *resumes*
instead of restarting (completed cells skipped, mid-flight statuses
reconciled, merged results identical to an uninterrupted run), artifacts
are schema-versioned and fingerprinted, the CI gate trips on an injected
regression while passing on an identical baseline, and the results store
round-trips through the repro's own Vertica tables via S2V/V2S.  The
registry tests pin the "one bench spine" contract: every paper figure,
table and ablation is an area with a committed, current, passing baseline.
"""

import copy
import json
import os
import re

import pytest

from repro.bench.area import SIM_GATE
from repro.bench.grid import (
    AREAS,
    DONE,
    FAILED,
    PENDING,
    BenchArea,
    GridError,
    GridRunner,
    ParameterGrid,
    ResultsStore,
    artifact_path,
    build_area_report,
    compare_artifacts,
    cost_model_fingerprint,
    load_artifact,
    main,
    publish_results,
    read_results,
    run_area,
)
from repro.bench.report import REPORT_SCHEMA_VERSION


def tiny_grid(area="tiny"):
    return ParameterGrid(area, {"direction": ("v2s", "s2v"),
                                "partitions": (2, 4, 8)})


def deterministic_runner(params):
    """sim seconds derived from the cell's own parameters."""
    base = 100.0 if params["direction"] == "v2s" else 80.0
    return {"sim_seconds": base / params["partitions"],
            "rows_per_sec": 1000 * params["partitions"]}


class CountingRunner:
    """Wraps a runner; optionally dies (as if killed) at one cell index."""

    def __init__(self, runner, die_at=None):
        self.runner = runner
        self.die_at = die_at
        self.calls = []

    def __call__(self, params):
        if self.die_at is not None and len(self.calls) == self.die_at:
            raise KeyboardInterrupt
        self.calls.append(dict(params))
        return self.runner(params)


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


class TestResume:
    def test_interrupted_sweep_resumes_and_matches_uninterrupted(self, tmp_path):
        journal = str(tmp_path / "grid.jsonl")
        # Kill the sweep after two completed cells (the third dies
        # mid-flight, leaving a begin event with no done/fail).
        killed = CountingRunner(deterministic_runner, die_at=2)
        with pytest.raises(KeyboardInterrupt):
            GridRunner(tiny_grid(), killed, ResultsStore(journal, tiny_grid()),
                       log=quiet).run()
        assert len(killed.calls) == 2

        # Reloading the journal reconciles the mid-flight cell to PENDING
        # (attempt recorded), keeps the two DONE cells.
        store = ResultsStore(journal, tiny_grid())
        assert store.reconciled == ["direction=v2s,partitions=8"]
        counts = store.counts()
        assert counts[DONE] == 2 and counts[PENDING] == 4
        assert store.record("direction=v2s,partitions=8")["attempts"] == 1

        # The resumed run executes only the four unfinished cells.
        resumed = CountingRunner(deterministic_runner)
        summary = GridRunner(tiny_grid(), resumed, store, log=quiet).run()
        assert summary == {"run": 4, "skipped": 2, "failed": 0,
                           "reconciled": 1}
        assert [c["partitions"] for c in resumed.calls] == [8, 2, 4, 8]

        # Merged results are identical to a never-interrupted sweep.
        clean_store = ResultsStore(str(tmp_path / "clean.jsonl"), tiny_grid())
        GridRunner(tiny_grid(), CountingRunner(deterministic_runner),
                   clean_store, log=quiet).run()

        def comparable(records):
            return [(r["cell_id"], r["status"], r["sim_seconds"], r["metrics"])
                    for r in records]

        assert comparable(store.records()) == comparable(clean_store.records())
        # The reconciled cell carries its extra (wasted) attempt.
        assert store.record("direction=v2s,partitions=8")["attempts"] == 2

    def test_second_run_skips_everything(self, tmp_path):
        journal = str(tmp_path / "grid.jsonl")
        GridRunner(tiny_grid(), CountingRunner(deterministic_runner),
                   ResultsStore(journal, tiny_grid()), log=quiet).run()
        rerun = CountingRunner(deterministic_runner)
        summary = GridRunner(tiny_grid(), rerun,
                             ResultsStore(journal, tiny_grid()),
                             log=quiet).run()
        assert summary["run"] == 0 and summary["skipped"] == 6
        assert rerun.calls == []

    def test_failed_cells_are_retried_on_resume(self, tmp_path):
        journal = str(tmp_path / "grid.jsonl")

        def flaky(params):
            if params["partitions"] == 4:
                raise RuntimeError("boom")
            return deterministic_runner(params)

        store = ResultsStore(journal, tiny_grid())
        summary = GridRunner(tiny_grid(), flaky, store, log=quiet).run()
        assert summary["failed"] == 2
        failed = store.record("direction=v2s,partitions=4")
        assert failed["status"] == FAILED
        assert "boom" in failed["error"]

        retry = CountingRunner(deterministic_runner)
        store = ResultsStore(journal, tiny_grid())
        summary = GridRunner(tiny_grid(), retry, store, log=quiet).run()
        assert summary == {"run": 2, "skipped": 4, "failed": 0,
                           "reconciled": 0}
        assert store.counts()[DONE] == 6
        assert store.record("direction=v2s,partitions=4")["attempts"] == 2

    def test_journal_from_a_different_grid_is_refused(self, tmp_path):
        journal = str(tmp_path / "grid.jsonl")
        GridRunner(tiny_grid(), deterministic_runner,
                   ResultsStore(journal, tiny_grid()), log=quiet).run()
        other = ParameterGrid("tiny", {"direction": ("v2s",),
                                       "partitions": (2,)})
        with pytest.raises(GridError, match="--fresh"):
            ResultsStore(journal, other)

    def test_no_resume_discards_the_journal(self, tmp_path):
        journal = str(tmp_path / "grid.jsonl")
        GridRunner(tiny_grid(), deterministic_runner,
                   ResultsStore(journal, tiny_grid()), log=quiet).run()
        rerun = CountingRunner(deterministic_runner)
        summary = GridRunner(tiny_grid(), rerun,
                             ResultsStore(journal, tiny_grid()),
                             log=quiet).run(resume=False)
        assert summary["run"] == 6 and summary["skipped"] == 0


def tiny_area(runner=deterministic_runner):
    return BenchArea(
        "tiny", "synthetic area for gate tests",
        axes={"direction": ("v2s", "s2v"), "partitions": (2, 4, 8)},
        runner=lambda params, config: runner(params),
        # wall-clock metrics are never banded: a static floor is a check
        checks=lambda cells: [(
            "rows_per_sec above the 1500 floor",
            all(c["metrics"]["rows_per_sec"] > 1500 for c in cells),
        )],
        gate={"sim_tolerance": 0.2},
        paper={"direction=v2s,partitions=2": 48.0},
        notes=["a note"],
    )


def tiny_artifact(tmp_path, name="a", runner=deterministic_runner):
    area = tiny_area(runner)
    grid = area.grid()
    store = ResultsStore(str(tmp_path / f"{name}.jsonl"), grid)
    GridRunner(grid, area.run_cell, store, log=quiet).run()
    return build_area_report(area, store, smoke=True).to_json()


class TestArtifact:
    def test_schema_and_fingerprints(self, tmp_path):
        doc = tiny_artifact(tmp_path)
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
        assert cell["metrics"] == {"rows_per_sec": 2000}
        assert doc["wall_seconds"] is not None
        assert doc["sim_seconds"] > 0
        # the paper's stated value rides next to the measured one
        assert doc["columns"][:4] == ["direction", "partitions", "status",
                                      "paper (s)"]
        assert doc["rows"][0][3] == 48.0 and doc["rows"][1][3] is None
        assert doc["notes"] == ["a note"]
        assert [c["description"] for c in doc["checks"]] == [
            "all cells DONE", "rows_per_sec above the 1500 floor"]

    def test_shape_checks_wait_for_every_cell(self, tmp_path):
        def flaky(params):
            if params["partitions"] == 4:
                raise RuntimeError("boom")
            return deterministic_runner(params)

        doc = tiny_artifact(tmp_path, runner=flaky)
        assert doc["checks"] == [
            {"description": "all cells DONE", "passed": False}]


class TestGate:
    def test_identical_artifacts_pass(self, tmp_path):
        doc = tiny_artifact(tmp_path)
        assert compare_artifacts(copy.deepcopy(doc), doc) == []

    def test_injected_regression_trips_the_gate(self, tmp_path):
        baseline = tiny_artifact(tmp_path)
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

    def test_the_band_is_two_sided_and_two_percent(self, tmp_path):
        """Sim time is a function of the cell's inputs, so an unexplained
        *improvement* is as much a cost-model change as a regression: both
        must say so by committing a new baseline."""
        baseline = tiny_artifact(tmp_path)
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

    def test_floor_violation_trips_the_gate(self, tmp_path):
        baseline = tiny_artifact(tmp_path)

        def slow(params):
            return dict(deterministic_runner(params), rows_per_sec=100)

        failures = compare_artifacts(
            tiny_artifact(tmp_path, "slow", runner=slow), baseline)
        assert failures == [
            "tiny: check failed: rows_per_sec above the 1500 floor"]

    def test_banded_cell_that_stops_reporting_sim_time_fails(self, tmp_path):
        baseline = tiny_artifact(tmp_path)
        fresh = copy.deepcopy(baseline)
        fresh["cells"][3]["sim_seconds"] = None
        failures = compare_artifacts(fresh, baseline)
        assert len(failures) == 1
        assert "stopped reporting sim time" in failures[0]
        # an unbanded area (wall-clock only) never had a sim time to lose
        baseline["gate"] = {}
        assert compare_artifacts(fresh, baseline) == []

    def test_unfinished_or_missing_cells_fail(self, tmp_path):
        baseline = tiny_artifact(tmp_path)
        fresh = copy.deepcopy(baseline)
        fresh["cells"][1]["status"] = FAILED
        fresh["cells"][1]["error"] = "RuntimeError('boom')"
        del fresh["cells"][0]
        failures = compare_artifacts(fresh, baseline)
        assert any("missing" in f for f in failures)
        assert any("not DONE" in f for f in failures)

    def test_fingerprint_mismatches_fail_fast(self, tmp_path):
        baseline = tiny_artifact(tmp_path)
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

    def test_failed_check_in_fresh_artifact_fails(self, tmp_path):
        baseline = tiny_artifact(tmp_path)
        fresh = copy.deepcopy(baseline)
        fresh["checks"] = [{"description": "shape holds", "passed": False}]
        assert any("shape holds" in f
                   for f in compare_artifacts(fresh, baseline))


class TestVerticaDogfood:
    def test_results_round_trip_through_s2v_and_v2s(self, tmp_path):
        area = tiny_area()
        grid = area.grid()

        def flaky(params):
            if params == {"direction": "s2v", "partitions": 8}:
                raise RuntimeError("boom")
            return deterministic_runner(params)

        store = ResultsStore(str(tmp_path / "grid.jsonl"), grid)
        GridRunner(grid, flaky, store, log=quiet).run()
        fabric, written = publish_results([store])
        assert written == 6
        rows = read_results(fabric)
        assert len(rows) == 6
        by_cell = {row[1]: row for row in rows}
        assert by_cell["direction=s2v,partitions=8"][2] == FAILED
        assert by_cell["direction=v2s,partitions=2"][2] == DONE
        assert by_cell["direction=v2s,partitions=2"][4] == 50.0

    def test_publish_appends_across_runs(self, tmp_path):
        area = tiny_area()
        grid = area.grid()
        store = ResultsStore(str(tmp_path / "grid.jsonl"), grid)
        GridRunner(grid, area.run_cell, store, log=quiet).run()
        fabric, first = publish_results([store])
        __, second = publish_results([store], fabric=fabric)
        assert first == second == 6
        assert len(read_results(fabric)) == 12


class TestRealAreas:
    def test_fig06_smoke_area_runs_and_resumes(self, tmp_path):
        # the real runner and checks at a fifth of the committed baseline's
        # rows, so tier-1 stays fast
        real = AREAS["fig06"]
        area = BenchArea(real.name, real.title, real.full_axes, real.runner,
                         config={"real_rows": 400}, checks=real.checks,
                         paper=real.paper)
        store, report = run_area(area, str(tmp_path), log=quiet)
        assert store.counts()[DONE] == 14
        assert report.all_checks_pass, report.failed_checks()
        path = os.path.join(str(tmp_path), "BENCH_fig06.json")
        assert os.path.exists(path)
        with open(path) as handle:
            doc = json.load(handle)
        assert doc["schema_version"] == REPORT_SCHEMA_VERSION
        assert doc["cost_model_fingerprint"] == cost_model_fingerprint()
        # A second invocation resumes: every cell skipped, same artifact.
        store2, __ = run_area(area, str(tmp_path), log=quiet)
        assert store2.counts()[DONE] == 14
        assert store2.records() == store.records()


class TestTrajectory:
    def test_update_baselines_appends_one_record_per_area(self, tmp_path,
                                                          capsys):
        results, baselines = str(tmp_path / "r"), str(tmp_path / "b")
        args = ["tab02", "avro", "--results-dir", results,
                "--baseline-dir", baselines, "--no-publish"]
        assert main(args) == 0  # a plain run records nothing
        assert not os.path.exists(os.path.join(results, "trajectory.jsonl"))
        assert main(args + ["--update-baselines"]) == 0
        assert main(args + ["--update-baselines"]) == 0
        capsys.readouterr()
        assert main(["--trajectory", "--results-dir", results]) == 0
        rows = [line.split("|") for line in capsys.readouterr().out.splitlines()
                if line.startswith(("| tab02", "| avro"))]
        assert [(r[1].strip(), r[2].strip(), r[6].strip()) for r in rows] == [
            ("avro", "2", "pass"), ("tab02", "2", "pass")]
        with open(os.path.join(results, "trajectory.jsonl")) as handle:
            record = json.loads(handle.readline())
        baseline = load_artifact(artifact_path(baselines, "tab02"))
        assert record["experiment"] == "tab02"
        assert record["grid_fingerprint"] == baseline["grid"]["fingerprint"]
        assert record["cost_model_fingerprint"] == cost_model_fingerprint()
        assert record["sim_seconds"] == baseline["sim_seconds"]


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

"""The chaos soak as the grid's ``chaos`` area (CI runs all 225 cells)."""

import dataclasses

from repro.bench.area import BenchArea
from repro.bench.areas import AREAS, chaos
from repro.bench.areas.chaos import TRIALS, run_trial
from repro.bench.grid import (
    DONE,
    FAILED,
    build_artifact,
    compare_artifacts,
    run_cells,
)


def quiet(_msg):
    pass


def narrowed(seeds):
    """The real area over a few seed indices, the way TestRealAreas
    narrows ``fig06``."""
    real = AREAS["chaos"]
    return BenchArea(real.name, real.title, dict(real.axes, seed=seeds),
                     real.runner, checks=real.checks)


class TestSoakSmoke:
    def test_small_soak_holds_invariants(self):
        area = narrowed((100, 101, 102))
        cells = run_cells(area, quiet)
        # one S2V + V2S + agg + wlm + profile + staged-s2v + staged-v2s
        # + cache + star per seed
        assert len(cells) == 27
        assert [c["params"]["workload"] for c in cells[:9]] == list(TRIALS) == [
            "s2v", "v2s", "agg", "wlm", "profile", "staged-s2v",
            "staged-v2s", "cache", "star"]
        bad = [c for c in cells if c["status"] != DONE]
        assert not bad, "\n".join(c["error"] for c in bad)
        # The soak must actually exercise faults and still complete work.
        assert sum(c["metrics"]["injections"] for c in cells) > 0
        assert any(c["metrics"]["outcome"] == "succeeded" for c in cells)
        assert all(c["sim_seconds"] is None for c in cells)
        artifact = build_artifact(area, cells)
        assert artifact["gate"] == {}
        assert all(check["passed"] for check in artifact["checks"])

    def test_trials_are_replayable(self):
        first, report = run_trial("s2v", 5, mode="append", speculation=True)
        again, __ = run_trial("s2v", 5, mode="append", speculation=True)
        assert report.ok
        assert first == again
        # a cell is its own replay: seed index 1 runs s2v at seed 1, in
        # overwrite mode with speculation on
        cell = {"seed": 1, "workload": "s2v"}
        assert AREAS["chaos"].run_cell(cell) == AREAS["chaos"].run_cell(cell) \
            == run_trial("s2v", 1, mode="overwrite", speculation=True)[0]

    def test_profile_trial_exact_answers_and_no_leaks(self):
        # A fault-free-success seed and a clean-failure seed both hold the
        # bar; replayability mirrors the other workloads.
        metrics, report = run_trial("profile", 15485863)
        assert "no-leaked-sessions" in report.checks
        assert "no-leaked-locks" in report.checks
        if metrics["outcome"] == "succeeded":
            assert "profile-exact-answer" in report.checks
            assert "profile-cost-reconciles" in report.checks
        assert run_trial("profile", 15485863)[0] == metrics

    def test_wlm_trial_exactly_once_under_admission(self):
        # A seed whose schedule includes a pool storm (seeded, so stable):
        # exactly-once must hold while noisy neighbours fight the save for
        # the starved ingest pool's two slots.
        metrics, report = run_trial("wlm", 1299715)
        assert metrics["injections"] > 0
        assert "no-leaked-pool-slots" in report.checks

    def test_staged_s2v_trial_audits_staging_fs(self):
        metrics, report = run_trial("staged-s2v", 3, mode="overwrite")
        assert "no-orphaned-staging-files" in report.checks
        assert run_trial("staged-s2v", 3, mode="overwrite")[0] == metrics

    def test_staged_v2s_trial_audits_staging_fs(self):
        metrics, report = run_trial("staged-v2s", 103, speculation=True)
        assert "no-orphaned-staging-files" in report.checks
        if metrics["outcome"] == "succeeded":
            assert "epoch-snapshot" in report.checks


class TestViolatedInvariant:
    def test_violation_is_a_failed_cell_that_fails_the_gate(self, monkeypatch):
        def lying_audit(run, checker, raised, report):
            chaos._audit_scan(run, checker, raised, report)
            report.violated("epoch-snapshot", "scan returned a torn read")

        monkeypatch.setitem(TRIALS, "v2s",
                            dataclasses.replace(TRIALS["v2s"], audit=lying_audit))
        area = narrowed((0,))
        cells = run_cells(area, quiet)
        by_workload = {c["params"]["workload"]: c for c in cells}
        failed = by_workload["v2s"]
        assert failed["status"] == FAILED
        assert "GridCellError" in failed["error"]
        assert "FAIL epoch-snapshot: scan returned a torn read" in failed["error"]
        # the schedule and what was injected ride along: the record is the
        # whole replay report
        assert "schedule:" in failed["error"]
        assert "injections:" in failed["error"]
        assert all(c["status"] == DONE for w, c in by_workload.items()
                   if w != "v2s")

        monkeypatch.undo()
        baseline = build_artifact(area, run_cells(area, quiet))
        failures = compare_artifacts(build_artifact(area, cells), baseline)
        assert any("seed=0,workload=v2s is FAILED" in f and "epoch-snapshot" in f
                   for f in failures), failures
        assert "chaos: check failed: all cells DONE" in failures

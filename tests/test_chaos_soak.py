"""Smoke test for the chaos soak harness (CI runs the full 25-seed soak)."""

from repro.bench.chaos_soak import TRIALS, run_soak, run_trial, summarize


class TestSoakSmoke:
    def test_small_soak_holds_invariants(self):
        trials = run_soak(num_seeds=3, base_seed=100)
        # one S2V + V2S + agg + wlm + profile + staged-s2v + staged-v2s
        # + cache + adaptive per seed
        assert len(trials) == 27
        assert [t.workload for t in trials[:9]] == list(TRIALS) == [
            "s2v", "v2s", "agg", "wlm", "profile", "staged-s2v",
            "staged-v2s", "cache", "adaptive"]
        bad = [t for t in trials if not t.ok]
        assert not bad, "\n".join(t.describe() for t in bad)
        # The soak must actually exercise faults and still complete work.
        assert sum(t.injections for t in trials) > 0
        assert any(t.succeeded for t in trials)
        assert "0 invariant violations" in summarize(trials)

    def test_trials_are_replayable(self):
        first = run_trial("s2v", 5, mode="append", speculation=True)
        again = run_trial("s2v", 5, mode="append", speculation=True)
        assert first.ok and again.ok
        assert first.injections == again.injections
        assert first.succeeded == again.succeeded
        assert "--replay-seed 5" in first.replay_command()
        assert "--mode append" in first.replay_command()
        assert "--speculation" in first.replay_command()

    def test_profile_trial_exact_answers_and_no_leaks(self):
        # A fault-free-success seed and a clean-failure seed both hold the
        # bar; replayability mirrors the other workloads.
        trial = run_trial("profile", 15485863)
        assert trial.ok, trial.describe()
        assert "no-leaked-sessions" in trial.report.checks
        assert "no-leaked-locks" in trial.report.checks
        if trial.succeeded:
            assert "profile-exact-answer" in trial.report.checks
            assert "profile-cost-reconciles" in trial.report.checks
        assert "--workload profile" in trial.replay_command()
        again = run_trial("profile", 15485863)
        assert again.injections == trial.injections
        assert again.succeeded == trial.succeeded

    def test_wlm_trial_exactly_once_under_admission(self):
        # A seed whose schedule includes a pool storm (seeded, so stable):
        # exactly-once must hold while noisy neighbours fight the save for
        # the starved ingest pool's two slots.
        trial = run_trial("wlm", 1299715)
        assert trial.ok, trial.describe()
        assert trial.injections > 0
        assert "no-leaked-pool-slots" in trial.report.checks
        assert "--workload wlm" in trial.replay_command()

    def test_staged_s2v_trial_audits_staging_fs(self):
        trial = run_trial("staged-s2v", 3, mode="overwrite")
        assert trial.ok, trial.describe()
        assert "no-orphaned-staging-files" in trial.report.checks
        assert "--workload staged-s2v" in trial.replay_command()
        assert "--mode overwrite" in trial.replay_command()
        again = run_trial("staged-s2v", 3, mode="overwrite")
        assert again.injections == trial.injections
        assert again.succeeded == trial.succeeded

    def test_staged_v2s_trial_audits_staging_fs(self):
        trial = run_trial("staged-v2s", 103, speculation=True)
        assert trial.ok, trial.describe()
        assert "no-orphaned-staging-files" in trial.report.checks
        if trial.succeeded:
            assert "epoch-snapshot" in trial.report.checks
        assert "--workload staged-v2s" in trial.replay_command()

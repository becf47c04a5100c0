"""Tests for the benchmark harness itself (artifact tables, fabric, datasets)."""

import importlib.util
import os
import sys
import time

import pytest

from repro.bench import BenchArea, Fabric
from repro.bench.grid import (
    artifact_path,
    build_artifact,
    failed_checks,
    load_artifact,
    render_artifact,
    run_area,
)
from repro.connector.costmodel import NULL_COST_MODEL
from repro.workloads import make_d1, make_d1_reshaped, make_d1_with_int_column, make_d2
from repro.workloads.datasets import Dataset, load_direct

REPO = os.path.join(os.path.dirname(__file__), "..")


def artifact(exp_id, rows=(), checks=(), notes=()):
    """A hand-built artifact holding only what the table renders."""
    return {"exp_id": exp_id, "title": "demo",
            "columns": ["case", "paper", "measured"],
            "rows": [list(row) for row in rows], "notes": list(notes),
            "checks": [{"description": d, "passed": ok} for d, ok in checks],
            "wall_seconds": 1.25, "sim_seconds": 0.0}


def tiny_area():
    return BenchArea(
        "tiny", "synthetic area", axes={"n": (1, 2)},
        runner=lambda params, config: {"sim_seconds": 1.5 * params["n"],
                                       "rows": params["n"]},
        checks=lambda cells: [("two cells", len(cells) == 2)],
        paper={"n=1": 2.0}, notes=["a note"],
    )


class TestExperimentReport:
    """An area's report: the ``BENCH_<area>.json`` artifact the grid
    builds and the ``.txt`` table it renders from it."""

    def test_render_aligns_columns(self):
        text = render_artifact(artifact("x1", rows=[
            ("short", 1.0, 123456.0), ("a much longer label", None, 0.5)]))
        lines = text.splitlines()
        assert lines[0] == "== x1: demo =="
        assert lines[1].startswith("case                 paper  measured")
        assert set(lines[2]) == {"-"} and len(lines[2]) == len(lines[1])
        assert "123456" in text
        assert lines[4].split() == ["a", "much", "longer", "label", "-",
                                    "0.500"]  # None renders as dash
        assert lines[3].index("1.0") == lines[4].index("-") \
            == lines[1].index("paper")

    def test_checks_recorded_and_rendered(self):
        doc = artifact("x2", checks=[("always true", True),
                                     ("always false", False)])
        assert failed_checks(doc) == ["always false"]
        text = render_artifact(doc)
        assert "[PASS] always true" in text
        assert "[FAIL] always false" in text
        assert text.splitlines()[-1] == "timing: wall 1.25 s, sim 0.0 s"

    def test_save_writes_file(self, tmp_path):
        doc = run_area(tiny_area(), str(tmp_path), log=lambda msg: None)
        with open(os.path.join(str(tmp_path), "BENCH_tiny.txt")) as handle:
            assert handle.read() == render_artifact(doc) + "\n"
        saved = load_artifact(artifact_path(str(tmp_path), "tiny"))
        assert saved.pop("saved_at")
        assert saved == doc

    def test_notes_rendered(self):
        doc = artifact("x4", notes=["context matters"])
        assert "note: context matters" in render_artifact(doc)

    def test_artifact_keys_are_the_committed_baselines(self, tmp_path):
        """The committed baselines were written before the grid built its
        own artifacts; a new artifact must carry exactly their keys, so
        they keep gating without being regenerated."""
        expected = {
            "schema_version", "exp_id", "title", "columns", "rows", "notes",
            "checks", "config", "config_fingerprint", "wall_seconds",
            "sim_seconds", "area", "grid", "cost_model_fingerprint", "gate",
            "cells",
        }
        area = tiny_area()
        assert set(build_artifact(area, [])) == expected
        run_area(area, str(tmp_path), log=lambda msg: None)
        saved = load_artifact(artifact_path(str(tmp_path), "tiny"))
        committed = load_artifact(artifact_path(
            os.path.join(REPO, "benchmarks", "baselines"), "tab02"))
        assert set(saved) == set(committed) == expected | {"saved_at"}


class TestDatasets:
    def test_d1_shape(self):
        d1 = make_d1(real_rows=50)
        assert d1.real_rows == 50
        assert len(d1.schema) == 100
        assert d1.virtual_rows == 100_000_000
        assert d1.scale == pytest.approx(2_000_000)
        assert all(len(r) == 100 for r in d1.rows)
        assert all(0.0 <= v < 1.0 for v in d1.rows[0])

    def test_d1_deterministic(self):
        assert make_d1(real_rows=10).rows == make_d1(real_rows=10).rows

    def test_d1_csv_bytes_near_paper(self):
        # The paper's D1 is 1400 CSV bytes per row; ours should be close.
        d1 = make_d1(real_rows=100)
        assert 1200 <= d1.csv_bytes_per_row() <= 1500

    def test_d2_shape(self):
        d2 = make_d2(real_rows=100)
        assert len(d2.schema) == 2
        assert d2.virtual_rows == 1_460_000_000
        # ~96 CSV bytes per row, like 140 GB / 1.46B rows
        assert 80 <= d2.csv_bytes_per_row() <= 115

    def test_reshaped_d1(self):
        tall = make_d1_reshaped(real_rows=40)
        assert len(tall.schema) == 1
        assert tall.virtual_rows == 10_000_000_000

    def test_d1_with_int_column(self):
        dataset = make_d1_with_int_column(real_rows=60)
        assert dataset.schema.fields[0].name == "ikey"
        assert all(0 <= r[0] < 100 for r in dataset.rows)

    def test_with_virtual_rows(self):
        d1 = make_d1(real_rows=10).with_virtual_rows(1_000)
        assert d1.virtual_rows == 1_000
        assert d1.scale == 100.0

    def test_validation(self):
        from repro.spark.row import StructField, StructType

        schema = StructType([StructField("a", "long")])
        with pytest.raises(ValueError):
            Dataset("x", schema, [], 10)
        with pytest.raises(ValueError):
            Dataset("x", schema, [(1,), (2,)], 1)


class TestFabric:
    """Every measured transfer is one ``Fabric.load`` or ``Fabric.save``."""

    def test_fabric_wires_one_clock(self):
        fabric = Fabric(num_vertica=2, num_spark=2, cost_model=NULL_COST_MODEL)
        assert fabric.spark.env is fabric.vertica.env is fabric.env
        assert fabric.hdfs is None

    def test_fabric_round_trip_with_null_costs(self):
        fabric = Fabric(num_vertica=2, num_spark=2, cost_model=NULL_COST_MODEL)
        dataset = make_d1(real_rows=30, num_cols=3)
        elapsed = fabric.save("vertica", dataset, "t", 4, numpartitions=4)
        assert elapsed >= 0
        __, count = fabric.load("vertica", "t", 1.0, numpartitions=4)
        assert count == 30

    def test_jdbc_round_trip(self):
        fabric = Fabric(num_vertica=2, num_spark=2, cost_model=NULL_COST_MODEL)
        dataset = make_d1_with_int_column(real_rows=30, virtual_rows=30,
                                          num_cols=3)
        fabric.save("jdbc", dataset, "t", 2, numpartitions=2)
        __, count = fabric.load("jdbc", "t", 1.0, numpartitions=4,
                                partitioncolumn="ikey", lowerbound=0,
                                upperbound=100)
        assert count == 30

    def test_populate_then_load(self):
        fabric = Fabric(num_vertica=2, num_spark=2, cost_model=NULL_COST_MODEL)
        dataset = make_d1(real_rows=25, num_cols=2)
        load_direct(fabric.vertica, dataset, "d")
        __, count = fabric.load("vertica", "d", 1.0, numpartitions=4)
        assert count == 25

    def test_hdfs_fabric(self):
        fabric = Fabric(num_vertica=2, num_spark=2, with_hdfs=True,
                        cost_model=NULL_COST_MODEL, hdfs_block_size=4096)
        dataset = make_d1(real_rows=20, num_cols=2)
        fabric.save("hdfs", dataset, "/x", 2)
        __, count = fabric.load("hdfs", "/x", 1.0)
        assert count == 20

    def test_grouped_load_times_the_aggregation(self):
        """``group_by(...).agg(...)`` runs its job, so ``load`` must call it
        inside the timed region: hoisted out, both modes read only the
        collect of the finished groups and cost the same."""
        dataset = make_d1_with_int_column(real_rows=200, num_cols=3)
        seconds = {}
        for pushdown in (True, False):
            fabric = Fabric(num_vertica=2, num_spark=4)
            load_direct(fabric.vertica, dataset, "d")
            seconds[pushdown], groups = fabric.load(
                "vertica", "d", dataset.scale,
                group_by=(["ikey"], [("*", "count"), ("c000", "sum")]),
                numpartitions=4, agg_pushdown=pushdown)
            assert groups == len({row[0] for row in dataset.rows})
        assert 0 < seconds[True] < seconds[False]


@pytest.fixture(scope="module")
def ab_pairs():
    path = os.path.join(REPO, "benchmarks", "ab_pairs.py")
    spec = importlib.util.spec_from_file_location("ab_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestAbPairs:
    """The must-not-move column: a median may be worse than the parent's
    by its ``BENCHMARK.json`` bound and no more, in the metric's own
    direction."""

    @pytest.mark.parametrize("change, within", [
        (8.0, True), (10.0, True), (12.0, True), (12.01, False), (30.0, False),
    ])
    def test_lower_is_better(self, ab_pairs, change, within):
        assert ab_pairs.within_bound(10.0, change, 0.2, "lower") is within

    @pytest.mark.parametrize("change, within", [
        (1.0, True), (0.5, True), (0.45, True), (0.449, False), (0.0, False),
    ])
    def test_higher_is_better_mirrors_the_bound(self, ab_pairs, change, within):
        assert ab_pairs.within_bound(0.5, change, 0.1, "higher") is within

    def test_the_table_prints_it_per_metric(self, ab_pairs, monkeypatch, capsys,
                                            tmp_path):
        (tmp_path / "BENCHMARK.json").write_text(
            '{"end_to_end": [{"name": "op_ms_norm", "better": "lower", '
            '"bound": 0.2}, {"name": "hit_rate", "better": "higher", '
            '"bound": 0.1}, {"name": "setup_s", "better": "lower", '
            '"bound": 0.25}, {"name": "ops_per_s", "better": "higher", '
            '"bound": 0.1}]}'
        )

        def fake_run(tree, workload, seed):
            parent = tree.name == "parent"
            return {"failed": 0, "correct": True, "metrics": {
                "op_ms_norm": {"value": 10.0 if parent else 11.0},
                "hit_rate": {"value": 0.9 if parent else 0.7},
                "setup_s": {"value": 1.0 if parent else 0.5},
                "ops_per_s": {"value": 100.0 if parent else 120.0}}}

        monkeypatch.setattr(ab_pairs, "run_once", fake_run)
        ab_pairs.main([str(tmp_path / "parent"), str(tmp_path), "--workload",
                       "w", "--pairs", "2"])
        out = capsys.readouterr().out
        assert "| > parent IQR | gain | within bound | == |" in out
        cells = [[cell.strip() for cell in line.strip("|").split("|")]
                 for line in out.splitlines() if line.startswith("| ")]
        within = {row[0]: row[-2] for row in cells}
        # 10 % slower is inside 20 %; a hit rate 22 % lower is outside 10 %
        assert within == {"metric": "within bound", "op_ms_norm": "True",
                          "hit_rate": "False", "setup_s": "True",
                          "ops_per_s": "True"}
        # a gain is a win in the metric's own direction, lower or higher
        gains = {row[0]: row[-3] for row in cells}
        assert gains == {"metric": "gain", "op_ms_norm": "False",
                         "hit_rate": "False", "setup_s": "True",
                         "ops_per_s": "True"}

    @pytest.mark.parametrize("won, parent, change, better, claimed", [
        (9, (0.36, 0.37, 0.38), 0.33, "lower", True),
        (10, (0.36, 0.37, 0.38), 0.33, "lower", True),
        (8, (0.36, 0.37, 0.38), 0.33, "lower", False),  # 8 of 10 won
        (10, (0.30, 0.37, 0.38), 0.33, "lower", False),  # 0.04 <= IQR 0.08
        (10, (0.36, 0.37, 0.38), 0.40, "lower", False),  # worse by > IQR
        (9, (0.80, 0.85, 0.90), 0.96, "higher", True),
        (9, (0.80, 0.85, 0.90), 0.74, "higher", False),
    ])
    def test_gain_is_the_claim_rule(self, ab_pairs, won, parent, change,
                                    better, claimed):
        assert ab_pairs.gain(won, 10, parent, change, better) is claimed


class TestAbPairsArguments:
    """``benchmarks/ab_pairs.py``: one table per seed from one command."""

    def test_seed_is_a_comma_separated_list(self, ab_pairs):
        base = ["parent", "change", "--workload", "v2s_load"]
        assert ab_pairs.parse_args(base).seeds == [11]
        assert ab_pairs.parse_args(base + ["--seed", "12"]).seeds == [12]
        args = ab_pairs.parse_args(base + ["--seed", "11,12", "--pairs", "3"])
        assert (args.seeds, args.pairs) == ([11, 12], 3)

    def test_workload_is_a_comma_separated_list(self, ab_pairs):
        base = ["parent", "change", "--workload"]
        assert ab_pairs.parse_args(base + ["v2s_load"]).workloads == ["v2s_load"]
        args = ab_pairs.parse_args(
            base + ["sql_analytic,v2s_load,s2v_save,serve_zipf"])
        assert args.workloads == ["sql_analytic", "v2s_load", "s2v_save",
                                  "serve_zipf"]

    @pytest.mark.parametrize("extra", [
        ["--seed", "11,x"], ["--seed", ""], ["--seed", "11,"], ["--pairs", "1"],
        ["--workload", ""], ["--workload", "v2s_load,"],
        ["--workload", "a,,b"],
    ])
    def test_malformed_arguments_exit(self, ab_pairs, extra, capsys):
        with pytest.raises(SystemExit):
            ab_pairs.parse_args(["p", "c", "--workload", "v2s_load"] + extra)
        assert "error" in capsys.readouterr().err

    def test_one_table_per_workload_and_seed(self, ab_pairs, monkeypatch, capsys,
                                             tmp_path):
        (tmp_path / "BENCHMARK.json").write_text(
            '{"end_to_end": [{"name": "op_ms_norm", "better": "lower", '
            '"bound": 0.2}]}'
        )
        runs = []

        def fake_run(tree, workload, seed):
            runs.append((tree.name, workload, seed))
            return {"failed": 0, "correct": True,
                    "metrics": {"op_ms_norm": {"value": float(len(runs))}}}

        monkeypatch.setattr(ab_pairs, "run_once", fake_run)
        status = ab_pairs.main([
            str(tmp_path / "parent"), str(tmp_path), "--workload", "a,b",
            "--seed", "11,12", "--pairs", "2",
        ])
        out = capsys.readouterr().out
        assert status == 0
        # workloads outermost, then seeds; each pair swaps which side goes first
        assert [(workload, seed) for __, workload, seed in runs] == [
            (w, s) for w in "ab" for s in (11, 12) for __ in range(4)
        ]
        assert [tree for tree, __, __ in runs[:4]] == [
            "parent", tmp_path.name, tmp_path.name, "parent",
        ]
        assert out.count("| op_ms_norm |") == 4
        for workload in "ab":
            for seed in (11, 12):
                assert f"{workload}, seed {seed}, 2 alternating pairs" in out

    def test_one_table_per_seed(self, ab_pairs, monkeypatch, capsys, tmp_path):
        (tmp_path / "BENCHMARK.json").write_text(
            '{"end_to_end": [{"name": "op_ms_norm", "better": "lower", '
            '"bound": 0.2}]}'
        )
        runs = []

        def fake_run(tree, workload, seed):
            runs.append((tree.name, workload, seed))
            value = 10.0 if tree.name == "parent" else 7.0
            return {"failed": 0, "correct": True,
                    "metrics": {"op_ms_norm": {"value": value + len(runs) % 2}}}

        monkeypatch.setattr(ab_pairs, "run_once", fake_run)
        parent = tmp_path / "parent"
        status = ab_pairs.main([
            str(parent), str(tmp_path), "--workload", "w", "--seed", "11,12",
            "--pairs", "2",
        ])
        out = capsys.readouterr().out
        assert status == 0
        assert [seed for __, __, seed in runs] == [11] * 4 + [12] * 4
        assert out.count("| op_ms_norm |") == 2
        assert "w, seed 11, 2 alternating pairs" in out
        assert "w, seed 12, 2 alternating pairs" in out


def _busy(seconds):
    """Pure-Python work for ``seconds`` of CPU."""
    end, spins = time.process_time() + seconds, 0
    while time.process_time() < end:
        spins += 1
    return spins


class TestSampleProfile:
    @pytest.fixture(scope="class")
    def sample_profile(self):
        path = os.path.join(REPO, "benchmarks", "sample_profile.py")
        spec = importlib.util.spec_from_file_location("sample_profile", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_a_busy_function_is_the_top_self_entry(self, sample_profile):
        with sample_profile.Sampler() as sampler:
            _busy(0.2)
        (__, name), samples = sampler.self_fn.most_common(1)[0]
        assert name == "_busy" and samples >= 10
        assert "_busy" in sampler.report(top=1).splitlines()[2]

    def test_memory_is_a_flag_beside_kind_and_rounds(self, sample_profile,
                                                     capsys):
        args = sample_profile.parse_args(["v2s_load"])
        assert (args.workload, args.memory, args.kind, args.rounds,
                args.seed, args.top) == ("v2s_load", False, None, 10, 11, 15)
        args = sample_profile.parse_args([
            "sql_analytic", "--memory", "--kind", "point", "--rounds", "3",
            "--top", "5",
        ])
        assert (args.workload, args.memory, args.kind, args.rounds,
                args.top) == ("sql_analytic", True, "point", 3, 5)
        with pytest.raises(SystemExit):
            sample_profile.parse_args(["--help"])
        assert "not a timer" in " ".join(capsys.readouterr().out.split())

    def test_memory_report_names_what_each_round_retains(self, sample_profile):
        kept = []
        report = sample_profile.memory_report(
            lambda: kept.append(bytearray(200_000)), rounds=3, top=1)
        lines = report.splitlines()
        traced = [float(line.split()[2]) for line in lines[:3]]
        assert [line.split(":")[0] for line in lines[:3]] == [
            "round 1", "round 2", "round 3"]
        assert traced[2] - traced[0] >= 0.39  # two more 0.2 MB buffers
        assert lines[3].startswith("-- retained since set-up")
        assert lines[4].split()[0] == "+0.600"
        assert "kept.append(bytearray(200_000))" in report

    def test_a_workload_runs_sampled_and_traced(self, sample_profile,
                                                monkeypatch, capsys):
        """The entry point end to end, on the workload whose per-event
        host time it sizes: samples, then events per op beside them."""
        monkeypatch.setattr(sys, "path", list(sys.path))  # main() prepends
        sample_profile.main(["serve_zipf", "--rounds", "1"])
        out = capsys.readouterr().out.splitlines()
        assert out[0].endswith(" samples")
        events = out[-1].split()
        assert events[1:3] == ["simulated", "events/op,"]
        assert float(events[0]) > 1 and float(events[3]) > 0
        assert events[4:6] == ["host", "us/event"]
        sample_profile.main(["serve_zipf", "--memory", "--rounds", "1"])
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("imports: peak RSS")
        assert out[0].endswith(" gc-tracked objects")
        assert out[1].startswith("set-up: peak RSS")
        assert out[2].startswith("round 1: ")
        assert out[3].startswith("-- retained since set-up")

"""Tests for the benchmark harness itself (reports, fabric, datasets)."""

import os

import pytest

from repro.bench import ExperimentReport, Fabric
from repro.connector.costmodel import NULL_COST_MODEL
from repro.workloads import make_d1, make_d1_reshaped, make_d1_with_int_column, make_d2
from repro.workloads.datasets import Dataset


class TestExperimentReport:
    def test_render_aligns_columns(self):
        report = ExperimentReport("x1", "demo")
        report.set_columns(["case", "paper", "measured"])
        report.add("short", 1.0, 123456.0)
        report.add("a much longer label", None, 0.5)
        text = report.render()
        lines = text.splitlines()
        assert lines[0] == "== x1: demo =="
        assert "case" in lines[1]
        assert "-" in lines[2]
        assert "123456" in text
        assert "-" in lines[4]  # None renders as dash

    def test_checks_recorded_and_rendered(self):
        report = ExperimentReport("x2", "demo")
        report.check("always true", True)
        report.check("always false", False)
        assert not report.all_checks_pass
        assert report.failed_checks() == ["always false"]
        text = report.render()
        assert "[PASS] always true" in text
        assert "[FAIL] always false" in text

    def test_save_writes_file(self, tmp_path):
        report = ExperimentReport("x3", "demo")
        report.add("row", 1, 2)
        path = report.save(str(tmp_path))
        assert os.path.exists(path)
        with open(path) as handle:
            assert "x3" in handle.read()

    def test_notes_rendered(self):
        report = ExperimentReport("x4", "demo")
        report.note("context matters")
        assert "note: context matters" in report.render()


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
    def test_fabric_wires_one_clock(self):
        fabric = Fabric(num_vertica=2, num_spark=2, cost_model=NULL_COST_MODEL)
        assert fabric.spark.env is fabric.vertica.env is fabric.env
        assert fabric.hdfs is None

    def test_fabric_round_trip_with_null_costs(self):
        fabric = Fabric(num_vertica=2, num_spark=2, cost_model=NULL_COST_MODEL)
        dataset = make_d1(real_rows=30, num_cols=3)
        elapsed = fabric.s2v_save(dataset, "t", 4)
        assert elapsed >= 0
        load_elapsed, count = fabric.v2s_load("t", 4, 1.0)
        assert count == 30

    def test_populate_then_load(self):
        fabric = Fabric(num_vertica=2, num_spark=2, cost_model=NULL_COST_MODEL)
        dataset = make_d1(real_rows=25, num_cols=2)
        fabric.populate(dataset, "d")
        __, count = fabric.v2s_load("d", 4, 1.0)
        assert count == 25

    def test_hdfs_fabric(self):
        fabric = Fabric(num_vertica=2, num_spark=2, with_hdfs=True,
                        cost_model=NULL_COST_MODEL, hdfs_block_size=4096)
        dataset = make_d1(real_rows=20, num_cols=2)
        fabric.hdfs_write(dataset, "/x", 2)
        __, count = fabric.hdfs_read("/x", 1.0)
        assert count == 20


class TestAbPairsArguments:
    """``benchmarks/ab_pairs.py``: one table per seed from one command."""

    @pytest.fixture(scope="class")
    def ab_pairs(self):
        import importlib.util
        import pathlib

        path = pathlib.Path(__file__).resolve().parent.parent / "benchmarks/ab_pairs.py"
        spec = importlib.util.spec_from_file_location("ab_pairs", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

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
            '{"end_to_end": [{"name": "op_ms_norm", "better": "lower"}]}'
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
            '{"end_to_end": [{"name": "op_ms_norm", "better": "lower"}]}'
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

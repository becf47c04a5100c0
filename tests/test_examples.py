"""Smoke tests: every shipped example runs end to end and reports success.

Examples are the documentation users execute first; these tests keep them
green as the library evolves.
"""

import io
import os
import runpy
import sys
from contextlib import redirect_stdout

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "examples")


def run_example(name):
    path = os.path.abspath(os.path.join(EXAMPLES_DIR, name))
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        runpy.run_path(path, run_name="__main__")
    return buffer.getvalue()


class TestExamples:
    def test_quickstart(self):
        output = run_example("quickstart.py")
        assert "S2V: 500 rows loaded" in output
        assert "status SUCCESS" in output
        assert "V2S: loaded 500 rows" in output

    def test_ml_pipeline(self):
        output = run_example("ml_pipeline.py")
        assert "600 training rows" in output
        assert "deployed models: [('churn', 'RegressionModel')]" in output
        assert "max |in-DB - Spark| prediction delta" in output
        # the in-DB predictions agree with Spark to float precision
        delta = float(output.rsplit(":", 1)[1])
        assert delta < 1e-9

    def test_etl_pipeline(self):
        output = run_example("etl_pipeline.py")
        assert "transformed down to 2751 clean click rows" in output
        assert "0 rejected, status SUCCESS" in output
        assert "after append: 2752 rows" in output

    def test_fault_tolerance(self):
        output = run_example("fault_tolerance.py")
        assert output.count("exactly-once") == 2
        assert "BROKEN" not in output
        assert "IN_PROGRESS" in output
        assert "DUPLICATED (as the paper warns)" in output
        assert "All scenarios complete." in output


class TestBenchCli:
    """The one bench entry point: ``python -m repro.bench.grid``."""

    def test_list(self, capsys):
        from repro.bench.grid import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig06" in out and "tab04" in out and "twostage" in out
        assert "chaos" in out
        assert out.count(" axes: ") == 22
        assert out.count(" cells)\n") == 22  # one count per area

    def test_unknown_experiment(self, capsys):
        from repro.bench.grid import main

        assert main(["nonexistent"]) == 2
        assert "unknown areas ['nonexistent']" in capsys.readouterr().err

    def test_run_one(self, tmp_path, capsys):
        from repro.bench.grid import main

        assert main(["tab02", "--results-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "[tab02] 2 done, 0 failed of 2 cells" in out
        assert "published 2 cell row(s)" in out
        table = (tmp_path / "BENCH_tab02.txt").read_text()
        assert "[PASS] 32 partitions: network saturated (~120 MB/s)" in table
        assert "[FAIL]" not in table
        assert (tmp_path / "BENCH_tab02.json").exists()

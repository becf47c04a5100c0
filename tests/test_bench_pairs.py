"""Tests for the paired wall judge (``grid --pairs TREE``).

The verdict's edges are stated on hand-built timings: a cell fails only
when the change loses at least ``LOSSES`` of ``PAIRS`` pairs (ties count
for neither side) *and* its median is more than ``BOUND`` over the
parent's.  The end-to-end runs start real workers: this tree against
itself passes, and a parent tree stubbed on disk shows a regressed cell,
cells present in one tree only, and a worker that exits non-zero.
"""

from pathlib import Path

import pytest

from repro.bench import grid, pairs

REPO = Path(__file__).resolve().parents[1]


def timings(change_value, lost, ties=0):
    """``PAIRS`` parent timings of 1.0 and change timings that lose
    ``lost`` pairs at ``change_value``, tie ``ties`` and win the rest."""
    won = pairs.PAIRS - lost - ties
    return ([1.0] * pairs.PAIRS,
            [change_value] * lost + [1.0] * ties + [0.5] * won)


class TestVerdict:
    def test_the_rule_is_nine_in_ten_and_ten_percent(self):
        assert (pairs.PAIRS, pairs.LOSSES, pairs.BOUND) == (20, 18, 0.10)

    def test_nine_in_ten_lost_at_plus_nine_percent_passes(self):
        fails, why = pairs.verdict(*timings(1.09, lost=18))
        assert not fails and why.startswith("pass")
        assert "+9.0 %" in why and "lost 18, won 2 of 20" in why

    def test_nine_in_ten_lost_at_plus_eleven_percent_fails(self):
        fails, why = pairs.verdict(*timings(1.11, lost=18))
        assert fails and why.startswith("FAIL") and "+11.0 %" in why

    def test_fewer_lost_fails_nothing_however_slow(self):
        assert not pairs.verdict(*timings(2.0, lost=17))[0]

    def test_ties_count_for_neither_side(self):
        fails, why = pairs.verdict(*timings(1.5, lost=17, ties=3))
        assert not fails and "lost 17, won 0 of 20" in why
        fails, why = pairs.verdict(*timings(1.5, lost=18, ties=2))
        assert fails and "lost 18, won 0 of 20" in why
        assert pairs.sign_test([1.0] * 3, [1.0] * 3) == (0, 0)

    def test_a_cell_in_one_tree_only_is_reported_not_judged(self):
        assert pairs.verdict(None, [1.0] * 10) == (
            False, "only in the change tree, not judged")
        assert pairs.verdict([1.0] * 10, None) == (
            False, "only in the parent tree, not judged")


def stub_tree(root, areas_init):
    """A checkout whose ``repro.bench.areas`` is ``areas_init``."""
    package = root / "src" / "repro"
    (package / "bench" / "areas").mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "bench" / "__init__.py").write_text("")
    (package / "bench" / "areas" / "__init__.py").write_text(areas_init)
    return root


#: a parent whose ``join_reorder`` 3-way statement does nothing, and which
#: has a cell this tree lacks and lacks the 5-way cell
STUB_AREAS = '''
class Grid:
    def cells(self):
        return [{"relations": 3, "fact_rows": 4000}, {"relations": 9}]

    def cell_id(self, params):
        return ",".join(f"{k}={v}" for k, v in params.items())


class Area:
    def grid(self):
        return Grid()

    def run_cell(self, params):
        return {"sim_seconds": None, "wall": lambda: None}


AREAS = {"join_reorder": Area()}
'''


@pytest.fixture
def short_windows(monkeypatch):
    monkeypatch.setattr(pairs, "WINDOW_SECONDS", 0.03)


class TestJudge:
    def test_this_tree_against_itself_passes(self, short_windows, capsys):
        assert grid.main(["join_reorder", "--pairs", str(REPO)]) == 0
        out = capsys.readouterr().out
        assert out.count(": pass: ") == 2, out
        assert "[pairs] 0 cell(s) failed" in out

    def test_a_slower_change_fails_and_one_sided_cells_are_reported(
            self, short_windows, tmp_path):
        lines = []
        tree = stub_tree(tmp_path, STUB_AREAS)
        assert pairs.judge(tree, ["join_reorder"], log=lines.append) == 1
        assert lines[0].startswith(
            "[pairs] join_reorder relations=3,fact_rows=4000: FAIL: ")
        assert "lost 20, won 0 of 20" in lines[0]
        assert lines[1:] == [
            "[pairs] join_reorder relations=5,fact_rows=4000: "
            "only in the change tree, not judged",
            "[pairs] join_reorder relations=9: "
            "only in the parent tree, not judged",
            f"[pairs] 1 cell(s) failed against {tree}",
        ]

    @pytest.mark.parametrize("areas_init, status", [
        ("raise SystemExit(3)\n", 3),  # dies before it builds a cell
        (STUB_AREAS.replace("lambda: None", "lambda: 1 / 0"), 1),  # raises
    ], ids=["dies", "raises"])
    def test_a_worker_that_exits_non_zero_fails_the_run(
            self, short_windows, tmp_path, areas_init, status):
        lines = []
        tree = stub_tree(tmp_path, areas_init)
        assert pairs.judge(tree, ["join_reorder"], log=lines.append) == 1
        assert lines == [f"[pairs] FAILED: parent worker exited {status}"]

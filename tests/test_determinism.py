"""A run is a function of its inputs: cell, trial and process pin the rule.

Both of the repo's reproduction mechanisms are *replay*: a failing chaos
trial is re-run "from its printed seed alone", a paper figure is gated
against committed sim-seconds.  Both presuppose that process history,
``PYTHONHASHSEED`` and memory layout are not inputs.  Every comparison
here is ``==`` — never ``approx`` — because the property is exactness.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

from repro.bench.areas import AREAS
from repro.bench.chaos_soak import TRIALS, soak_trial

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

#: HDFS-touching cells: block ids place the replicas the staged V2S scan
#: reads, attempt ids name the staged S2V files whose bytes are charged
PROBE_CELLS = (
    ("staging", {"direction": "v2s", "transport": "staged", "partitions": 8}),
    ("staging", {"direction": "s2v", "transport": "staged", "partitions": 8}),
    ("staging", {"direction": "s2v", "transport": "direct", "partitions": 16}),
)


def probe_cells():
    return [AREAS[area].run_cell(dict(params)) for area, params in PROBE_CELLS]


def trial_signature(workload, index):
    """Everything observable about the trial soak seed ``index`` runs."""
    trial = soak_trial(workload, index)
    return (trial.injections, trial.succeeded, repr(trial.raised),
            trial.report.describe())


class TestProcessHistoryIsNotAnInput:
    def test_cell_equals_itself_after_unrelated_fabrics(self):
        before = probe_cells()
        # unrelated work on other fabrics: staged saves (block, attempt and
        # job ids, connection salts) and a multi-tenant serving round
        AREAS["staging"].run_cell(
            {"direction": "s2v", "transport": "staged", "partitions": 16})
        AREAS["wlm"].run_cell({"mode": "shared"})
        assert probe_cells() == before

    def test_trial_replays_from_its_seed_alone(self):
        # staged-s2v soak seeds whose outcome followed the order the soak
        # ran in before ids were owned by the fabric
        indices = (0, 2, 3, 8, 14, 19, 20, 22)
        first = [trial_signature("staged-s2v", i) for i in indices]
        for index in range(20):  # twenty other trials in between
            soak_trial(list(TRIALS)[index % len(TRIALS)], 40 + index)
        assert [trial_signature("staged-s2v", i) for i in indices] == first


class TestHashSeedIsNotAnInput:
    SCRIPT = (
        "import json\n"
        "from tests.test_determinism import probe_cells, trial_signature\n"
        "print(json.dumps([probe_cells(), trial_signature('s2v', 12),\n"
        "                  trial_signature('staged-s2v', 8)]))\n"
    )

    def run_under(self, hash_seed):
        root = str(SRC.parent)
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join([str(SRC), root]))
        return subprocess.run(
            [sys.executable, "-c", self.SCRIPT], env=env, cwd=root,
            check=True, capture_output=True, text=True,
        ).stdout

    def test_two_hash_seeds_print_the_same_json(self):
        one = self.run_under("1")
        assert json.loads(one)[0][0]["sim_seconds"] > 0
        assert self.run_under("2") == one


class TestNoProcessWideCounters:
    def test_no_itertools_count_at_module_or_class_scope(self):
        """Ids are owned by the fabric object whose namespace they
        disambiguate; a counter at module or class scope outlives every
        fabric and leaks process history into retry jitter, replica
        placement and charged file names."""
        offenders = []
        for path in sorted((SRC / "repro").rglob("*.py")):
            tree = ast.parse(path.read_text())
            bare = any(
                isinstance(node, ast.ImportFrom) and node.module == "itertools"
                and any(alias.name == "count" for alias in node.names)
                for node in ast.walk(tree))

            def is_count(node):
                if not isinstance(node, ast.Call):
                    return False
                func = node.func
                if isinstance(func, ast.Attribute):
                    return (func.attr == "count"
                            and isinstance(func.value, ast.Name)
                            and func.value.id == "itertools")
                return bare and isinstance(func, ast.Name) and func.id == "count"

            scopes = [tree] + [node for node in ast.walk(tree)
                               if isinstance(node, ast.ClassDef)]
            for scope in scopes:
                for stmt in scope.body:
                    if isinstance(stmt, (ast.Assign, ast.AnnAssign)) \
                            and stmt.value is not None \
                            and any(map(is_count, ast.walk(stmt.value))):
                        offenders.append(f"{path.relative_to(SRC)}:{stmt.lineno}")
        assert offenders == []

"""Smoke test of the benchmark itself: ``pytest benchmarks/fabricbench``.

Outside tier-1's ``testpaths`` on purpose — it guards the instrument, not
the program.  Two rounds of every workload, end-to-end and traced, checking
that what is printed, what ``spec`` declares and what ``BENCHMARK.json``
promises are the same names, and that every traced entry point still exists.
"""

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402 - needs the path lines above
import layertrace  # noqa: E402
import spec  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SMOKE_ROUNDS = 2


def contract():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_what_spec_declares():
    declared = contract()
    expected = spec.benchmark_json(
        declared["command"], declared["paths"], declared["run_seconds"])
    assert declared == expected
    assert declared["paths"] == ["benchmarks/fabricbench"]
    assert not any("repro/bench" in part for part in declared["command"])


def test_names_units_and_counts_fit_the_contract():
    end_to_end = spec.END_TO_END
    per_layer = spec.per_layer()
    assert len(end_to_end) <= 16 and len(per_layer) <= 128
    names = [n for n, __, __ in end_to_end] + [n for n, __, __ in per_layer]
    assert len(names) == len(set(names))
    for name in names + list(spec.WORKLOADS):
        assert NAME.match(name), name
    for __, unit, __ in end_to_end + per_layer:
        assert UNIT.match(unit), unit
    assert "setup_s" in dict((n, u) for n, u, __ in end_to_end)
    assert all(0 < bound <= 0.25 for __, __, bound in end_to_end)
    assert all(len(why) <= 200 for why in spec.WORKLOADS.values())


@pytest.mark.parametrize("layer,target,mode", layertrace.PATCHES)
def test_patch_table_resolves(layer, target, mode):
    """A renamed entry point fails here instead of silently dropping a layer."""
    assert layer in spec.LAYERS
    __, __, found = layertrace.resolve(target)
    assert callable(getattr(found, "__func__", found))


def test_every_layer_has_an_entry_point():
    assert {layer for layer, __, __ in layertrace.PATCHES} == set(spec.LAYERS)


def test_benchmark_never_imports_repro_bench():
    imports = re.compile(r"^\s*(from|import)\s+repro\.bench", re.MULTILINE)
    for path in HERE.glob("*.py"):
        assert not imports.search(path.read_text()), path.name


@pytest.mark.parametrize("name", list(spec.WORKLOADS))
def test_smoke_end_to_end(name):
    result = harness.measure_end_to_end(
        name, lambda: WORKLOADS[name](11), seconds=1,
        rounds=SMOKE_ROUNDS, setup_repeats=1)
    assert result["failed"] == 0 and result["correct"]
    assert result["attempted"] == SMOKE_ROUNDS * WORKLOADS[name](11).ops_per_round
    wanted = {n: u for n, u, __ in spec.END_TO_END}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == wanted
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", list(spec.WORKLOADS))
def test_smoke_traced(name, tmp_path):
    trace_file = tmp_path / "trace.jsonl"
    originals = {t: layertrace.resolve(t)[2] for __, t, __ in layertrace.PATCHES}
    result = harness.measure_per_layer(
        name, lambda: WORKLOADS[name](11), seconds=1,
        trace_path=str(trace_file), rounds=SMOKE_ROUNDS)
    assert result["failed"] == 0 and result["correct"]
    metrics = result["metrics"]
    wanted = {n: u for n, u, __ in spec.per_layer()}
    assert {n: m["unit"] for n, m in metrics.items()} == wanted
    for kind in spec.KINDS[name]:
        assert metrics[f"kind.{kind}.ms_norm_p25"]["value"] > 0
    # no large unattributed remainder
    assert abs(metrics["trace.unattributed_frac"]["value"]) < 0.10
    spans = [json.loads(line) for line in trace_file.read_text().splitlines()]
    assert spans and {"layer", "name", "parent", "op", "start_ms",
                      "end_ms", "self_ms"} <= set(spans[0])
    # the tracer put everything back
    for target, original in originals.items():
        assert layertrace.resolve(target)[2] is original, target

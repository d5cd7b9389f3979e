"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402
import worker  # noqa: E402
from reference import Reference  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_SUFFIXES = ("_iters", "_calls", "failed_rep_share") + tuple(
    f"_failed.{cls}" for classes in worker.FAILURE_CLASSES.values() for cls in classes)


def run_bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=cwd)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: v["unit"] for name, v in result["metrics"].items()}
    for name, value in result["metrics"].items():
        assert isinstance(value["value"], (int, float)), name
        assert any(line.startswith(f"metric {name} = ") and " n=" in line for line in lines), name
    assert lines[0].startswith("env ")
    env = json.loads(lines[0][4:])
    assert env["OPENBLAS_NUM_THREADS"] == "1" and env["seed"] == 3


def test_end_to_end_metrics_are_never_zero():
    proc = run_bench("--workload", "mc_ex2_hom_n15", "--seed", "4", "--seconds", "1", "--trace", "0",
                     "--tiny")
    assert proc.returncode == 0, proc.stderr
    assert all(v["value"] > 0 for v in json.loads(proc.stdout.splitlines()[-1])["metrics"].values())


@pytest.fixture
def marscore():
    return worker.import_marscore()


def test_all_failing_configuration_is_counted_not_fatal(marscore, tmp_path):
    workload = wl.Workload("mc_ex2_n5", "mc", example=2, params=(("n", 5),), block=4)
    runner = worker.McRunner(marscore, workload, 3, tmp_path)
    measured = worker.measure(runner, 0.2, Reference(1))
    assert measured["failed"] == 0
    assert measured["fit_failed"] == measured["attempted"] > 0

    traced = worker.trace(runner, 3, tmp_path / "spans.jsonl")
    assert traced["failed"] == 0 and traced["fit_failed"] == traced["attempted"] == 12
    layers = traced["layers"]
    assert layers["sim.failed_rep_share"]["value"] == 1.0
    assert sum(v["value"] for k, v in layers.items() if "_failed." in k and v["value"]) >= 12
    # the wrappers are gone after the traced run
    assert marscore.sim.fit_outcome_parametric is marscore.model.fit_outcome_parametric


def test_output_check_catches_a_wrong_z(marscore, tmp_path):
    runner = worker.McRunner(marscore, wl.get("mc_ex2_het_n1000", tiny=True), 5, tmp_path)
    outputs = [(i, runner.call(i)) for i in (1, 2)]
    assert runner.check(outputs)[0] == set()
    outputs[0][1].details.z_s1[1] *= 1.0 + 1e-6
    assert runner.check(outputs)[0] == {(1, 1)}


def test_counts_repeat_exactly_at_one_seed(marscore, tmp_path):
    runner = worker.McRunner(marscore, wl.get("mc_ex2_hom_n15", tiny=True), 7, tmp_path)
    first, second = (worker.trace(runner, 6, tmp_path / f"spans{k}.jsonl")["layers"] for k in (0, 1))
    counts = [name for name in first if name.endswith(COUNT_SUFFIXES)]
    assert "numerics.solve_spd_calls" in counts and "model.fit_outcome_iters" in counts
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}


def test_fails_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = run_bench("--workload", "mc_ex2_hom_n15", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

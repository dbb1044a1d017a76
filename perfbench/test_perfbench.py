"""The benchmark's own test, at a tiny size (n <= 5, half-second runs).

Every run is a fresh interpreter, because the benchmark re-imports the library
and patches its names; the counts it reports depend on a cold process.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "0.5"]
    command += ["--trace", str(trace), "--tiny"]
    command[0] = sys.executable
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> tuple[list[str], dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return lines[:-1], result


def assert_metrics(lines: list[str], result: dict, declared: list[dict]):
    units = {m["name"]: m["unit"] for m in declared}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    printed = {line.split()[0]: line.split()[2] for line in lines if line.split()[:1] != ["workload"]}
    for name, unit in units.items():
        assert printed.get(name) == unit, f"{name} not printed with unit {unit}"


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_end_to_end_metrics_print_with_units(workload):
    lines, result = result_of(run_benchmark(workload, trace=0))
    assert_metrics(lines, result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_exact_counts_repeat(workload):
    lines, first = result_of(run_benchmark(workload, trace=1))
    assert_metrics(lines, first, SPEC["per_layer"])
    _, second = result_of(run_benchmark(workload, trace=1))
    exact = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"] + ["setpart.cache_hit_ratio"]
    assert {n: first["metrics"][n]["value"] for n in exact} == {n: second["metrics"][n]["value"] for n in exact}


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = run_benchmark(WORKLOAD_NAMES[0], trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_gate_flags_a_wrong_output():
    script = """
import json, run, gate
from workloads import WORKLOADS
workload = WORKLOADS["expand-me"]
ctx, _, _ = run.set_up(workload, 3, tiny=True)
outputs = {i: workload.op(ctx.lib, inst.dg, run.NULL) for i, inst in enumerate(ctx.pool)}
data = json.loads(outputs[0])
data["commutative"]["terms"][0]["coeff"] = "12345"
outputs[0] = json.dumps(data)
outputs[1] = outputs[1] + " "
reference = {inst.key: gate.digest(outputs[i]) for i, inst in enumerate(ctx.pool)}
reference[ctx.pool[1].key] = gate.digest("")
print(json.dumps(sorted(gate.check(ctx.lib, workload, ctx.pool, outputs, reference))))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=HERE, capture_output=True, text=True, timeout=170
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, 1]

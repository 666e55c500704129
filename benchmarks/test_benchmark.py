"""Tests of the benchmark itself, on the tiny --smoke job lists.

Run from the repository root:  python3 -m pytest benchmarks -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, seed=3, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_declared_metric(workload, trace):
    res = result(run(workload, trace))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["attempted"] >= 1 and 0 <= res["failed"] <= res["attempted"]
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in res["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counters_repeat_exactly(workload):
    first = result(run(workload, 1))["metrics"]
    second = result(run(workload, 1))["metrics"]
    counts = [m["name"] for m in SPEC["per_layer"]
              if m["unit"] in ("count", "flop", "ratio") and not m["name"].endswith("_share")]
    assert {k: first[k]["value"] for k in counts} == {k: second[k]["value"] for k in counts}


def test_traced_self_times_add_up():
    proc = run(WORKLOADS[0], 1)
    line = next(ln for ln in proc.stdout.splitlines() if ln.startswith("self-time accounting"))
    spans, unspanned, wall = (float(x) for x in re.findall(r"([0-9.]+) s", line)[:3])
    assert spans > 0 and unspanned >= 0
    assert spans + unspanned == pytest.approx(wall, abs=1e-5)


def test_same_seed_same_jobs_and_other_seed_other_jobs():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    try:
        import workloads

        key = lambda jobs: [(j.kind, j.recipe, j.n, j.scale, j.gen_seed) for j in jobs]  # noqa: E731
        for name in WORKLOADS:
            assert key(workloads.plan(name, 5)) == key(workloads.plan(name, 5))
            assert key(workloads.plan(name, 5)) != key(workloads.plan(name, 6))
    finally:
        del sys.path[:2]


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_svd_flops_are_shape_symmetric():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    try:
        from tracing import svd_flops

        for vectors in ("none", "v", "full"):
            assert svd_flops((300, 40), vectors) == svd_flops((40, 300), vectors) > 0
        assert svd_flops((0, 5), "full") == 0
    finally:
        del sys.path[:2]

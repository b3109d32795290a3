"""Smoke test of the benchmark itself, every workload at a tiny size.

    python3 -m pytest benchmarks/test_smoke.py -q

It checks that a run passes its own output checks, that every metric named
in BENCHMARK.json is reported with its unit, that the per-layer counts
repeat exactly between two traced runs, and that the benchmark refuses to
run without the program's sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def bench(workload, trace, root=ROOT):
    cmd = [sys.executable, os.path.join(root, "benchmarks", "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "0", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)


def result(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_metrics(res, declared):
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert {k: v["unit"] for k, v in res["metrics"].items()} == declared


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload(workload):
    plain = result(workload, 0)
    assert_metrics(plain, {m["name"]: m["unit"] for m in SPEC["end_to_end"]})
    assert all(v["value"] > 0 for v in plain["metrics"].values())

    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    first, second = result(workload, 1), result(workload, 1)
    assert_metrics(first, per_layer)
    assert_metrics(second, per_layer)
    counts = [name for name, unit in per_layer.items() if unit in ("count", "B")]
    assert ({k: first["metrics"][k]["value"] for k in counts}
            == {k: second["metrics"][k]["value"] for k in counts})


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(SPEC["workloads"][0]["name"], 0, root=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""

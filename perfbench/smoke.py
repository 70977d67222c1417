"""Smoke test of the benchmark at tiny size.

    python3 -m pytest perfbench/smoke.py

The file name does not match pytest's test_*.py pattern on purpose: the smoke
test takes about a minute of pooled solver runs, and a plain `pytest` over the
whole checkout should run only the package's own suite under tests/.

Each workload runs once untraced and once traced with `--size tiny`; every
metric named in BENCHMARK.json must be emitted, with its unit, and the
outputs must pass their checks.  A directory holding only BENCHMARK.json and
perfbench/ must make the benchmark fail without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace, capsys):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--size", "tiny"])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], float)
               for v in result["metrics"].values())


def test_workloads_in_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == \
        list(workloads.WORKLOADS)


def test_same_seed_same_inputs():
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 7) == workloads.build(name, 7)
    assert workloads.build("sweep", 7) != workloads.build("sweep", 8)


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

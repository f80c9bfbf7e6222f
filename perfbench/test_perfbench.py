"""Self-tests of the benchmark: ``python3 -m pytest perfbench/test_perfbench.py``.

Every run here uses ``--fast``: one tiny job per workload and one pass.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("kernels", "tables", "sampler", "cli")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def bench(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    proc = subprocess.run([sys.executable, script, "--seed", "5", "--fast", *args],
                          cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)
    return proc


def parse(proc):
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result, lines[:-1]


def test_spec_lists_the_metrics_the_benchmark_prints():
    sys.path.insert(0, HERE)
    import run

    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert SPEC["per_layer"] == run.per_layer_spec()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_present_with_units(workload):
    proc = bench("--workload", workload, "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result, lines = parse(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = {line.split()[1] for line in lines if line.startswith(workload)}
    sys.path.insert(0, HERE)
    import run

    assert set(run.WORKLOAD_METRICS[workload]) | {"fail_frac"} <= printed


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_present_with_units(workload):
    proc = bench("--workload", workload, "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result, _ = parse(proc)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("workload", ("kernels", "cli"))
def test_injected_mismatch_raises_fail_frac(workload):
    proc = bench("--workload", workload, "--trace", "0", "--inject-mismatch")
    assert proc.returncode == 1
    result, lines = parse(proc)
    assert not result["correct"] and result["failed"] >= 1
    frac = next(float(line.split()[2]) for line in lines
                if line.split()[1:2] == ["fail_frac"])
    assert frac > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("--workload", "kernels", "--trace", "0", cwd=tmp_path,
                 script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert not proc.stdout.strip()

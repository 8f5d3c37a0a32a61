"""Every workload passes its output checks at toy size, and the command
prints the metrics BENCHMARK.json declares."""

import json
import os
import subprocess
import sys

import pytest

from harness import END_TO_END, PER_LAYER
from workloads import EXCLUSIONS, WORKLOADS

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def _run(workload, trace, seed=3, cwd=ROOT, seconds="2"):
    return subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", seconds, "--trace", str(trace), "--size", "toy"],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_passes_its_checks_at_toy_size(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = [m[0] for m in (PER_LAYER if trace else END_TO_END)]
    assert list(result["metrics"]) == expected
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in PER_LAYER
    ]
    setup_bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup_bound == max(m["bound"] for m in spec["end_to_end"])


def test_exclusions_are_recorded():
    assert set(EXCLUSIONS) == {"uds", "crr-exact-enron", "linkpred-enron"}


def test_fails_without_the_program(tmp_path):
    # A checkout holding only the benchmark cannot import the program.
    bench_copy = tmp_path / "perfbench"
    bench_copy.mkdir()
    for name in os.listdir(BENCH):
        if name.endswith(".py"):
            (bench_copy / name).write_text(open(os.path.join(BENCH, name)).read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oneshot-lj", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

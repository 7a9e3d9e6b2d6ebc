"""The checked-in benchmark runs end to end and its output checks pass.

One short run per workload: every check the benchmark makes (pinned
sha256, citesim validate, N/A count, rankings; for prank-dag-t2 also the
--threads 1 vs 2 bytes and the precision@m table) must pass, and the
reported metrics must be the end-to-end metrics BENCHMARK.json declares.
No timing is asserted.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_workload(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0, proc.stdout
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["end_to_end"]}
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    assert reported == declared


def test_benchmark_runs_and_its_checks_pass():
    run_workload("crank-dense")


def test_prank_benchmark_runs_and_its_checks_pass():
    run_workload("prank-dag-t2")

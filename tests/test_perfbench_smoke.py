"""The checked-in benchmark runs end to end and its output checks pass.

One short run per workload and trace mode: every check the benchmark makes
(pinned sha256, citesim validate, N/A count, rankings; for prank-dag-t2
also the --threads 1 vs 2 bytes and the precision@m table) must pass, and
the reported metrics must be the ones BENCHMARK.json declares: the
end-to-end metrics with --trace 0, the per-layer ones with --trace 1.  The
traced run reads its layer metrics from the spans of the package's own
calls (iteration_scores under the run's driver, row_scores and row_na
under top_k, top_k under precision_at_m), so it fails when one of those
calls no longer happens.  No timing is asserted.
"""
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_workload(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0, proc.stdout
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    assert reported == {m["name"]: m["unit"] for m in declared}


def test_benchmark_runs_and_its_checks_pass():
    run_workload("crank-dense", 0)


def test_prank_benchmark_runs_and_its_checks_pass():
    run_workload("prank-dag-t2", 0)


@pytest.mark.parametrize("workload", ["crank-dense", "prank-dag-t2"])
def test_traced_benchmark_reports_every_layer(workload):
    run_workload(workload, 1)

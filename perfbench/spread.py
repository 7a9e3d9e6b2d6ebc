"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json's bounds.

    python3 perfbench/spread.py --workload crank-dense --seeds 1-10

Runs perfbench/run.py once per seed, one run at a time, from the checkout
root, and prints for each metric the median of the per-run values and the
quartile spread, (q3 - q1) / median, with statistics.quantiles(n=4).  A
spread above the metric's bound is reported as unresolved: a change smaller
than the bound cannot be told from noise on that metric.  The per-run values
are appended to .perfbench/spread-<workload>.jsonl.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = p.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    log = os.path.join(".perfbench", f"spread-{args.workload}.jsonl")
    os.makedirs(".perfbench", exist_ok=True)
    runs = []
    for seed in args.seeds:
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        last = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None
        if last is None or not last["correct"]:
            print(f"seed {seed}: exit {proc.returncode}, result {last}", file=sys.stderr)
            return 1
        values = {k: v["value"] for k, v in last["metrics"].items()}
        runs.append(values)
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"seed": seed, "metrics": values}) + "\n")
        print(f"seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in values.items()), flush=True)
    for name in runs[0]:
        vals = [r[name] for r in runs]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds[name]
        verdict = "ok" if spread <= bound else "UNRESOLVED"
        print(f"{name:28s} median {med:.6g} spread {spread:.4f} bound {bound} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""citesim benchmark: one workload, end-to-end or traced, with output checks.

    python3 perfbench/run.py --workload crank-dense --seed 1 --seconds 30 --trace 0

Run from the root of a citesim checkout; the program under test is the
checkout's ``src/citesim``.  Each operation runs in a fresh child process.
Inputs are generated from ``--seed``.  The run has two phases:

1. a closed loop, one client, that starts the next operation when the last
   one has ended, until ``--seconds`` have passed.  With ``--trace 0`` each
   operation is preceded by a set-up child that starts, imports and loads
   the graph, and at least SETUP_REPEATS set-up children run.  With ``--trace 1`` the loop
   alternates an untraced and a traced child, and reports the layers;
2. output checks, outside every timing.  Each failed check or failed
   operation counts in ``failed``.

Human-readable lines go first; the last stdout line is one JSON object with
the keys correct, attempted, failed and metrics.  Everything else the run
learns (context, inputs, quartiles, checks, spans) is written to
``.perfbench/<workload>-s<seed>-t<trace>/result.json`` in the checkout.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import workloads
from spans import layer_table, self_times

SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 60  # one operation takes a few seconds; a hung child is killed
HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "expected.json")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "graph.parse_s": "s", "graph.build_s": "s", "graph.edges": "count",
    "engine.first_step_s": "s", "engine.step_s": "s", "engine.build_s": "s",
    "engine.iterations": "count", "engine.pair_updates_per_s": "1/s",
    "engine.compute_s": "s", "engine.na_mask_s": "s", "engine.driver_s": "s",
    "engine.oneshot_s": "s", "engine.peak_alloc_mb": "MB",
    "engine.top_k_p50_ms": "ms", "matrix.row_scores_ms": "ms",
    "matrix.row_na_ms": "ms", "evaluate.precision_self_ms": "ms",
    "matrix.pack_s": "s", "matrix.entries_s": "s", "matrix.entries": "count",
    "matrix.csv_write_s": "s", "matrix.csv_bytes": "bytes",
    "matrix.na_count_s": "s", "cli.import_s": "s", "cli.overhead_s": "s",
    "trace.overhead_s": "s",
}
DRIVER_SPANS = ("engine.compute", "engine.converge", "engine.crank_jaccard",
                "engine.iterate_pairwise")


class Child:
    """One finished child process: wall time, peak RSS, exit status."""

    def __init__(self, start, wall, rss_mb, code, stdout):
        self.start, self.wall, self.rss_mb, self.code, self.stdout = start, wall, rss_mb, code, stdout
        self.result = None  # what a child.py child wrote
        self.digest = None  # sha256 of the CSV a compute operation wrote


class Bench:
    def __init__(self, root, work, workload, inputs):
        self.root, self.work, self.w, self.inputs = root, work, workload, inputs
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.checks = []  # {"name", "ok", "detail"}
        self.attempted = 0
        self.failed = 0
        self._n = 0

    # -- children --------------------------------------------------------

    def spawn(self, argv, tag):
        """Run argv to completion; wall from just before the fork to reaping."""
        self._n += 1
        out_path = os.path.join(self.work, f"{tag}-{self._n}.out")
        err_path = os.path.join(self.work, f"{tag}-{self._n}.err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            end = time.monotonic()
        # reaped by wait4, so record the status: Popen must not signal the pid again
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        # ru_maxrss is in KiB on Linux and covers this child alone
        return Child(start, end - start, usage.ru_maxrss / 1024.0, proc.returncode, stdout)

    def cli(self, *args, tag="cli"):
        return self.spawn([sys.executable, "-m", "citesim", *args], tag)

    def child(self, mode, tag, **fields):
        spec = {"mode": mode, "graph": self.inputs.graph, "meta": self.inputs.meta,
                "corpus": self.inputs.corpus, "measure": self.w.measure,
                "threads": self.w.threads, **fields}
        base = os.path.join(self.work, f"{tag}-{self._n + 1}")
        spec["result"] = base + ".result.json"
        spec_path = base + ".spec.json"
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        c = self.spawn([sys.executable, os.path.join(HERE, "child.py"), spec_path], tag)
        if c.code == 0:
            c.result = read_json(spec["result"])
        return c

    def compute_argv(self, out, threads=None, inputs=None):
        inputs = inputs or self.inputs
        return ["compute", "--graph", inputs.graph, "--meta", inputs.meta,
                "--measure", self.w.measure, "--threads", str(threads or self.w.threads),
                "--out", out]

    def check(self, name, ok, detail=""):
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})
        self.attempted += 1
        if not ok:
            self.failed += 1

    def op_done(self, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1

    # -- operations ------------------------------------------------------

    def setup(self):
        """One set-up child; returns its set-up time, or None if it failed."""
        c = self.cli("validate", "--graph", self.inputs.graph, "--meta", self.inputs.meta,
                     tag="setup")
        self.op_done(c.code == 0)
        return c.wall if c.code == 0 else None

    def compute_op(self, out):
        c = self.cli(*self.compute_argv(out), tag="op")
        self.op_done(c.code == 0)
        if c.code == 0:
            c.digest = sha256_file(out)
        return c

    # -- checks ----------------------------------------------------------

    def check_compute(self, ops, out, props):
        digests = {c.digest for c in ops}
        self.check("same CSV bytes in every timed run", len(digests) == 1 and None not in digests,
                   f"{len(digests)} distinct digests")
        ref = ops[-1].digest
        v = self.cli("validate", "--graph", self.inputs.graph, "--meta", self.inputs.meta,
                     "--measure", self.w.measure, "--threads", str(self.w.threads),
                     "--out", out, tag="validate")
        try:
            verified = v.code == 0 and json.loads(v.stdout).get("verified") is True
        except ValueError:
            verified = False
        self.check("citesim validate reports verified: true", verified, f"exit {v.code}")
        try:
            props["na_pairs"] = read_json(out + ".summary.json").get("na_pairs")
        except (OSError, ValueError):
            props["na_pairs"] = None
        self.check("N/A pairs match the count implied by sources and sinks",
                   props["na_pairs"] == props["expected_na_pairs"],
                   f"summary {props['na_pairs']}, expected {props['expected_na_pairs']}")
        if self.w.threads != 1:
            t1 = os.path.join(self.work, "threads1.csv")
            c = self.cli(*self.compute_argv(t1, threads=1), tag="threads1")
            self.check(f"--threads 1 and --threads {self.w.threads} give identical CSV bytes",
                       c.code == 0 and sha256_file(t1) == ref)
        return ref

    def check_rankings(self, ref):
        """top_k against np.lexsort on the timed matrix; precision@m against citesim eval."""
        rank_csv = os.path.join(self.work, "rank.csv")
        c = self.child("check-rank", "rank", csv=rank_csv)
        r = c.result
        self.check("the ranking check computes the timed CSV bytes",
                   r is not None and sha256_file(rank_csv) == ref)
        self.check("top_k rankings match an np.lexsort ranking of dense scores",
                   r is not None and r["rankings_mismatched"] == 0,
                   "" if r is None else
                   f"{r['rankings_mismatched']} of {r['rankings_checked']} rankings differ")
        if not self.inputs.corpus:
            return
        csv_path = os.path.join(self.work, "precision.csv")
        e = self.cli("eval", "--graph", self.inputs.graph, "--meta", self.inputs.meta,
                     "--corpus", self.inputs.corpus, "--measure", self.w.measure,
                     "--threads", str(self.w.threads),
                     "--m", ",".join(map(str, workloads.M_VALUES)), "--out", csv_path,
                     tag="eval")
        cli_table = {}
        if e.code == 0:
            with open(csv_path, encoding="utf-8", newline="") as fh:
                cli_table = {row["m"]: row["precision"] for row in csv.DictReader(fh)}
        self.check("mean precision@m from the lexsort rankings matches citesim eval",
                   r is not None and e.code == 0 and cli_table == r["precision_table"],
                   f"citesim eval {cli_table}")

    def check_pinned(self, seed, digest):
        """The default seed's output must keep the digest pinned in expected.json."""
        with open(EXPECTED, encoding="utf-8") as fh:
            pinned = json.load(fh)
        want = pinned["sha256"].get(self.w.name)
        if seed != pinned["seed"]:
            inputs, _ = workloads.make_inputs(self.w, pinned["seed"],
                                              os.path.join(self.work, "default-in"))
            out = os.path.join(self.work, "default.csv")
            c = self.cli(*self.compute_argv(out, inputs=inputs), tag="default")
            digest = sha256_file(out) if c.code == 0 else None
        self.check(f"output at seed {pinned['seed']} has the pinned sha256",
                   want is not None and digest == want, f"got {digest}")
        return digest


def read_text(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read().strip()


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def quartiles(values):
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summary(values):
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "count": len(values)}


# -- the two kinds of run --------------------------------------------------


def measure_end_to_end(bench, seconds, out):
    """Closed loop of untraced operations, each after one set-up child."""
    ops, setups = [], []
    deadline = time.monotonic() + seconds
    while not ops or time.monotonic() < deadline:
        # set-up children are spread over the run, like the operations
        setups.append(bench.setup())
        ops.append(bench.compute_op(out))
    while len(setups) < SETUP_REPEATS:
        setups.append(bench.setup())
    good = [c for c in ops if c.code == 0]
    values = {
        "wall_s": [c.wall for c in good],
        "setup_s": [t for t in setups if t is not None],
        "peak_rss_mb": [c.rss_mb for c in good],
    }
    stats = {k: summary(v) for k, v in values.items() if v}
    metrics = {k: s["median"] for k, s in stats.items()}
    return ops, stats, metrics


def measure_layers(bench, seconds, out, n):
    """Closed loop of (untraced, traced) child pairs; per-layer medians."""
    traced_out = os.path.join(bench.work, "traced.csv")

    def plain():
        return bench.child("op", "plain", argv=bench.compute_argv(out))

    def traced():
        return bench.child("op", "traced", trace=True, argv=bench.compute_argv(traced_out))

    pairs, per_child, spans = [], [], []
    deadline = time.monotonic() + seconds
    while not pairs or time.monotonic() < deadline:
        # alternate which child goes first, so neither always meets a warm cache
        if len(pairs) % 2:
            t, p = traced(), plain()
        else:
            p, t = plain(), traced()
        pairs.append(p)
        bench.op_done(p.result is not None)
        bench.op_done(t.result is not None)
        if p.result is None or t.result is None:
            continue
        p.digest = sha256_file(out)
        bench.check("traced run writes the same CSV bytes", sha256_file(traced_out) == p.digest)
        per_child.append(layer_metrics(t, p.result["op_end"] - p.start, n,
                                       os.path.getsize(traced_out)))
        spans.append(t.result["spans"])
    stats = {k: summary([m[k] for m in per_child]) for k in PER_LAYER_UNITS} if per_child else {}
    metrics = {k: s["median"] for k, s in stats.items()}
    return pairs, stats, metrics, spans


# -- per-layer metrics from one traced child ----------------------------------


def layer_metrics(traced, untraced_op, n, csv_bytes):
    spans = traced.result["spans"]
    own = self_times(spans)
    dur = [s["end"] - s["start"] for s in spans]

    def pick(name, run=None):
        return [d for s, d in zip(spans, dur) if s["name"] == name and run in (None, s["run"])]

    def under_compute(i):
        while i >= 0:
            if spans[i]["name"] == "engine.compute":
                return True
            i = spans[i]["parent"]
        return False

    steps = pick("engine.iteration_scores")
    later = steps[1:] or steps
    roots = sum(d for s, d in zip(spans, dur) if s["run"] == "op" and s["parent"] < 0)
    traced_op = traced.result["op_end"] - traced.start
    m = {
        "graph.parse_s": sum(pick("graph.read_edge_list", "probe")),
        "graph.build_s": sum(pick("graph.load_graph", "probe")),
        "graph.edges": traced.result["edges"],
        "engine.first_step_s": steps[0],
        "engine.step_s": statistics.median(later),
        "engine.build_s": steps[0] - statistics.median(later),
        "engine.iterations": len(steps),
        "engine.pair_updates_per_s": n * n * len(steps) / sum(steps),
        "engine.compute_s": sum(pick("engine.compute", "op")),
        "engine.na_mask_s": sum(pick("engine.na_mask")),
        "engine.driver_s": sum(o for s, o in zip(spans, own)
                               if s["run"] == "op" and s["name"] in DRIVER_SPANS),
        "engine.oneshot_s": sum(pick("engine.cocitation")),
        "engine.peak_alloc_mb": traced.result["peak_alloc_bytes"] / 2**20,
        "engine.top_k_p50_ms": 1000 * statistics.median(pick("engine.top_k")),
        "matrix.row_scores_ms": 1000 * statistics.median(pick("matrix.row_scores")),
        "matrix.row_na_ms": 1000 * statistics.median(pick("matrix.row_na")),
        "evaluate.precision_self_ms": 1000 * statistics.median(
            [o for s, o in zip(spans, own) if s["name"] == "evaluate.precision_at_m"]),
        "matrix.pack_s": sum(d for i, (s, d) in enumerate(zip(spans, dur))
                             if s["name"] == "matrix.from_square" and under_compute(i)),
        "matrix.entries_s": sum(pick("matrix.entries_above", "probe")),
        "matrix.entries": traced.result["entries"],
        "matrix.csv_write_s": sum(pick("matrix.write_matrix_csv")),
        "matrix.csv_bytes": csv_bytes,
        "matrix.na_count_s": sum(pick("matrix.na_count")),
        "cli.import_s": traced.result["import_s"],
        # within the traced child, so the host's drift between two children
        # does not swamp it: start, argument parsing, the summary file
        "cli.overhead_s": traced_op - traced.result["import_s"] - roots,
        "trace.overhead_s": traced_op - untraced_op,
    }
    return m


# -- context ---------------------------------------------------------------


def context(root):
    ctx = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "cpus_usable": len(os.sched_getaffinity(0)), "platform": platform.platform()}
    try:
        ctx["git_sha"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        ctx["git_sha"] = None  # a checkout without .git
    h = hashlib.sha256()
    src = os.path.join(root, "src", "citesim")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    ctx["source_sha256"] = h.hexdigest()
    import numpy

    ctx["numpy"] = numpy.__version__
    try:
        import scipy

        ctx["scipy"] = scipy.__version__
    except ImportError:
        ctx["scipy"] = None
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            level, kind, size, shared = (
                read_text(os.path.join(base, entry, f))
                for f in ("level", "type", "size", "shared_cpu_list"))
        except OSError:
            continue
        caches[f"L{level}-{kind}"] = {"size": size, "shared_cpu_list": shared}
    ctx["caches"] = caches
    return ctx


def input_props(g, measure):
    """Graph shape and the N/A count the measure must produce."""
    import numpy as np

    s = g.stats()
    no_in = np.array([not x for x in g.in_index])
    no_out = np.array([not x for x in g.out_index])
    # prank leaves (p, q) N/A when p or q lacks in-links and p or q lacks
    # out-links; crank's Jaccard form scores every pair.
    na = (no_in[:, None] | no_in[None, :]) & (no_out[:, None] | no_out[None, :])
    np.fill_diagonal(na, False)
    expected_na = int(na.sum()) // 2 if measure == "prank" else 0
    return {"n": s.n, "edges": s.edge_count, "sources": s.sources, "sinks": s.sinks,
            "expected_na_pairs": expected_na}


# -- main ------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "citesim", "__init__.py")):
        print("perfbench: run from the root of a citesim checkout (no src/citesim here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    w = workloads.WORKLOADS[args.workload]
    work = os.path.join(root, ".perfbench", f"{w.name}-s{args.seed}-t{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    inputs, graph = workloads.make_inputs(w, args.seed, os.path.join(work, "in"))
    props = input_props(graph, w.measure)
    bench = Bench(root, work, w, inputs)
    record = {"workload": w.name, "why": w.why, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "context": context(root), "inputs": props}
    out = os.path.join(work, "scores.csv")

    if args.trace == 0:
        ops, stats, metrics = measure_end_to_end(bench, args.seconds, out)
        units = END_TO_END_UNITS
    else:
        ops, stats, metrics, spans = measure_layers(bench, args.seconds, out, props["n"])
        with open(os.path.join(work, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump([{"run_id": f"traced-{i}", "spans": s} for i, s in enumerate(spans)], fh)
        record["self_time"] = layer_table(spans[-1]) if spans else {}
        units = PER_LAYER_UNITS

    # output checks, outside every timing
    good = [c for c in ops if c.code == 0]
    digest = bench.check_compute(good, out, props) if good else None
    if digest is not None:
        props["output_bytes"] = os.path.getsize(out)
        with open(out, "rb") as fh:
            props["output_rows"] = sum(1 for _ in fh) - 1
        bench.check_rankings(digest)
        record["output_sha256"] = bench.check_pinned(args.seed, digest)
    else:
        bench.check("every operation failed", False)

    missing = [k for k in units if k not in metrics]
    if missing:
        bench.check("every metric measured", False, ", ".join(missing))
    record.update(stats=stats, checks=bench.checks, attempted=bench.attempted,
                  failed=bench.failed)
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    for f in os.listdir(work):  # drop the bulky score files, keep the record
        if f.endswith(".csv"):
            os.remove(os.path.join(work, f))

    report(record, metrics, units)
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }))
    return 0


def report(record, metrics, units):
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']}: {record['why']}")
    ctx = record["context"]
    caches = ", ".join(f"{k} {v['size']}" for k, v in ctx["caches"].items())
    print(f"# git {ctx['git_sha']} src {ctx['source_sha256'][:12]} python {ctx['python']} "
          f"numpy {ctx['numpy']} scipy {ctx['scipy']} nproc {ctx['nproc']} caches {caches}")
    print("# inputs " + " ".join(f"{k}={v}" for k, v in record["inputs"].items()))
    for k in units:
        s = record["stats"].get(k, {})
        if "q1" in s:
            print(f"{k:28s} {metrics[k]:14.6g} {units[k]:6s} q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
                  f"n={s['count']}")
        elif k in metrics:
            print(f"{k:28s} {metrics[k]:14.6g} {units[k]:6s} n={s.get('count')}")
    for row in record["checks"]:
        print(f"check {'ok  ' if row['ok'] else 'FAIL'} {row['name']} {row['detail']}")
    print(f"# attempted {record['attempted']} failed {record['failed']} "
          f"fail_ratio {record['failed'] / max(record['attempted'], 1):.6g}")


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front door.

One invocation, one command, file in, files out:

    citesim compute   --graph g.tsv --measure crank --out scores.csv
    citesim topk      --graph g.tsv --measure simrank --query ID --out top.csv
    citesim eval      --graph g.tsv --corpus fields.txt --out precision.csv
    citesim histogram --graph g.tsv --measure crank --out hist.csv
    citesim trace     --graph g.tsv --measure crank --kmax 10 --out trace.csv
    citesim cases     --graph g.tsv --pairs pairs.tsv --out cases.csv
    citesim validate  --graph g.tsv [--measure crank --out scores.csv]

:func:`parse_args` builds a command's configs once, from its flags:
--measure's, or one per measure in its default normalization (the numeric
defaults are `MeasureConfig`'s), so the configs that run vet the numbers.
What the flags alone refuse is refused before the graph is read: a
raw-count `histogram`, a one-shot `trace`.  Every command then loads the
graph and starts one summary: the command, its input files, the thread
count and the graph shape.  `compute`, `topk`, `histogram` and
`validate --measure` each compute one matrix under their config; `eval` and
`cases` score every config, and `trace` runs the iterations itself.  A
command that writes a CSV writes the summary beside it as
`<out>.summary.json`, with the config and any iteration report, so a run
can be reproduced from its outputs alone.
Both are written to temporary files beside them and renamed into place,
the CSV first, once both are complete: a run that fails leaves no output,
or the previous run's, never a part of one.
`validate` prints the summary instead.  Without a measure it checks and
summarizes the graph; with a measure plus --out it checks the named CSV
against the computed matrix pair by pair: every exported pair present
once, no other pair, and each score equal as a parsed float64 (so `5e-1`
passes where `0.5` was written).

Exit status: 0 success, 1 usage or parameter problem, 2 unreadable or
inconsistent data, 130 interrupted (:func:`entry` prints one stderr line,
no traceback).

:func:`entry` (the ``citesim`` script and ``python -m citesim``) freezes
the garbage collector's heap before it runs the command.  The imports
leave about 22k tracked objects (numpy, argparse, citesim) that never
become garbage in a one-command process, yet every collection would rescan
them, the interpreter's collections at exit included: freezing them cut
the exit after ``validate`` or ``compute`` from about 30 to 8 ms (n=600,
on a 2-core x86-64 host).  The exit is otherwise
the interpreter's own (``sys.exit``: stdio flushed, atexit handlers run),
so every output file is closed by its ``with`` block before :func:`main`
returns.  :func:`main` freezes nothing, so callers that embed it keep
their collector as it was.

The pairs file for `cases` is tab-separated `p<TAB>q<TAB>tag` with `#`
comments; tags are P1 (old-old pair), P2 (recent-recent), P3 (old-recent).
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from contextlib import contextmanager, suppress
from dataclasses import asdict, fields
from itertools import islice

import numpy as np

from . import evaluate
from .engine import (MEASURES, NORMALIZATIONS, MeasureConfig, compute, require_iterative,
                     top_k)
from .errors import ConfigError, DataError
from .graph import csv_rows, load_graph_files, plain_ascii, read_tab_lines
from .matrix import (ROW_DTYPE, SCORE_FORMAT, compare_rows, read_matrix_csv, write_matrix_csv,
                     write_table)


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1 (argparse defaults to 2, which this tool
    # reserves for data errors)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _m_list(text: str) -> tuple:
    try:
        values = tuple(int(plain_ascii(t)) for t in text.split(",") if t.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None
    if not values:
        raise argparse.ArgumentTypeError("at least one m value required")
    if min(values) < 1:
        raise argparse.ArgumentTypeError(f"m values must be >= 1, got {min(values)}")
    return values


def _build_parser() -> _Parser:
    parser = _Parser(prog="citesim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    default = {f.name: f.default for f in fields(MeasureConfig)}

    def add_common(p, out_required=True, measure_required=False):
        for kind in (int, float):  # numeric flags take plain ASCII only, as the CSV readers do
            p.register("type", kind, lambda text, kind=kind: kind(plain_ascii(text)))
        p.add_argument("--graph", required=True, help="edge-list file, citing<TAB>cited")
        p.add_argument("--meta", help="optional CSV: external_id,title,year")
        p.add_argument("--measure", choices=MEASURES, required=measure_required)
        p.add_argument("--normalization", choices=NORMALIZATIONS)
        p.add_argument("--C", type=float, default=default["C"], help="decay factor in [0,1]")
        p.add_argument("--lambda", dest="lam", type=float, default=default["lam"],
                       help="in-link vs out-link weight in [0,1]")
        p.add_argument("--kmax", dest="k_max", type=int, default=default["k_max"])
        p.add_argument("--epsilon", type=float, default=default["epsilon"])
        p.add_argument("--out", required=out_required, help="output CSV path")
        p.add_argument("--threads", type=int, default=1)

    p = sub.add_parser("compute", help="write the full similarity matrix")
    add_common(p, measure_required=True)

    p = sub.add_parser("topk", help="best partners for one query paper")
    add_common(p, measure_required=True)
    p.add_argument("--query", required=True, help="external id of the query paper")
    p.add_argument("--count", type=int, default=10)

    p = sub.add_parser("eval", help="mean precision@m against reference fields")
    add_common(p)
    p.add_argument("--corpus", required=True, help="[field] sections of external ids")
    p.add_argument("--m", dest="m_values", type=_m_list,
                   default=(10, 20, 30, 40, 50), help="comma-separated m values")

    p = sub.add_parser("histogram", help="score distribution with N/A bucket")
    add_common(p, measure_required=True)

    p = sub.add_parser("trace", help="top-score mean after each iteration up to --kmax")
    add_common(p, measure_required=True)

    p = sub.add_parser("cases", help="score tagged hard pairs under every measure")
    add_common(p)
    p.add_argument("--pairs", required=True, help="p<TAB>q<TAB>tag lines")

    p = sub.add_parser("validate", help="check a graph file, or verify a matrix CSV")
    add_common(p, out_required=False)

    return parser


def parse_args(argv) -> argparse.Namespace:
    """The parsed command line, validated; usage problems exit 1."""
    parser = _build_parser()
    spec = parser.parse_args(argv)
    if spec.threads < 1:
        parser.error("--threads must be >= 1")
    if spec.command == "topk" and spec.count < 1:
        parser.error("--count must be >= 1")
    try:  # --measure's config, or each measure's in its default normalization
        spec.configs = [MeasureConfig(measure, spec.normalization if spec.measure else None,
                                      spec.C, spec.lam, spec.k_max, spec.epsilon)
                        for measure in ([spec.measure] if spec.measure else MEASURES)]
    except ConfigError as exc:
        parser.error(str(exc))
    if spec.measure is None and spec.normalization is not None:
        parser.error("--normalization requires --measure")
    if spec.command == "validate" and spec.measure is not None and spec.out is None:
        parser.error("matrix verification requires --out naming the CSV to check")
    return spec


# -- execution ---------------------------------------------------------------


def _graph_payload(g, load_report) -> dict:
    s = g.stats()
    return {
        "nodes": s.n,
        "edges": s.edge_count,
        "mean_in_degree": s.d1,
        "mean_out_degree": s.d2,
        "sources": s.sources,
        "sinks": s.sinks,
        "duplicate_edges_dropped": load_report.duplicate_edges,
        "self_loops_dropped": load_report.self_loops,
    }


def _config_payload(cfg: MeasureConfig) -> dict:
    payload = asdict(cfg)
    payload["lambda"] = payload.pop("lam")
    return payload


def _read_pairs(path, g) -> list:
    pairs = []
    for lineno, _, parts in read_tab_lines(path):
        if len(parts) != 3:
            raise DataError(f"{path}:{lineno}: expected 'p<TAB>q<TAB>tag'")
        p_ext, q_ext, tag = parts
        if tag not in evaluate.CASE_TAGS:
            raise DataError(
                f"{path}:{lineno}: unknown tag {tag!r} "
                f"(expected one of {', '.join(evaluate.CASE_TAGS)})"
            )
        try:
            p, q = g.id_of(p_ext), g.id_of(q_ext)
        except DataError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
        if p == q:
            raise DataError(f"{path}:{lineno}: case pair ({p_ext!r}, {q_ext!r}) "
                            "must name two distinct papers")
        pairs.append((p, q, tag))
    if not pairs:
        raise DataError(f"{path}: no case pairs found")
    return pairs


def _write_topk(g, entries, path):
    write_table(path, ["rank", "external_id", "score", "zero_fill", "title"], (
        [rank, g.meta[e.paper].external_id, SCORE_FORMAT % e.score, int(e.zero_fill),
         g.meta[e.paper].title] for rank, e in enumerate(entries, start=1)))


@contextmanager
def _replacing(*paths):
    """Yield a temporary path beside each of ``paths``; when the block ends,
    rename each over its path in order, or, on an exception, remove them."""
    temps = [f"{path}.{os.getpid()}.tmp" for path in paths]
    try:
        yield temps
        for temp, path in zip(temps, paths):
            os.replace(temp, path)
    except BaseException:
        for temp in temps:
            with suppress(FileNotFoundError):
                os.remove(temp)
        raise


def _dispatch(spec: argparse.Namespace) -> int:
    cfg = spec.configs[0]  # the one config of every command but eval and cases
    # what the flags alone refuse is refused before the graph is read
    if spec.command == "histogram" and not cfg.bounded:
        raise ConfigError(evaluate.UNBOUNDED_HISTOGRAM)
    if spec.command == "trace":
        require_iterative(cfg)
    g, load_report = load_graph_files(spec.graph, spec.meta)
    summary = {
        "command": spec.command,
        "graph_file": spec.graph,
        "meta_file": spec.meta,
        "threads": spec.threads,
        "graph": _graph_payload(g, load_report),
    }
    if spec.command == "validate" and spec.measure is None:
        text = json.dumps(summary, indent=2, sort_keys=True)
        print(text)
        if spec.out:
            with _replacing(spec.out) as [out], open(out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        return 0

    if spec.command in ("eval", "cases"):
        summary["configs"] = [_config_payload(c) for c in spec.configs]
    else:
        summary["config"] = _config_payload(cfg)
    if spec.command == "validate":
        return _verify_matrix(compute(g, cfg, spec.threads)[0], spec.out, summary)

    with _replacing(spec.out, f"{spec.out}.summary.json") as [out, summary_out]:
        if spec.command == "eval":
            corpus, corpus_report = evaluate.load_corpus(spec.corpus, g)
            table = evaluate.run_benchmark(g, corpus, spec.configs, spec.m_values, spec.threads)
            evaluate.write_precision_csv(table, out)
            summary.update({
                "corpus_file": spec.corpus,
                "fields": {k: len(v) for k, v in sorted(corpus.fields.items())},
                "unresolved_ids": {k: list(v) for k, v in sorted(corpus_report.unresolved.items())},
                "dropped_fields": list(corpus_report.dropped_fields),
                "m_values": list(spec.m_values),
                "query_count": table.query_count,
            })
        elif spec.command == "cases":
            pairs = _read_pairs(spec.pairs, g)
            table = evaluate.case_analysis(g, pairs, spec.configs, spec.threads)
            evaluate.write_cases_csv(table, g, out)
            summary.update({"pairs_file": spec.pairs, "pairs": len(pairs)})
        elif spec.command == "trace":
            points = evaluate.convergence_trace(g, cfg, spec.threads)
            evaluate.write_trace_csv(points, out)
            summary["pairs_used"] = points[-1].pairs_used if points else 0
        else:  # compute, topk, histogram: one matrix
            # an unknown query fails before the matrix is computed
            qid = g.id_of(spec.query) if spec.command == "topk" else None
            mat, report = compute(g, cfg, spec.threads)
            summary["iteration"] = None if report is None else asdict(report)
            if spec.command == "compute":
                write_matrix_csv(mat, out)
                summary.update({"k": mat.k, "na_pairs": mat.na_count()})
            elif spec.command == "topk":
                entries = top_k(mat, qid, spec.count)
                _write_topk(g, entries, out)
                summary.update({"query": spec.query, "count": spec.count,
                                "returned": len(entries)})
            else:
                hist = evaluate.score_histogram(mat)
                evaluate.write_histogram_csv(hist, out)
                summary.update({"na_pairs": hist.na, "total_pairs": hist.total_pairs})
        with open(summary_out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


def _verify_matrix(mat, path: str, summary: dict) -> int:
    """Compare the CSV export at ``path`` with ``mat`` entry for entry."""
    rows = read_matrix_csv(path)
    try:
        missing, extra, changed = diff = compare_rows(mat, rows, path)
    except DataError as exc:  # name the bad row's line: read the file again up to it
        lineno, _ = next(islice(csv_rows(path, ROW_DTYPE.names), exc.row, None))
        raise DataError(f"{path}:{lineno}{str(exc).removeprefix(path)}") from None
    first = np.concatenate(diff)[:10].tolist()  # missing, unexpected, mismatched
    print(json.dumps({
        **summary,
        "matrix_file": path,
        "entries_checked": len(rows),
        "missing_pairs": len(missing),
        "unexpected_pairs": len(extra),
        "mismatched_scores": len(changed),
        "verified": not first,
    }, indent=2, sort_keys=True))
    if first:
        for p, q in first:
            print(f"mismatch at pair ({p}, {q})", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    try:
        spec = parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _dispatch(spec)
    except ConfigError as exc:
        print(f"citesim: error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"citesim: error: {exc}", file=sys.stderr)
        return 2


def entry():
    gc.freeze()
    try:
        sys.exit(main())
    except KeyboardInterrupt:
        print("citesim: interrupted", file=sys.stderr)
        sys.exit(130)


if __name__ == "__main__":
    entry()

"""One benchmark operation in a fresh process, optionally traced.

    python perfbench/child.py SPEC.json

SPEC names the mode and the inputs; the child writes its findings to
SPEC["result"] as JSON.  Modes:

* ``op``: ``citesim.cli.main`` with the compute arguments, exactly what
  ``python -m citesim compute`` runs.  With ``trace`` on, the public
  functions are wrapped with spans, and after the operation a probe phase
  calls the layers the operation did not reach, on the same inputs.
* ``check-rank``: compute the workload's matrix, write it as CSV, and
  compare every paper's ``top_k`` ranking with an independent
  ``np.lexsort`` ranking of the dense score matrix.  With a corpus, also
  derive the mean precision@m table from the lexsort rankings.

Times shared with the parent use ``time.monotonic``, one clock for every
process on the host.
"""
from __future__ import annotations

import json
import sys
import time

from workloads import M_VALUES

PROBE_COUNT = 10  # m for the query probe


def probe(spec, tracer, result):
    """Call, inside spans, the layers the operation itself did not reach."""
    from citesim import engine, evaluate, graph

    g = tracer.last["graph.load_graph_files"][0]
    mat = tracer.last["engine.compute"][0]
    with tracer.span("graph.read_edge_list"):
        edges = list(graph.read_edge_list(spec["graph"]))
    graph.load_graph(edges, graph.read_metadata(spec["meta"]))
    with tracer.span("matrix.entries_above"):
        result["entries"] = sum(1 for _ in mat.entries_above())
    engine.cocitation(g, engine.MeasureConfig("cocitation", "jaccard"))
    # no reference fields are needed here: a paper's direct neighbors stand in
    for q in range(g.n):
        evaluate.precision_at_m(mat, q, g.neighbors(q) | {q}, PROBE_COUNT)
    # tracemalloc slows every allocation, so it watches a compute() of its
    # own, with the same arguments, that records no spans
    args, kwargs = tracer.calls["engine.compute"]
    result["peak_alloc_bytes"] = tracer.peak_alloc(engine.compute, *args, **kwargs)
    result["n"] = g.n
    result["edges"] = len(g.edges)


def check_rank(spec, result):
    """Rankings from top_k against np.lexsort on the dense matrix."""
    import numpy as np
    from citesim import engine, evaluate, graph, matrix

    g, _ = graph.load_graph_files(spec["graph"], spec["meta"])
    mat, _ = engine.compute(g, engine.MeasureConfig(spec["measure"]), spec["threads"])
    # the parent compares these bytes with the timed output, so the
    # rankings below are checked on the matrix the benchmark timed
    matrix.write_matrix_csv(mat, spec["csv"])
    scores, na = mat.dense_scores(), mat.dense_na()
    ids = np.arange(mat.n)
    mismatched = 0
    ranking = []
    for q in range(mat.n):
        row = scores[q]
        cand = ids[(row > 0.0) & ~na[q] & (ids != q)]
        ref = cand[np.lexsort((cand, -row[cand]))]
        got = engine.top_k(mat, q, mat.n, zero_fill=False)
        if ([e.paper for e in got] != ref.tolist()
                or [e.score for e in got] != row[ref].tolist()):
            mismatched += 1
        ranking.append(ref.tolist())
    result["rankings_checked"] = mat.n
    result["rankings_mismatched"] = mismatched
    if spec["corpus"]:
        corpus, _ = evaluate.load_corpus(spec["corpus"], g)
        # the order run_benchmark uses: fields by name, papers by id
        queries = [(name, q) for name in sorted(corpus.fields)
                   for q in sorted(corpus.fields[name])]
        table = {}
        for m in M_VALUES:
            total = 0.0
            for name, q in queries:
                targets = corpus.fields[name] - {q}
                total += sum(1 for p in ranking[q][:m] if p in targets) / m
            table[str(m)] = matrix.SCORE_FORMAT % (total / len(queries))
        result["precision_table"] = table


def main(spec_path) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    result = {}
    tracer = None
    if spec.get("trace"):
        from spans import Tracer

        tracer = Tracer()
    t = time.perf_counter()
    import citesim
    import citesim.cli

    result["import_s"] = time.perf_counter() - t
    if tracer:
        tracer.install(sys.modules)
    code = 0
    if spec["mode"] == "check-rank":
        check_rank(spec, result)
    else:
        code = citesim.cli.main(spec["argv"])
    result["op_end"] = time.monotonic()
    if tracer and code == 0:
        tracer.run = "probe"
        probe(spec, tracer, result)
        result["spans"] = tracer.spans
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

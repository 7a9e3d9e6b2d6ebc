"""Reference implementations of every measure.

Two kinds, neither sharing code with the engine's matrix algebra:

* brute force: plain dicts, explicit nested loops over neighbor sets, one
  literal transcription of each update rule.  The engine must agree with
  these to a tolerance on small graphs.
* dense einsum: the engine's earlier algebra, dense 0/1 matrices and
  ``einsum("ij,jk->ik")`` products in fixed row blocks.  The engine's
  sparse products fix their summation order to reproduce these bits, so
  the engine must agree with them exactly.

The score store has element-by-element references too: the CSV one line
per pair, the CSV check through dicts and sets of pairs, and rankings from
a sorted list.  The graph loader has one as well: per-edge Python sets, as
the graph was once stored.  So does the corpus loader: the two-pass one,
which buffers every field's ids before it resolves any.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Optional

import numpy as np

from citesim.errors import DataError
from citesim.evaluate import CorpusReport, EvalCorpus
from citesim.graph import CitationGraph, read_tab_lines
from citesim.matrix import SCORE_FORMAT

_ROW_FORMAT = f"%d,%d,{SCORE_FORMAT}\n"


def _identity(n):
    return {(p, q): 1.0 if p == q else 0.0 for p in range(n) for q in range(n)}


def shared_count_scores(g, view, mode):
    """One-shot shared-neighbor measure over the given view."""
    out = {}
    for p in range(g.n):
        for q in range(g.n):
            if p == q:
                out[(p, q)] = 1.0
                continue
            xp = g.neighbors(p, view)
            xq = g.neighbors(q, view)
            inter = len(xp & xq)
            if mode == "raw_count":
                out[(p, q)] = float(inter)
            else:
                union = len(xp | xq)
                out[(p, q)] = inter / union if union else 0.0
    return out


def blend_count_scores(g, lam, mode):
    s_in = shared_count_scores(g, "in", mode)
    s_out = shared_count_scores(g, "out", mode)
    out = {}
    for pq, a in s_in.items():
        if pq[0] == pq[1]:
            out[pq] = 1.0
        else:
            out[pq] = lam * a + (1.0 - lam) * s_out[pq]
    return out


def pairwise_scores(g, view, C, k):
    """k iterations of the single-view recursion.

    Update: C / (|X(p)| * |X(q)|) times the sum of previous scores over
    X(p) x X(q); pairs with an empty side read 0 throughout.
    """
    R = _identity(g.n)
    for _ in range(k):
        new = {}
        for p in range(g.n):
            for q in range(g.n):
                if p == q:
                    new[(p, q)] = 1.0
                    continue
                xp = g.neighbors(p, view)
                xq = g.neighbors(q, view)
                if not xp or not xq:
                    new[(p, q)] = 0.0
                    continue
                s = 0.0
                for pp in sorted(xp):
                    for qq in sorted(xq):
                        s += R[(pp, qq)]
                new[(p, q)] = C * s / (len(xp) * len(xq))
        R = new
    return R


def blend_scores(g, C, lam, k):
    """k iterations of the lam-weighted in/out recursion.

    A term with an empty neighbor set on either side contributes 0; the
    pair is undefined only when both terms are.
    """
    R = _identity(g.n)
    for _ in range(k):
        new = {}
        for p in range(g.n):
            for q in range(g.n):
                if p == q:
                    new[(p, q)] = 1.0
                    continue
                ip = g.neighbors(p, "in")
                iq = g.neighbors(q, "in")
                op = g.neighbors(p, "out")
                oq = g.neighbors(q, "out")
                term_in = 0.0
                if ip and iq:
                    s = 0.0
                    for pp in sorted(ip):
                        for qq in sorted(iq):
                            s += R[(pp, qq)]
                    term_in = C * s / (len(ip) * len(iq))
                term_out = 0.0
                if op and oq:
                    s = 0.0
                    for pp in sorted(op):
                        for qq in sorted(oq):
                            s += R[(pp, qq)]
                    term_out = C * s / (len(op) * len(oq))
                new[(p, q)] = lam * term_in + (1.0 - lam) * term_out
        R = new
    return R


def undirected_jaccard_scores(g, C, k):
    """k iterations of the undirected Jaccard recursion, update rule:

    C * [ |Lp & Lq| / |Lp | Lq|
          + sum over (Lp \\ Lq) x Lq of R_prev / (|Lp | Lq| * |Lq|)
          + sum over Lp x (Lq \\ Lp) of R_prev / (|Lp | Lq| * |Lp|) ]
    """
    R = _identity(g.n)
    for _ in range(k):
        new = {}
        for p in range(g.n):
            for q in range(g.n):
                if p == q:
                    new[(p, q)] = 1.0
                    continue
                lp = g.neighbors(p, "undirected")
                lq = g.neighbors(q, "undirected")
                union = lp | lq
                if not union:
                    new[(p, q)] = 0.0
                    continue
                total = len(lp & lq) / len(union)
                if lq:
                    s = 0.0
                    for pp in sorted(lp - lq):
                        for qq in sorted(lq):
                            s += R[(pp, qq)]
                    total += s / (len(union) * len(lq))
                if lp:
                    s = 0.0
                    for pp in sorted(lp):
                        for qq in sorted(lq - lp):
                            s += R[(pp, qq)]
                    total += s / (len(union) * len(lp))
                new[(p, q)] = C * total
        R = new
    return R


def first_step_closed_form(g, C):
    """What one iteration from the identity start must equal: C times the
    shared-to-union ratio of the undirected neighborhoods."""
    out = {}
    for p in range(g.n):
        for q in range(g.n):
            if p == q:
                out[(p, q)] = 1.0
                continue
            lp = g.neighbors(p, "undirected")
            lq = g.neighbors(q, "undirected")
            union = lp | lq
            out[(p, q)] = C * len(lp & lq) / len(union) if union else 0.0
    return out


def na_pairs(g, measure, normalization="pairwise"):
    """Unordered off-diagonal pairs the measure cannot score."""
    out = set()
    for p in range(g.n):
        for q in range(p + 1, g.n):
            in_empty = not g.neighbors(p, "in") or not g.neighbors(q, "in")
            out_empty = not g.neighbors(p, "out") or not g.neighbors(q, "out")
            und_empty = (not g.neighbors(p, "undirected")
                         or not g.neighbors(q, "undirected"))
            if measure == "simrank":
                cond = in_empty
            elif measure == "rvs_simrank":
                cond = out_empty
            elif measure == "prank":
                cond = in_empty and out_empty
            elif measure == "crank" and normalization == "pairwise":
                cond = und_empty
            else:
                cond = False
            if cond:
                out.add((p, q))
    return out


def max_abs_diff(matrix, oracle):
    """Largest |engine - oracle| over all ordered pairs (N/A reads 0)."""
    worst = 0.0
    for (p, q), want in oracle.items():
        got = matrix.get(p, q)
        worst = max(worst, abs(got - want))
    return worst


# -- dense einsum reference ---------------------------------------------------

_BLOCK_ROWS = 64


def einsum_matmul(a, b, threads=1):
    """``a @ b`` by einsum's non-optimized path, in fixed row blocks."""
    n = a.shape[0]
    if n <= _BLOCK_ROWS:
        return np.einsum("ij,jk->ik", a, b, optimize=False)
    out = np.empty((n, b.shape[1]))

    def block(r0):
        r1 = min(r0 + _BLOCK_ROWS, n)
        np.einsum("ij,jk->ik", a[r0:r1], b, out=out[r0:r1], optimize=False)

    starts = range(0, n, _BLOCK_ROWS)
    if threads <= 1:
        for r0 in starts:
            block(r0)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(block, starts))
    return out


def _adjacency(g):
    """Dense edge indicator E with E[u, v] = 1 iff u cites v."""
    e = np.zeros((g.n, g.n))
    for u, v in g.edges:
        e[u, v] = 1.0
    return e


def _undirected_adjacency(g):
    e = _adjacency(g)
    return np.maximum(e, e.T)


def _mirror(a):
    return np.triu(a) + np.triu(a, 1).T


def _guarded_inverse(denom):
    pos = denom > 0.0
    return np.where(pos, 1.0 / np.where(pos, denom, 1.0), 0.0)


def einsum_shared_scores(g, view, normalization, threads=1):
    """Square scores of the one-shot shared-citer or shared-reference measure."""
    E = _adjacency(g)
    A = E.T if view == "in" else E  # row p holds the indicator of the view set
    counts = einsum_matmul(np.ascontiguousarray(A), A.T, threads)
    if normalization == "raw_count":
        scores = counts
    else:
        deg = A.sum(axis=1)
        union = deg[:, None] + deg[None, :] - counts
        scores = counts * _guarded_inverse(union)
    np.fill_diagonal(scores, 1.0)
    return _mirror(scores)


def einsum_amsler_scores(g, lam, normalization, threads=1):
    s_in = einsum_shared_scores(g, "in", normalization, threads)
    s_out = einsum_shared_scores(g, "out", normalization, threads)
    scores = lam * s_in + (1.0 - lam) * s_out
    np.fill_diagonal(scores, 1.0)
    return _mirror(scores)


def einsum_step(g, cfg, threads=1):
    """The double-buffered update of an iterative measure: new square
    scores from frozen old."""
    C = cfg.C
    if cfg.measure == "crank" and cfg.normalization == "jaccard":
        U = _undirected_adjacency(g)
        deg = U.sum(axis=1)
        inter = einsum_matmul(U, U, threads)
        union = deg[:, None] + deg[None, :] - inter
        inv_union = _guarded_inverse(union)
        jac = inter * inv_union
        inv_deg = _guarded_inverse(deg)
        w1 = inv_union * inv_deg[None, :]
        w2 = inv_union * inv_deg[:, None]
        comp = 1.0 - U

        def step(prev):
            G = einsum_matmul(prev, U, threads)
            S1 = einsum_matmul(U, comp * G, threads)
            T = C * (jac + (w1 * S1 + w2 * S1.T))
            np.fill_diagonal(T, 1.0)
            return _mirror(T)

        return step

    if cfg.measure == "simrank":
        terms = [(_adjacency(g).T, 1.0)]
    elif cfg.measure == "rvs_simrank":
        terms = [(_adjacency(g), 1.0)]
    elif cfg.measure == "prank":
        E = _adjacency(g)
        terms = [(E.T, cfg.lam), (E, 1.0 - cfg.lam)]
    else:
        terms = [(_undirected_adjacency(g), 1.0)]

    prepared = []
    for A, w in terms:
        A = np.ascontiguousarray(A)
        deg = A.sum(axis=1)
        inv = _guarded_inverse(np.outer(deg, deg))
        prepared.append((A, w, inv))

    def step(prev):
        out = np.zeros((g.n, g.n))
        for A, w, inv in prepared:
            S = einsum_matmul(einsum_matmul(A, prev, threads), A.T, threads)
            out += w * (C * S * inv)
        np.fill_diagonal(out, 1.0)
        return _mirror(out)

    return step


# -- element-by-element score store references ---------------------------------


def matrix_csv_reference(m):
    """What write_matrix_csv writes: the header, then one _ROW_FORMAT line
    per pair p <= q that is not N/A and scores above 0, by p then q."""
    lines = ["p,q,score\n"]
    for p in range(m.n):
        for q in range(p, m.n):
            if not m.is_na(p, q) and m.get(p, q) > 0.0:
                lines.append(_ROW_FORMAT % (p, q, m.get(p, q)))
    return "".join(lines)


def compare_rows_reference(m, rows, source):
    """(missing, unexpected, mismatched) sorted pair lists of compare_rows,
    one row at a time: DataError at the first row outside 0 <= p <= q < n
    or repeating an earlier pair."""
    expected = {(p, q): s for p, q, s in m.entries_above()}
    actual = {}
    for p, q, s in rows:
        if not (0 <= p <= q < m.n):
            raise DataError(f"{source}: pair ({p}, {q}) out of range for n={m.n}")
        if (p, q) in actual:
            raise DataError(f"{source}: duplicate pair ({p}, {q})")
        actual[(p, q)] = s
    missing = sorted(set(expected) - set(actual))
    extra = sorted(set(actual) - set(expected))
    changed = sorted(pq for pq in set(expected) & set(actual) if expected[pq] != actual[pq])
    return missing, extra, changed


def top_k_reference(m, query, count, zero_fill=True):
    """(paper, score, zero_fill) of top_k: partners that are not N/A and
    score above 0, sorted by (-score, id); then, with zero_fill, the
    partners scoring exactly 0 by ascending id; at most count in all."""
    partners = [(q, m.get(query, q)) for q in range(m.n)
                if q != query and not m.is_na(query, q)]
    positive = sorted(((q, s) for q, s in partners if s > 0.0), key=lambda t: (-t[1], t[0]))
    out = [(q, s, False) for q, s in positive[:count]]
    if zero_fill:
        zeros = [q for q, s in partners if s == 0.0]
        out += [(q, 0.0, True) for q in zeros[:count - len(out)]]
    return out


def reference_load(edge_stream, meta_stream=None):
    """Load an edge stream into per-edge Python sets.

    Returns the external ids in id order, the (duplicate, self-loop) drop
    counts, the set of (citing, cited) edges, and per view the list of each
    paper's neighbor set.
    """
    ids = {}
    edges, duplicates, loops = set(), 0, 0
    for citing, cited in edge_stream:
        u = ids.setdefault(citing, len(ids))
        v = ids.setdefault(cited, len(ids))
        if u == v:
            loops += 1
        elif (u, v) in edges:
            duplicates += 1
        else:
            edges.add((u, v))
    for rec in meta_stream or ():
        ids.setdefault(rec.external_id, len(ids))
    ins = [set() for _ in ids]
    outs = [set() for _ in ids]
    for u, v in edges:
        outs[u].add(v)
        ins[v].add(u)
    views = {"in": ins, "out": outs, "undirected": [i | o for i, o in zip(ins, outs)]}
    return list(ids), (duplicates, loops), edges, views


def reference_from_edges_error(n, edges):
    """The message for the first edge that a per-edge loop over a set of
    seen edges rejects, or None when every edge is good."""
    seen = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            return f"edge ({u}, {v}) outside node range [0, {n})"
        if u == v:
            return f"self-loop at node {u}"
        if (u, v) in seen:
            return f"duplicate edge ({u}, {v})"
        seen.add((u, v))
    return None


# -- corpus loader reference ---------------------------------------------------


def reference_load_corpus(path, g: CitationGraph) -> tuple[EvalCorpus, CorpusReport]:
    """Read `[field-name]` sections of external paper ids, one per line,
    under the edge list's line rules (:func:`read_tab_lines`), each stripped.

    Ids missing from the graph are excluded and listed in the report, never
    silently kept.  Fields left with fewer than 2 resolved papers cannot
    supply a query/target split and are dropped (also reported).  Raises if
    nothing usable remains.
    """
    raw: dict[str, list[str]] = {}
    current: Optional[str] = None
    for lineno, line, _ in read_tab_lines(path):
        line = line.strip()
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if not name:
                raise DataError(f"{path}:{lineno}: empty field name")
            if name in raw:
                raise DataError(f"{path}:{lineno}: duplicate field {name!r}")
            raw[name] = []
            current = name
        elif current is None:
            raise DataError(f"{path}:{lineno}: paper id before any [field] header")
        else:
            raw[current].append(line)

    unresolved: dict[str, tuple] = {}
    dropped = []
    fields = {}
    for name, ids in raw.items():
        resolved = set()
        missing = []
        for ext in ids:
            try:
                resolved.add(g.id_of(ext))
            except DataError:
                missing.append(ext)
        if missing:
            unresolved[name] = tuple(missing)
        if len(resolved) < 2:
            dropped.append(name)
        else:
            fields[name] = frozenset(resolved)
    if not fields:
        raise DataError(f"{path}: no field resolves at least 2 papers in the graph")
    corpus = EvalCorpus(name=Path(str(path)).stem, fields=fields)
    return corpus, CorpusReport(unresolved=unresolved, dropped_fields=tuple(dropped))

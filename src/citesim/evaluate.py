"""Retrieval-quality evaluation over similarity matrices.

Given ground-truth reference lists (named fields of related papers), each
member paper is a query, ranked once to the largest m, and the measure is
scored by how many of its top-m partners fall in the same field.  Also
here: score histograms with an explicit N/A bucket, per-iteration
top-score traces, and a score table for hand-tagged hard pairs.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, DataError
from .engine import MeasureConfig, compute, iteration_scores, na_mask, top_k
from .graph import CitationGraph, read_tab_lines
from .matrix import SCORE_FORMAT, SimilarityMatrix, write_table

# Tag vocabulary for hard-pair tables: P1 = both papers old, P2 = both
# recent, P3 = old paired with recent across a bridge chain.
CASE_TAGS = ("P1", "P2", "P3")

UNBOUNDED_HISTOGRAM = "histogram requires [0,1] scores; raw counts are unbounded"


@dataclass(frozen=True)
class EvalCorpus:
    """Named reference fields; every member id resolves in the graph."""

    name: str
    fields: dict

    def query_count(self) -> int:
        return sum(len(v) for v in self.fields.values())


@dataclass(frozen=True)
class CorpusReport:
    """What the loader had to discard: unknown ids and too-small fields."""

    unresolved: dict
    dropped_fields: tuple


def load_corpus(path, g: CitationGraph) -> tuple[EvalCorpus, CorpusReport]:
    """Read `[field-name]` sections of external paper ids, one per line,
    under the edge list's line rules (:func:`read_tab_lines`), each stripped.

    Ids missing from the graph are excluded and listed in the report, never
    silently kept.  Fields left with fewer than 2 resolved papers cannot
    supply a query/target split and are dropped (also reported).  Raises if
    nothing usable remains.
    """
    resolved: dict[str, set] = {}
    unresolved: dict[str, list] = {}
    current = None  # the field that the lines read now belong to
    for lineno, line, _ in read_tab_lines(path):
        line = line.strip()
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if not current:
                raise DataError(f"{path}:{lineno}: empty field name")
            if current in resolved:
                raise DataError(f"{path}:{lineno}: duplicate field {current!r}")
            resolved[current] = set()
        elif current is None:
            raise DataError(f"{path}:{lineno}: paper id before any [field] header")
        else:
            try:
                resolved[current].add(g.id_of(line))
            except DataError:
                unresolved.setdefault(current, []).append(line)
    fields = {name: frozenset(ids) for name, ids in resolved.items() if len(ids) >= 2}
    if not fields:
        raise DataError(f"{path}: no field resolves at least 2 papers in the graph")
    return (EvalCorpus(name=Path(str(path)).stem, fields=fields),
            CorpusReport(unresolved={name: tuple(ids) for name, ids in unresolved.items()},
                         dropped_fields=tuple(name for name in resolved if name not in fields)))


@dataclass(frozen=True)
class PrecisionTable:
    rows: dict  # (measure label, m) -> mean precision over all queries
    query_count: int


def precision_at_m(m: SimilarityMatrix, query: int, reference: Iterable[int],
                   count: int) -> float:
    """Fraction of the top-``count`` partners that land in the reference set.

    The query is not its own target (:func:`top_k` never ranks it).  Fewer
    than ``count`` rankable partners still divide by ``count``: an unfillable
    slot is a miss.  Zero-score papers are not ranked (a zero carries no
    evidence of relatedness)."""
    reference = set(reference)
    if query not in reference:
        raise ValueError("query must be a member of its reference field")
    ranked = top_k(m, query, count, zero_fill=False)
    return sum(1 for entry in ranked if entry.paper in reference) / count


def run_benchmark(
    g: CitationGraph,
    corpus: EvalCorpus,
    configs: Sequence[MeasureConfig],
    m_values: Sequence[int],
    threads: int = 1,
) -> PrecisionTable:
    """Mean precision@m per measure, every field member queried once.

    One :func:`top_k` ranking per (measure, query), to the largest m, holds
    every m's :func:`precision_at_m`; each m adds them up from 0 in query
    order (fields by name, members by id), as one ranking per m would."""
    configs = list(configs)
    m_values = [int(m) for m in m_values]
    labels = [cfg.label() for cfg in configs]
    if len(set(labels)) != len(labels):
        raise ConfigError("duplicate measure labels in benchmark configs")
    for m in m_values:
        if m < 1:
            raise ConfigError(f"m values must be >= 1, got {m}")
    for name, members in corpus.fields.items():
        if len(members) < 2:
            raise DataError(f"field {name!r} has fewer than 2 papers")
        for p in members:
            if not 0 <= p < g.n:
                raise DataError(f"field {name!r} references unknown paper id {p}")

    queries = [(name, q) for name in sorted(corpus.fields)
               for q in sorted(corpus.fields[name])]
    if not m_values:  # nothing to rank
        return PrecisionTable(rows={}, query_count=len(queries))
    rows, deepest = {}, max(m_values)
    for label, cfg in zip(labels, configs):
        mat, _ = compute(g, cfg, threads)
        totals = dict.fromkeys(m_values, 0.0)
        for name, q in queries:
            hits = [entry.paper in corpus.fields[name]
                    for entry in top_k(mat, q, deepest, zero_fill=False)]
            for m in totals:
                totals[m] += sum(hits[:m]) / m
        rows.update(((label, m), total / len(queries)) for m, total in totals.items())
    return PrecisionTable(rows=rows, query_count=len(queries))


@dataclass(frozen=True)
class Histogram:
    buckets: tuple  # counts for [0,0.1), [0.1,0.2), ..., [0.9,1.0]
    na: int
    total_pairs: int


BUCKET_LABELS = tuple(
    f"[{i / 10:.1f},{(i + 1) / 10:.1f}" + (")" if i < 9 else "]") for i in range(10)
) + ("N/A",)


def score_histogram(m: SimilarityMatrix) -> Histogram:
    """Bucket all unordered off-diagonal pairs by score, N/A separately.

    Buckets are [0,0.1) through [0.9,1.0], the last one closed.  Raw-count
    matrices are rejected: the buckets only make sense under the [0,1]
    contract.
    """
    if not m.bounded:
        raise ConfigError(UNBOUNDED_HISTOGRAM)
    scores, na = m.offdiag_packed()
    edges = np.arange(1, 10) / 10.0
    idx = np.searchsorted(edges, scores[~na], side="right")
    counts = np.bincount(idx, minlength=10)
    return Histogram(
        buckets=tuple(int(c) for c in counts),
        na=int(na.sum()),
        total_pairs=m.n * (m.n - 1) // 2,
    )


@dataclass(frozen=True)
class TracePoint:
    k: int
    mean_top10: float
    pairs_used: int


def convergence_trace(
    g: CitationGraph, cfg: MeasureConfig, k_range: int, threads: int = 1
) -> list:
    """Mean of the 10 highest off-diagonal scores after each iteration.

    The top 10 are re-selected at every k.  Graphs with fewer than 10
    scoreable pairs use what they have; ``pairs_used`` records the count.
    ``k_range`` replaces cfg's k_max and is validated as k_max is.
    """
    run_cfg = replace(cfg, k_max=k_range)
    # the scored off-diagonal pairs p < q, read in packed order
    keep = np.triu(~na_mask(g, cfg), 1)
    points = []
    for k, square in iteration_scores(g, run_cfg, threads):
        mean, take = _mean_top(square[keep], 10)
        points.append(TracePoint(k=k, mean_top10=mean, pairs_used=take))
    return points


def _mean_top(vals: np.ndarray, count: int) -> tuple[float, int]:
    """(mean, used): the mean of the `count` highest values, or of all when
    there are fewer (0.0 when none).  They are summed in descending order,
    as a full sort gives them, so the mean has the same bits."""
    take = min(count, vals.size)
    if not take:
        return 0.0, 0
    top = np.partition(vals, vals.size - take)[vals.size - take:]
    return float(np.sort(top)[::-1].mean()), take


@dataclass(frozen=True)
class CaseRow:
    p: int
    q: int
    tag: str
    scores: dict  # measure label -> float, or None where the pair is N/A


@dataclass(frozen=True)
class CaseTable:
    labels: tuple
    rows: tuple


def case_analysis(
    g: CitationGraph,
    pairs: Sequence[tuple[int, int, str]],
    configs: Sequence[MeasureConfig],
    threads: int = 1,
) -> CaseTable:
    """Score each tagged pair under each measure; N/A stays None, not 0."""
    for p, q, tag in pairs:
        if tag not in CASE_TAGS:
            raise DataError(f"unknown case tag {tag!r} (expected one of {CASE_TAGS})")
        for node in (p, q):
            if not 0 <= node < g.n:
                raise DataError(f"paper id {node} not in graph")
        if p == q:
            raise DataError(f"case pair ({p}, {q}) must name two distinct papers")
    labels = tuple(cfg.label() for cfg in configs)
    if len(set(labels)) != len(labels):
        raise ConfigError("duplicate measure labels in case configs")
    # one matrix alive at a time: keep each pair's score, then let it go
    scores = [{} for _ in pairs]
    for label, cfg in zip(labels, configs):
        mat, _ = compute(g, cfg, threads)
        for row, (p, q, _) in zip(scores, pairs):
            row[label] = None if mat.is_na(p, q) else mat.get(p, q)
        del mat
    rows = tuple(CaseRow(p=p, q=q, tag=tag, scores=row)
                 for row, (p, q, tag) in zip(scores, pairs))
    return CaseTable(labels=labels, rows=rows)


# -- CSV exports -------------------------------------------------------------


def write_precision_csv(table: PrecisionTable, path):
    write_table(path, ["measure", "m", "precision"],
                ([label, m, SCORE_FORMAT % value]
                 for (label, m), value in sorted(table.rows.items())))


def write_histogram_csv(h: Histogram, path):
    write_table(path, ["bucket", "count"], zip(BUCKET_LABELS, h.buckets + (h.na,)))


def write_trace_csv(points: Sequence[TracePoint], path):
    write_table(path, ["k", "mean_top10"],
                ([pt.k, SCORE_FORMAT % pt.mean_top10] for pt in points))


def write_cases_csv(table: CaseTable, g: CitationGraph, path):
    write_table(path, ["measure", "p", "q", "tag", "score"], (
        [label, g.external_id(row.p), g.external_id(row.q), row.tag,
         "NA" if row.scores[label] is None else SCORE_FORMAT % row.scores[label]]
        for label in table.labels for row in table.rows))

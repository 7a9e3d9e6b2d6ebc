import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from citesim import evaluate, fixtures
from citesim.cli import _write_topk
from citesim.engine import (
    MEASURES,
    MeasureConfig,
    TopKEntry,
    compute,
    crank_jaccard,
    top_k,
)
from citesim.errors import ConfigError, DataError
from citesim.evaluate import (
    BUCKET_LABELS,
    CaseRow,
    CaseTable,
    EvalCorpus,
    Histogram,
    PrecisionTable,
    TracePoint,
    _mean_top,
    case_analysis,
    convergence_trace,
    load_corpus,
    precision_at_m,
    run_benchmark,
    score_histogram,
    write_cases_csv,
    write_histogram_csv,
    write_precision_csv,
    write_trace_csv,
)
from citesim.graph import CitationGraph, PaperMeta
from citesim.matrix import SimilarityMatrix, write_matrix_csv

import oracles


def _default_configs():
    return [MeasureConfig(name) for name in MEASURES]


# -- corpus loading ----------------------------------------------------------


def _write_corpus(tmp_path, text, name="refs.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_corpus_resolves_fields(tmp_path, shared_graph):
    path = _write_corpus(
        tmp_path,
        "# comment\n[alpha]\na\nb\nc\n\n[beta]\nd\ne\n",
        name="desk.txt",
    )
    corpus, report = load_corpus(path, shared_graph)
    assert corpus.name == "desk"
    assert set(corpus.fields) == {"alpha", "beta"}
    assert corpus.fields["alpha"] == frozenset(
        shared_graph.id_of(x) for x in "abc"
    )
    assert corpus.fields["beta"] == frozenset(shared_graph.id_of(x) for x in "de")
    assert report.unresolved == {} and report.dropped_fields == ()


@pytest.mark.parametrize("name", ["desk.txt", "desk", "desk.", "..txt", ".hidden", "a.tar.gz", "a..b"])
def test_load_corpus_names_the_corpus_by_the_file_stem(tmp_path, shared_graph, name):
    path = _write_corpus(tmp_path, "[alpha]\na\nb\n", name=name)
    assert load_corpus(path, shared_graph)[0].name == Path(name).stem
    assert load_corpus(str(path), shared_graph)[0].name == Path(name).stem


def test_load_corpus_reports_unknown_ids(tmp_path, shared_graph):
    path = _write_corpus(tmp_path, "[alpha]\na\nb\nzz\n[beta]\nc\nqq\n")
    corpus, report = load_corpus(path, shared_graph)
    assert report.unresolved == {"alpha": ("zz",), "beta": ("qq",)}
    assert report.dropped_fields == ("beta",)  # only c survived
    assert set(corpus.fields) == {"alpha"}


def test_load_corpus_rejects_unusable_file(tmp_path, shared_graph):
    path = _write_corpus(tmp_path, "[only]\na\nzz\n")
    with pytest.raises(DataError):
        load_corpus(path, shared_graph)


def test_load_corpus_structural_errors(tmp_path, shared_graph):
    with pytest.raises(DataError, match=":1:"):
        load_corpus(_write_corpus(tmp_path, "a\n[alpha]\nb\n"), shared_graph)
    with pytest.raises(DataError, match="duplicate"):
        load_corpus(
            _write_corpus(tmp_path, "[alpha]\na\nb\n[alpha]\nc\nd\n"), shared_graph
        )
    with pytest.raises(DataError, match="empty"):
        load_corpus(_write_corpus(tmp_path, "[]\na\nb\n"), shared_graph)


def test_load_corpus_shares_the_edge_list_line_rules(tmp_path, shared_graph):
    plain = _write_corpus(tmp_path, "[alpha]\na\nb\nc\n[beta]\nd\ne\n", "plain.txt")
    messy = tmp_path / "messy.txt"
    messy.write_bytes(b"  # indented comment\r\n[alpha]\r\na\r\n \t \r\nb\r\n"
                      b"  c  \r\n\r\n[beta]\r\nd\r\ne\r\n")
    want, _ = load_corpus(plain, shared_graph)
    got, report = load_corpus(messy, shared_graph)
    assert got.fields == want.fields
    assert report.unresolved == {} and report.dropped_fields == ()
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"# key\r\n\r\n \t \r\n  zz\r\n[alpha]\r\na\r\nb\r\n")
    with pytest.raises(DataError) as exc:
        load_corpus(bad, shared_graph)
    assert str(exc.value) == f"{bad}:4: paper id before any [field] header"


# corpus files: blank lines and comments anywhere, maybe ids before the first
# header, then sections under names that may be blank or repeat, each with
# known, unknown and padded ids, often too few to keep the field
_NOISE = st.sampled_from(["", " \t ", "# note", "  # [alpha]"])
_IDS = st.sampled_from(list("abcdefghij") + [" a ", "b\t", "zz", "qq", "x y"])
_NAMES = st.sampled_from(["alpha", " beta ", "gamma", "delta", "eps", "zeta", "eta", "b", " "])


@st.composite
def _corpus_lines(draw):
    lines = draw(st.lists(_NOISE, max_size=2)) + draw(st.sampled_from([[]] * 4 + [[" zz "]]))
    names = draw(st.one_of(st.lists(_NAMES, max_size=5, unique=True),
                           st.lists(_NAMES.filter(str.strip), max_size=5, unique=True),
                           st.lists(_NAMES, max_size=5)))
    for name in names:
        lines.append(f"[{name}]")
        lines += draw(st.lists(st.one_of(_IDS, _IDS, _IDS, _NOISE), max_size=6))
    return lines


@settings(max_examples=300, deadline=None)
@given(lines=_corpus_lines(), crlf=st.booleans())
def test_load_corpus_matches_the_two_pass_reference(tmp_path_factory, shared_graph, lines, crlf):
    path = tmp_path_factory.mktemp("corpus") / "refs.txt"
    path.write_bytes(("\r\n" if crlf else "\n").join(lines + [""]).encode())

    def load(loader):
        try:
            corpus, report = loader(path, shared_graph)
        except DataError as exc:
            return str(exc)
        # record equality ignores dict order; the item lists keep it
        return (corpus, list(corpus.fields.items()),
                report, list(report.unresolved.items()))

    assert load(load_corpus) == load(oracles.reference_load_corpus)


# -- precision ---------------------------------------------------------------


def _precision_fixture(na=None):
    square = np.eye(5)
    square[0, 1:] = 0.9, 0.5, 0.4, 0.3
    return SimilarityMatrix.from_square(square, na=na)


def test_precision_counts_reference_hits():
    m = _precision_fixture()
    assert precision_at_m(m, 0, {0, 1, 2}, 2) == 1.0
    assert precision_at_m(m, 0, {0, 1, 2}, 4) == 0.5
    assert precision_at_m(m, 0, {0, 4}, 2) == 0.0


def test_precision_requires_query_membership():
    with pytest.raises(ValueError):
        precision_at_m(_precision_fixture(), 0, {1, 2}, 2)


def test_precision_short_candidate_list_still_divides_by_m():
    m = SimilarityMatrix.from_square([[1.0, 0.5, 0.4], [0.5, 1.0, 0.0], [0.4, 0.0, 1.0]])
    assert precision_at_m(m, 0, {0, 1, 2}, 10) == pytest.approx(0.2)


def test_precision_ignores_zero_and_na_scores():
    m = SimilarityMatrix.from_square(np.eye(4))  # all off-diagonal scores are 0.0
    assert precision_at_m(m, 0, {0, 1, 2, 3}, 3) == 0.0
    na = np.zeros((5, 5), dtype=bool)
    na[0, 1] = True
    m = _precision_fixture(na)
    assert precision_at_m(m, 0, {0, 1}, 1) == 0.0


# -- benchmark ---------------------------------------------------------------


def test_benchmark_two_paper_field():
    g = fixtures.star_graph(4)
    corpus = EvalCorpus(name="toy", fields={"pair": frozenset({0, 1})})
    table = run_benchmark(g, corpus, [MeasureConfig("cocitation", "jaccard")], [1, 10])
    assert table.query_count == 2
    assert table.rows[("cocitation:jaccard", 1)] == 1.0
    assert table.rows[("cocitation:jaccard", 10)] == pytest.approx(0.1)


def test_benchmark_runs_every_default_measure(shared_graph, tmp_path):
    path = _write_corpus(tmp_path, "[left]\na\nb\nc\n[right]\nd\ng\n")
    corpus, _ = load_corpus(path, shared_graph)
    table = run_benchmark(shared_graph, corpus, _default_configs(), [10])
    assert len(table.rows) == len(MEASURES)
    assert all(0.0 <= v <= 1.0 for v in table.rows.values())
    again = run_benchmark(shared_graph, corpus, _default_configs(), [10])
    assert again.rows == table.rows


def _no_compute(*args):
    raise AssertionError("a matrix was computed before the arguments were checked")


def test_benchmark_argument_validation(shared_graph, monkeypatch):
    monkeypatch.setattr(evaluate, "compute", _no_compute)  # every refusal comes first
    corpus = EvalCorpus(name="t", fields={"f": frozenset({0, 1})})
    assert run_benchmark(shared_graph, corpus, _default_configs(), []).rows == {}
    with pytest.raises(ConfigError):
        run_benchmark(shared_graph, corpus, [MeasureConfig("crank")] * 2, [10])
    with pytest.raises(ConfigError, match="m values must be >= 1, got 0"):
        run_benchmark(shared_graph, corpus, [MeasureConfig("crank")], [0])
    # an m is an integer: 2.5 was truncated to 2, "10" read as 10
    for m in (2.5, 10.0, "10"):
        with pytest.raises(TypeError):
            run_benchmark(shared_graph, corpus, [MeasureConfig("crank")], [m])
        with pytest.raises(TypeError):
            precision_at_m(_precision_fixture(), 0, {0, 1}, m)
    bad = EvalCorpus(name="t", fields={"f": frozenset({0, 99})})
    with pytest.raises(DataError):
        run_benchmark(shared_graph, bad, [MeasureConfig("crank")], [10])
    # a paper id is an integer
    for paper in (1.5, 1.0, "1"):
        bad = EvalCorpus(name="t", fields={"f": frozenset({0, paper})})
        with pytest.raises(TypeError):
            run_benchmark(shared_graph, bad, [MeasureConfig("crank")], [10])
    lone = EvalCorpus(name="t", fields={"f": frozenset({0})})
    with pytest.raises(DataError, match="field 'f' has fewer than 2 papers"):
        run_benchmark(shared_graph, lone, [MeasureConfig("crank")], [10])


def test_benchmark_refuses_a_corpus_without_fields(monkeypatch):
    # it used to compute every matrix, then divide by zero queries
    calls = []
    monkeypatch.setattr(evaluate, "compute", lambda *args: calls.append(args))
    g = fixtures.random_graph(30, 0.2, 1)
    for m_values in ([10], []):
        with pytest.raises(DataError, match="corpus has no fields"):
            run_benchmark(g, EvalCorpus("empty", {}), _default_configs(), m_values)
    assert calls == []


def _queries(fields):
    return [(name, q) for name in sorted(fields) for q in sorted(fields[name])]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_benchmark_matches_one_ranking_per_query_and_m(data):
    communities, size = data.draw(st.integers(1, 3)), data.draw(st.integers(2, 6))
    g, _ = fixtures.clustered_citation_graph(communities, size, 0.4, 0.05,
                                             data.draw(st.integers(0, 2**16)))
    # fields may overlap and be smaller than m; m may repeat and exceed n
    members = st.frozensets(st.integers(0, g.n - 1), min_size=2, max_size=g.n)
    fields = data.draw(st.dictionaries(st.text("fgh", min_size=1, max_size=2), members,
                                       min_size=1, max_size=4))
    m_values = data.draw(st.lists(st.integers(1, g.n + 3), max_size=4))
    measures = data.draw(st.lists(st.sampled_from(MEASURES), min_size=1, max_size=3, unique=True))
    configs = [MeasureConfig(name) for name in measures]
    table = run_benchmark(g, EvalCorpus("drawn", fields), configs, m_values)

    queries = _queries(fields)
    want = {}
    for cfg in configs:
        mat, _ = compute(g, cfg)
        for m in m_values:
            total = 0.0
            for name, q in queries:
                total += precision_at_m(mat, q, fields[name], m)
            want[(cfg.label(), m)] = total / len(queries)
    assert table.query_count == len(queries)
    assert list(table.rows) == list(want)
    assert [v.hex() for v in table.rows.values()] == [v.hex() for v in want.values()]


def test_benchmark_ranks_each_query_once_per_measure(monkeypatch):
    g, fields = fixtures.clustered_citation_graph(3, 8, 0.4, 0.05, 1)
    calls = []

    def counting_top_k(mat, query, count, zero_fill=True):
        calls.append((query, count, zero_fill))
        return top_k(mat, query, count, zero_fill)

    monkeypatch.setattr(evaluate, "top_k", counting_top_k)
    configs = _default_configs()
    run_benchmark(g, EvalCorpus("c", fields), configs, [5, 10, 3, 10])
    queries = [q for _, q in _queries(fields)]
    assert calls == [(q, 10, False) for q in queries] * len(configs)


# -- histograms --------------------------------------------------------------


def test_histogram_buckets_and_na():
    h = score_histogram(SimilarityMatrix.from_square(np.eye(4)))
    assert h.buckets == (6, 0, 0, 0, 0, 0, 0, 0, 0, 0)
    assert h.na == 0 and h.total_pairs == 6
    na = np.zeros((4, 4), dtype=bool)
    na[0, 1] = True
    h = score_histogram(SimilarityMatrix.from_square(np.eye(4), na=na))
    assert h.buckets[0] == 5 and h.na == 1


def test_histogram_boundary_scores():
    square = np.eye(5)
    square[0, 1:] = 0.1, 0.9, 1.0, 0.0999
    h = score_histogram(SimilarityMatrix.from_square(square))
    assert h.buckets[0] == 7  # six untouched zeros plus 0.0999
    assert h.buckets[1] == 1
    assert h.buckets[9] == 2  # 0.9 and the closed upper endpoint 1.0
    assert sum(h.buckets) + h.na == h.total_pairs == 10


def test_histogram_rejects_raw_counts(shared_graph):
    from citesim.engine import cocitation

    m = cocitation(shared_graph, MeasureConfig("cocitation", "raw_count"))
    with pytest.raises(ConfigError):
        score_histogram(m)


def test_histogram_conserves_pairs_on_computed_matrices(shared_graph):
    for cfg in (MeasureConfig("crank"), MeasureConfig("simrank")):
        m, _ = compute(shared_graph, cfg)
        h = score_histogram(m)
        assert sum(h.buckets) + h.na == h.total_pairs == 45
    m, _ = compute(shared_graph, MeasureConfig("simrank"))
    assert score_histogram(m).na == 17


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=2**32 - 1))
def test_histogram_matches_a_pair_by_pair_reference(n, seed):
    # scores exactly at k/10 and at 1.0 sit on bucket edges, next to
    # scores drawn between them; some pairs are N/A
    rng = np.random.default_rng(seed)
    a = np.where(rng.random((n, n)) < 0.5, rng.integers(0, 11, size=(n, n)) / 10.0,
                 rng.random((n, n)))
    na = np.triu(rng.random((n, n)) < 0.2, 1)
    m = SimilarityMatrix.from_square(np.triu(a) + np.triu(a, 1).T, na | na.T)
    buckets, na_pairs = [0] * 10, 0
    for p in range(n):
        for q in range(p + 1, n):
            if m.is_na(p, q):
                na_pairs += 1
            else:
                buckets[sum(m.get(p, q) >= k / 10 for k in range(1, 10))] += 1
    h = score_histogram(m)
    assert h == Histogram(tuple(buckets), na_pairs, n * (n - 1) // 2)


def test_bucket_labels():
    assert BUCKET_LABELS[0] == "[0.0,0.1)"
    assert BUCKET_LABELS[9] == "[0.9,1.0]"
    assert BUCKET_LABELS[10] == "N/A"
    assert len(BUCKET_LABELS) == 11


# -- convergence traces ------------------------------------------------------


def _flatten_k(points, tol=1e-6):
    for prev, cur in zip(points, points[1:]):
        if abs(cur.mean_top10 - prev.mean_top10) < tol:
            return cur.k
    return points[-1].k + 1


def test_trace_is_monotone_and_decay_dependent(shared_graph):
    slow = convergence_trace(shared_graph, MeasureConfig("crank", C=0.8, k_max=30))
    fast = convergence_trace(shared_graph, MeasureConfig("crank", C=0.2, k_max=30))
    for pts in (slow, fast):
        assert [pt.k for pt in pts] == list(range(1, 31))
        assert all(b.mean_top10 >= a.mean_top10 for a, b in zip(pts, pts[1:]))
    assert _flatten_k(fast) < _flatten_k(slow)


def test_trace_matches_brute_force_top10(shared_graph):
    g = shared_graph
    for pt in convergence_trace(g, MeasureConfig("crank", C=0.8, k_max=4)):
        ref = oracles.undirected_jaccard_scores(g, 0.8, pt.k)
        vals = sorted((s for (p, q), s in ref.items() if p < q), reverse=True)[:10]
        assert pt.pairs_used == 10
        assert pt.mean_top10 == pytest.approx(sum(vals) / 10, abs=1e-10)


def test_trace_small_graph_uses_what_it_has():
    pts = convergence_trace(fixtures.star_graph(1), MeasureConfig("crank", k_max=2))
    assert [pt.pairs_used for pt in pts] == [3, 3]


def _full_sort_mean(vals, count):
    top = np.sort(vals)[::-1][:count]
    return (float(top.mean()) if top.size else 0.0), top.size


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=9), st.integers(min_value=0, max_value=2**32 - 1),
       st.sampled_from(["ties", "spread"]))
def test_mean_top_keeps_the_full_sort_bits(n, seed, kind):
    # n <= 4 leaves fewer than 10 off-diagonal pairs; "ties" draws from 5 values
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 5, size=(n, n)) / 4.0 if kind == "ties" else rng.random((n, n)) ** 3
    square = np.triu(a) + np.triu(a, 1).T
    na = np.triu(rng.random((n, n)) < 0.2, 1)
    m = SimilarityMatrix.from_square(square, na | na.T)
    vals = m.dense_scores()[np.triu(~m.dense_na(), 1)]
    got, want = _mean_top(vals, 10), _full_sort_mean(vals, 10)
    assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
    assert got[1] == want[1]


def test_trace_argument_validation(shared_graph):
    with pytest.raises(ConfigError):
        convergence_trace(shared_graph, MeasureConfig("cocitation"))
    points = convergence_trace(shared_graph, MeasureConfig("crank", k_max=3))
    assert [pt.k for pt in points] == [1, 2, 3]


@pytest.mark.parametrize("measure", ["cocitation", "coupling", "amsler"])
def test_trace_refuses_a_one_shot_config_before_building_the_mask(monkeypatch, measure):
    calls = []
    monkeypatch.setattr(evaluate, "na_mask", lambda *args: calls.append(args))
    with pytest.raises(ConfigError, match=f"^{measure} is not an iterative measure$"):
        convergence_trace(fixtures.random_graph(50, 0.1, 1), MeasureConfig(measure))
    assert calls == []


# -- hard-pair case tables ---------------------------------------------------


def _gap_pairs(gap_ids):
    return [
        (gap_ids[a], gap_ids[b], tag) for a, b, tag in fixtures.generation_gap_cases()
    ]


def test_case_analysis_separates_zero_from_na(gap_graph, gap_ids):
    table = case_analysis(gap_graph, _gap_pairs(gap_ids), _default_configs())
    assert len(table.labels) == len(MEASURES)
    assert len(table.rows) == 3
    by_tag = {row.tag: row.scores for row in table.rows}
    old_old = by_tag["P1"]
    assert old_old["rvs_simrank:pairwise"] is None
    assert old_old["simrank:pairwise"] == 0.0
    assert old_old["crank:jaccard"] > 0.0
    recent = by_tag["P2"]
    assert recent["simrank:pairwise"] is None
    assert recent["rvs_simrank:pairwise"] == pytest.approx(0.4)
    assert recent["crank:jaccard"] > 0.0
    cross = by_tag["P3"]
    assert cross["simrank:pairwise"] is None
    assert cross["rvs_simrank:pairwise"] == 0.0
    assert cross["prank:pairwise"] == 0.0
    assert cross["crank:jaccard"] > 0.0


def test_case_analysis_argument_validation(gap_graph, gap_ids, monkeypatch):
    monkeypatch.setattr(evaluate, "compute", _no_compute)  # every refusal comes first
    pairs = _gap_pairs(gap_ids)
    with pytest.raises(DataError):
        case_analysis(gap_graph, [(0, 1, "P9")], _default_configs())
    with pytest.raises(DataError):
        case_analysis(gap_graph, [(0, 0, "P1")], _default_configs())
    with pytest.raises(DataError):
        case_analysis(gap_graph, [(0, 99, "P1")], _default_configs())
    # a paper id is an integer
    for pair in ((0, 1.5, "P1"), (1.0, 0, "P1"), (0, "1", "P1")):
        with pytest.raises(TypeError):
            case_analysis(gap_graph, [pair], _default_configs())
    with pytest.raises(ConfigError):
        case_analysis(gap_graph, pairs, [MeasureConfig("crank")] * 2)


def _peak_squares(n, fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (8 * n * n)


def test_all_measure_runs_peak_at_their_costliest_compute():
    # one matrix alive at a time: eval and cases over every measure peak
    # within a tenth of a square of the costliest single compute (crank's
    # 3.50 squares at n=600)
    g, fields = fixtures.clustered_citation_graph(10, 60, 0.13, 0.004, 1)
    configs = _default_configs()
    costliest = max(_peak_squares(g.n, compute, g, cfg) for cfg in configs)
    corpus = EvalCorpus(name="clustered", fields=fields)
    pairs = [(0, 1, "P1"), (0, 599, "P3"), (540, 599, "P2")]
    for fn, args in ((run_benchmark, (corpus, configs, [10, 20, 30, 40, 50])),
                     (case_analysis, (pairs, configs))):
        assert _peak_squares(g.n, fn, g, *args) <= costliest + 0.1, (fn.__name__, costliest)


# -- CSV exports -------------------------------------------------------------


def test_precision_csv(tmp_path):
    g = fixtures.star_graph(4)
    corpus = EvalCorpus(name="toy", fields={"pair": frozenset({0, 1})})
    table = run_benchmark(g, corpus, [MeasureConfig("cocitation", "jaccard")], [1])
    path = tmp_path / "precision.csv"
    write_precision_csv(table, path)
    assert path.read_text().splitlines() == [
        "measure,m,precision",
        "cocitation:jaccard,1,1",
    ]


def test_histogram_csv(tmp_path):
    h = score_histogram(SimilarityMatrix.from_square(np.eye(4)))
    path = tmp_path / "hist.csv"
    write_histogram_csv(h, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "bucket,count"
    assert len(lines) == 12
    assert lines[1] == '"[0.0,0.1)",6'
    assert lines[11] == "N/A,0"


def test_trace_csv(tmp_path, shared_graph):
    pts = convergence_trace(shared_graph, MeasureConfig("crank", k_max=3))
    path = tmp_path / "trace.csv"
    write_trace_csv(pts, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,mean_top10"
    assert len(lines) == 4
    k, mean = lines[2].split(",")
    assert int(k) == 2 and float(mean) == pts[1].mean_top10


def test_cases_csv_renders_na(tmp_path, gap_graph, gap_ids):
    table = case_analysis(
        gap_graph, _gap_pairs(gap_ids), [MeasureConfig("rvs_simrank")]
    )
    path = tmp_path / "cases.csv"
    write_cases_csv(table, gap_graph, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "measure,p,q,tag,score"
    assert lines[1] == "rvs_simrank:pairwise,a,b,P1,NA"
    assert lines[2].startswith("rvs_simrank:pairwise,k,l,P2,0.4")


def test_result_files_have_pinned_bytes(tmp_path):
    # the five result tables and the metadata fixture: CRLF line ends, quotes
    # only where a field needs them; the matrix CSV: LF
    meta = [PaperMeta("a", "Links, and ranks", 1999), PaperMeta("b", 'Say "hi"'),
            PaperMeta("c", "", 2001)]
    g = CitationGraph.from_edges(3, [(0, 1), (2, 1)], meta)
    mat = SimilarityMatrix.from_square([[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]],
                                       na=[[False, False, False], [False, False, True],
                                           [False, True, False]])
    writes = {
        "meta.csv": lambda path: fixtures.write_meta_file(g, path),
        "precision.csv": lambda path: write_precision_csv(PrecisionTable(
            {("simrank:pairwise", 10): 0.25, ("crank:jaccard", 20): 0.1,
             ("crank:jaccard", 10): 0.5}, 3), path),
        "hist.csv": lambda path: write_histogram_csv(
            Histogram((1, 0, 0, 0, 0, 0, 0, 0, 0, 1), 1, 3), path),
        "trace.csv": lambda path: write_trace_csv(
            [TracePoint(1, 0.5, 2), TracePoint(2, 0.1, 2)], path),
        "cases.csv": lambda path: write_cases_csv(CaseTable(
            ("crank:jaccard", "prank:pairwise"),
            (CaseRow(0, 2, "P1", {"crank:jaccard": 0.25, "prank:pairwise": None}),)),
            g, path),
        "top.csv": lambda path: _write_topk(
            g, [TopKEntry(0, 0.5), TopKEntry(2, 0.0, zero_fill=True)], path),
        "matrix.csv": lambda path: write_matrix_csv(mat, path),
    }
    expected = {
        "meta.csv": b'external_id,title,year\r\na,"Links, and ranks",1999\r\n'
                    b'b,"Say ""hi""",\r\nc,,2001\r\n',
        "precision.csv": b"measure,m,precision\r\ncrank:jaccard,10,0.5\r\n"
                         b"crank:jaccard,20,0.10000000000000001\r\n"
                         b"simrank:pairwise,10,0.25\r\n",
        "hist.csv": b'bucket,count\r\n"[0.0,0.1)",1\r\n"[0.1,0.2)",0\r\n'
                    b'"[0.2,0.3)",0\r\n"[0.3,0.4)",0\r\n"[0.4,0.5)",0\r\n'
                    b'"[0.5,0.6)",0\r\n"[0.6,0.7)",0\r\n"[0.7,0.8)",0\r\n'
                    b'"[0.8,0.9)",0\r\n"[0.9,1.0]",1\r\nN/A,1\r\n',
        "trace.csv": b"k,mean_top10\r\n1,0.5\r\n2,0.10000000000000001\r\n",
        "cases.csv": b"measure,p,q,tag,score\r\ncrank:jaccard,a,c,P1,0.25\r\n"
                     b"prank:pairwise,a,c,P1,NA\r\n",
        "top.csv": b'rank,external_id,score,zero_fill,title\r\n'
                   b'1,a,0.5,0,"Links, and ranks"\r\n2,c,0,1,\r\n',
        "matrix.csv": b"p,q,score\n0,0,1\n0,1,0.5\n1,1,1\n2,2,1\n",
    }
    for name, write in writes.items():
        write(tmp_path / name)
        assert (tmp_path / name).read_bytes() == expected[name], name

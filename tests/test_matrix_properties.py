"""Property-based checks of the square score store against element-by-element
references: the CSV bytes and score text, the CSV check, the row views and
the top_k rankings."""

import decimal
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from citesim import fixtures, matrix
from citesim.engine import MeasureConfig, compute, top_k
from citesim.errors import DataError
from citesim.matrix import (ROW_DTYPE, SCORE_FORMAT, SimilarityMatrix, compare_rows,
                            write_matrix_csv)

import oracles


@st.composite
def squares(draw, max_n=70):
    """(square, na): a symmetric score array and N/A mask, n from 0 to
    max_n.  Scores run from below 1e-4 (written in exponent form) to raw
    counts above 1, with exact zeros and ties."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    kind = draw(st.sampled_from(["spread", "counts", "ties"]))
    if kind == "spread":
        a = rng.random((n, n)) * 10.0 ** rng.integers(-12, 3, size=(n, n))
    elif kind == "counts":
        a = rng.integers(0, 9, size=(n, n)).astype(float)
    else:
        a = rng.integers(0, 4, size=(n, n)) / 4.0
    a[rng.random((n, n)) < draw(st.floats(min_value=0.0, max_value=0.5))] = 0.0
    square = np.triu(a) + np.triu(a, 1).T
    na = np.triu(rng.random((n, n)) < draw(st.floats(min_value=0.0, max_value=0.4)), 1)
    return square, na | na.T


@settings(max_examples=60, deadline=None)
@given(squares())
def test_csv_bytes_match_the_per_row_reference(tmp_path_factory, sq):
    square, na = sq
    path = tmp_path_factory.mktemp("csv") / "m.csv"
    m = SimilarityMatrix.from_square(square, na=na)
    write_matrix_csv(m, path)
    with open(path, encoding="utf-8", newline="") as fh:
        assert fh.read() == oracles.matrix_csv_reference(m)


@settings(max_examples=40, deadline=None)
@given(squares(max_n=30), st.sampled_from([1, 5, 40, 200]))
def test_csv_bytes_do_not_depend_on_the_block_sizes(tmp_path_factory, sq, scan):
    # small row blocks: one-row blocks, wider than _SCAN, and blocks of a
    # few rows; entries_above reads the same blocks
    square, na = sq
    path = tmp_path_factory.mktemp("csv") / "m.csv"
    m = SimilarityMatrix.from_square(square, na=na)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(matrix, "_SCAN", scan)
        write_matrix_csv(m, path)
        entries = list(m.entries_above())
    with open(path, encoding="utf-8", newline="") as fh:
        assert fh.read() == oracles.matrix_csv_reference(m)
    assert entries == [(p, q, m.get(p, q)) for p in range(m.n) for q in range(p, m.n)
                       if not m.is_na(p, q) and m.get(p, q) > 0.0]


def _float(bits):
    return float(np.uint64(bits).view(np.float64))


def _nearby(v, ulps):
    for _ in range(abs(ulps)):
        v = math.nextafter(v, math.inf if ulps > 0 else 0.0)
    return v


def _tie(v):
    """v with its low mantissa bits set so that its 18th significant digit
    is an exact 5, where the 53 bits allow that: a round-half-even tie."""
    mant, exp = math.frexp(v)
    m, e = int(mant * 2 ** 53), exp - 53
    r = decimal.Decimal(v).adjusted() - 16 - e  # bits below the 17th digit
    if not 1 <= r <= 53:
        return v
    return math.ldexp(((m >> r) << r) | (1 << (r - 1)), e)


# positive float64: any bit pattern (subnormals and inf included), the
# edges of the exact range and powers of ten a few ulps off, and ties
# (0x3DDB... and 0x433F... are the bits of 1e-10 and of 2**53 less one ulp)
scores = (st.integers(min_value=1, max_value=0x7FF0000000000000).map(_float)
          | st.builds(_nearby, st.sampled_from([1e-10, 2.0 ** 53] + [10.0 ** k for k in range(-12, 17)]),
                      st.integers(min_value=-3, max_value=3))
          | st.integers(min_value=0x3DDB7CDFD9D7BDBB, max_value=0x433FFFFFFFFFFFFF).map(_float).map(_tie))


@settings(max_examples=200, deadline=None)
@given(st.lists(scores, min_size=1, max_size=40))
def test_written_score_text_is_the_score_format(tmp_path_factory, values):
    square = np.zeros((9, 9))  # 45 upper cells, filled row by row, the rest 0
    square[tuple(i[:len(values)] for i in np.triu_indices(9))] = values
    m = SimilarityMatrix.from_square(square)
    path = tmp_path_factory.mktemp("csv") / "m.csv"
    write_matrix_csv(m, path)
    lines = path.read_bytes().decode().splitlines()[1:]
    assert [line.split(",")[2] for line in lines] == [SCORE_FORMAT % v for v in values]


def test_csv_write_peak_memory_in_squares(tmp_path):
    # the crank-dense benchmark's matrix, about 180k rows; the store is
    # built before tracing starts, so this is the writer's own peak
    n = 600
    m, _ = compute(fixtures.random_graph(n, 5 / n, 1), MeasureConfig("crank"))
    tracemalloc.start()
    try:
        write_matrix_csv(m, tmp_path / "m.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / (8 * n * n) <= 1.5


def test_sparse_blocks_share_a_score_text_call(tmp_path, monkeypatch):
    # a cocitation square of a sparse graph: 24 row blocks of about 320
    # scores each, joined until they hold _SCAN // 2 scores, so 2 calls
    n = 600
    m, _ = compute(fixtures.random_graph(n, 5 / n, 1), MeasureConfig("cocitation", "jaccard"))
    batches = []
    for _, _, scores in matrix._exported(m):
        if not batches or batches[-1] >= matrix._SCAN // 2:
            batches.append(0)
        batches[-1] += scores.size
    calls = []
    score_text = matrix._score_text
    monkeypatch.setattr(matrix, "_score_text",
                        lambda v, text: (calls.append(v.size), score_text(v, text)))
    write_matrix_csv(m, tmp_path / "m.csv")
    assert calls == batches and len(calls) == 2


@settings(max_examples=60, deadline=None)
@given(squares(max_n=40), st.integers(min_value=1, max_value=12) | st.integers(min_value=1, max_value=45),
       st.booleans(), st.data())
def test_row_views_and_top_k_match_elementwise_references(sq, count, zero_fill, data):
    square, na = sq
    inputs = square.copy(), na.copy()
    m = SimilarityMatrix.from_square(square, na=na)
    # from_square copies: its inputs stay as they were, and writeable
    assert np.array_equal(square, inputs[0]) and np.array_equal(na, inputs[1])
    assert square.flags.writeable and na.flags.writeable
    assert np.array_equal(m.dense_na(), na)
    assert np.array_equal(m.dense_scores(), np.where(na, 0.0, square))
    assert m.na_count() == np.count_nonzero(np.triu(na, 1))
    dense = m.dense_scores(), m.dense_na()
    assert not any(a.flags.writeable for a in dense)
    for p in range(m.n):
        scores, flags = m.row_scores(p), m.row_na(p)
        assert scores.tolist() == [m.get(p, q) for q in range(m.n)]
        assert flags.tolist() == [m.is_na(p, q) for q in range(m.n)]
        # read-only rows of the store, not copies
        assert not scores.flags.writeable and not flags.flags.writeable
        assert np.shares_memory(scores, dense[0]) and np.shares_memory(flags, dense[1])
    if m.n:
        query = data.draw(st.integers(min_value=0, max_value=m.n - 1))
        got = [(e.paper, e.score, e.zero_fill) for e in top_k(m, query, count, zero_fill)]
        assert got == oracles.top_k_reference(m, query, count, zero_fill)


@st.composite
def tampered_rows(draw, m):
    """The rows write_matrix_csv(m) exports, then dropped, added (new or
    repeated pairs, in or out of range), moved by one ulp and shuffled."""
    rows = np.array(list(m.entries_above()), dtype=ROW_DTYPE)
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    rows = rows[rng.random(len(rows)) >= draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))]
    moved = rng.random(len(rows)) < draw(st.sampled_from([0.0, 0.05, 0.3]))
    rows["score"][moved] = np.nextafter(rows["score"][moved], np.inf)
    extra = draw(st.lists(st.tuples(st.integers(-2, m.n + 1), st.integers(-2, m.n + 1),
                                    st.sampled_from([0.0, 0.5, 1.0])), max_size=4))
    extra = np.array(extra, dtype=ROW_DTYPE)
    if draw(st.booleans()):
        extra["q"] = np.maximum(extra["p"], extra["q"])  # mostly valid new pairs
    repeats = draw(st.sampled_from([0, 1, 3])) if len(rows) else 0
    rows = np.concatenate([rows, extra, rows[rng.choice(len(rows), size=repeats)]])
    if draw(st.booleans()):
        rng.shuffle(rows)
    return rows


@settings(max_examples=80, deadline=None)
@given(squares(max_n=12), st.data())
def test_compare_rows_matches_the_per_pair_reference(sq, data):
    square, na = sq
    m = SimilarityMatrix.from_square(square, na=na)
    rows = data.draw(tampered_rows(m))
    try:
        want = oracles.compare_rows_reference(m, rows, "m.csv")
    except DataError as exc:
        with pytest.raises(DataError) as got:
            compare_rows(m, rows, "m.csv")
        assert str(got.value) == str(exc)
        return
    got = compare_rows(m, rows, "m.csv")
    assert [list(map(tuple, pairs.tolist())) for pairs in got] == list(want)

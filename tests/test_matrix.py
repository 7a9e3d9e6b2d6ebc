import numpy as np
import pytest

from citesim.errors import DataError
from citesim.matrix import SimilarityMatrix, read_matrix_csv, write_matrix_csv


def test_single_cell_symmetry():
    m = SimilarityMatrix(6)
    m.set(2, 5, 0.25)
    assert m.get(5, 2) == 0.25
    m.set(5, 2, 0.5)
    assert m.get(2, 5) == 0.5


def test_diagonal_defaults_to_one():
    m = SimilarityMatrix(4)
    assert all(m.get(p, p) == 1.0 for p in range(4))
    assert m.get(0, 1) == 0.0


def test_from_square_round_trip():
    rng = np.random.default_rng(0)
    a = rng.random((7, 7))
    square = np.triu(a) + np.triu(a, 1).T
    m = SimilarityMatrix.from_square(square, k=3)
    assert m.k == 3
    assert np.array_equal(m.dense_scores(), square)
    # only the upper triangle is read: a's lower one is unrelated to it
    assert np.array_equal(SimilarityMatrix.from_square(a).dense_scores(), square)


def test_na_reads_zero_but_is_flagged():
    m = SimilarityMatrix(4)
    m.set(0, 1, 0.7)
    m.set_na(0, 1)
    assert m.get(0, 1) == 0.0
    assert m.is_na(1, 0)
    assert m.na_count() == 1
    m.set(0, 1, 0.2)  # writing a value clears the flag
    assert not m.is_na(0, 1)
    assert m.na_count() == 0


def test_row_views_match_elementwise():
    rng = np.random.default_rng(1)
    a = rng.random((6, 6))
    square = np.triu(a) + np.triu(a, 1).T
    na = np.zeros((6, 6), dtype=bool)
    na[1, 4] = na[4, 1] = True
    square[1, 4] = square[4, 1] = 0.0
    m = SimilarityMatrix.from_square(square, na=na)
    for p in range(6):
        row = m.row_scores(p)
        flags = m.row_na(p)
        for q in range(6):
            assert row[q] == m.get(p, q)
            assert flags[q] == m.is_na(p, q)


def test_offdiag_packed_shape_and_content():
    m = SimilarityMatrix(5)
    m.set(0, 3, 0.4)
    m.set_na(2, 4)
    scores, na = m.offdiag_packed()
    assert scores.shape == (10,)
    assert na.sum() == 1
    assert scores.max() == 0.4
    assert m.na_count() == 1


def test_entries_above_skips_na_and_zero():
    m = SimilarityMatrix(4)
    m.set(0, 1, 0.5)
    m.set(0, 2, 0.05)
    m.set_na(1, 2)
    rows = list(m.entries_above())
    # four diagonal ones plus the two positive pairs; zeros and N/A skipped
    assert (0, 1, 0.5) in rows
    assert (0, 2, 0.05) in rows
    assert all(s > 0.0 for _, _, s in rows)
    assert (1, 2) not in {(p, q) for p, q, _ in rows}
    assert len(rows) == 6


def test_out_of_range_pairs_rejected():
    m = SimilarityMatrix(3)
    with pytest.raises(ValueError):
        m.get(0, 3)
    with pytest.raises(ValueError):
        m.set(-1, 0, 0.5)
    with pytest.raises(ValueError):
        m.row_scores(3)
    with pytest.raises(ValueError):
        SimilarityMatrix(-1)


def test_same_bits_detects_single_ulp():
    m1 = SimilarityMatrix(4)
    m2 = SimilarityMatrix(4)
    m1.set(0, 1, 0.1)
    m2.set(0, 1, 0.1)
    assert m1.same_bits(m2)
    m2.set(0, 1, np.nextafter(0.1, 1.0))
    assert not m1.same_bits(m2)
    # bits, not values: a signed zero differs, a NaN matches itself
    m1.set(0, 1, 0.0)
    m2.set(0, 1, -0.0)
    assert not m1.same_bits(m2)
    m1.set(0, 1, np.nan)
    m2.set(0, 1, np.nan)
    assert m1.same_bits(m2)


def test_csv_round_trip_is_exact(tmp_path):
    m = SimilarityMatrix(4)
    awkward = [1 / 3, 0.1, 5.551115123125783e-17, 0.7000000000000001]
    m.set(0, 1, awkward[0])
    m.set(0, 2, awkward[1])
    m.set(1, 2, awkward[2])
    m.set(2, 3, awkward[3])
    path = tmp_path / "m.csv"
    write_matrix_csv(m, path)
    rows = {(p, q): s for p, q, s in read_matrix_csv(path)}
    assert rows[(0, 1)] == awkward[0]
    assert rows[(0, 2)] == awkward[1]
    assert rows[(1, 2)] == awkward[2]
    assert rows[(2, 3)] == awkward[3]
    for p in range(4):
        assert rows[(p, p)] == 1.0


def test_csv_skips_na_and_zero(tmp_path):
    m = SimilarityMatrix(3)
    m.set_na(0, 2)
    path = tmp_path / "m.csv"
    write_matrix_csv(m, path)
    pairs = {(p, q) for p, q, _ in read_matrix_csv(path)}
    assert (0, 1) not in pairs  # zero score
    assert (0, 2) not in pairs  # N/A never exported
    assert pairs == {(0, 0), (1, 1), (2, 2)}


def test_read_matrix_csv_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("wrong,header,here\n")
    with pytest.raises(DataError, match="header"):
        read_matrix_csv(path)
    path.write_text("p,q,score\n0,1,not-a-number\n")
    with pytest.raises(DataError, match=r":2:"):
        read_matrix_csv(path)
    path.write_text("p,q,score\n0,1\n")
    with pytest.raises(DataError, match=r":2:"):
        read_matrix_csv(path)
    path.write_text("p,q,score\n0,1,0.5\n\n99999999999999999999,1,0.5\n")
    with pytest.raises(DataError, match=r":4: id out of range"):
        read_matrix_csv(path)
    # a quoted field spanning lines 2 and 3 puts the bad row on line 4
    path.write_text('p,q,score\n0,0,"1\n"\n0,x,0.5\n')
    with pytest.raises(DataError, match=r":4: malformed"):
        read_matrix_csv(path)


def test_read_matrix_csv_names_the_field_count(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("p,q,score\n0,0,1\n\n0,1,0.5,7\n")
    with pytest.raises(DataError) as err:
        read_matrix_csv(path)
    assert str(err.value) == f"{path}:4: expected 3 fields, got 4"

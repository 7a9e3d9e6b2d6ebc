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


def test_set_na_refuses_the_diagonal():
    m = SimilarityMatrix(3)
    with pytest.raises(ValueError, match="the diagonal is never N/A"):
        m.set_na(1, 1)
    assert m.get(1, 1) == 1.0 and not m.is_na(1, 1)
    assert m.same_bits(SimilarityMatrix(3))


def test_from_square_refuses_a_diagonal_na():
    na = np.zeros((3, 3), dtype=bool)
    na[2, 2] = True
    with pytest.raises(ValueError, match="the diagonal is never N/A"):
        SimilarityMatrix.from_square(np.eye(3), na=na)
    with pytest.raises(ValueError, match="the diagonal is never N/A"):
        SimilarityMatrix.from_square(np.eye(3), na=np.eye(3, dtype=bool))


@pytest.mark.parametrize("shape", [(3,), (1, 3), (3, 1), (3, 4), (4, 4)], ids=str)
def test_from_square_names_an_na_of_the_wrong_shape(shape):
    # a (1, 3) mask would broadcast over the square's rows
    with pytest.raises(ValueError) as err:
        SimilarityMatrix.from_square(np.eye(3), na=np.zeros(shape, dtype=bool))
    assert str(err.value) == f"N/A mask of shape {shape} for a 3x3 square"


def test_from_square_copies_its_inputs():
    square = np.eye(3)
    square[0, 1] = square[1, 0] = 0.5
    na = np.zeros((3, 3), dtype=bool)
    na[0, 2] = na[2, 0] = True
    m = SimilarityMatrix.from_square(square, na=na)
    square[0, 1] = 0.9
    na[0, 2] = False
    assert m.get(0, 1) == 0.5 and m.is_na(0, 2)
    m.set(1, 2, 0.25)
    m.set_na(0, 1)
    assert square[1, 2] == square[2, 1] == 0.0 and not na[0, 1] and not na[1, 0]


def test_row_and_dense_views_are_copies():
    m = SimilarityMatrix(3)
    m.set(0, 1, 0.5)
    m.set_na(0, 2)
    before = SimilarityMatrix.from_square(m.dense_scores(), na=m.dense_na())
    for view in (m.row_scores(0), m.row_scores(2), m.dense_scores()):
        view[:] = 7.0
    for view in (m.row_na(0), m.row_na(1), m.dense_na()):
        view[:] = False
    assert m.same_bits(before)


@pytest.mark.parametrize("p, q", [(1, 3), (3, 1)])
def test_set_and_set_na_are_seen_from_both_ends(p, q):
    m = SimilarityMatrix(4)
    m.set(p, q, 0.5)
    assert m.get(1, 3) == m.get(3, 1) == 0.5
    assert m.row_scores(1)[3] == m.row_scores(3)[1] == 0.5
    scores = m.dense_scores()
    assert scores[1, 3] == scores[3, 1] == 0.5
    m.set_na(p, q)
    assert m.is_na(1, 3) and m.is_na(3, 1)
    assert m.get(1, 3) == m.get(3, 1) == 0.0
    assert m.row_na(1)[3] and m.row_na(3)[1]
    assert m.row_scores(1)[3] == m.row_scores(3)[1] == 0.0
    na = m.dense_na()
    assert na[1, 3] and na[3, 1] and na.sum() == 2 and m.na_count() == 1
    m.set(q, p, 0.25)
    assert not m.is_na(1, 3) and not m.is_na(3, 1) and m.na_count() == 0
    assert m.get(1, 3) == m.get(3, 1) == 0.25


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
    with pytest.raises(ValueError, match=r"paper id 3 out of range \[0, 3\)"):
        m.row_na(3)
    with pytest.raises(ValueError):
        SimilarityMatrix(-1)


def test_from_square_requires_a_square():
    with pytest.raises(ValueError, match="square score array required"):
        SimilarityMatrix.from_square(np.zeros((2, 3)))


def test_from_square_stores_plus_zero_at_na_pairs():
    square = np.array([[1.0, 0.7, -0.0], [0.7, 1.0, -0.0], [-0.0, -0.0, 1.0]])
    na = np.zeros((3, 3), dtype=bool)
    na[0, 1] = na[0, 2] = True
    ref = SimilarityMatrix(3)
    ref.set_na(0, 1)
    ref.set_na(0, 2)
    ref.set(1, 2, -0.0)
    assert SimilarityMatrix.from_square(square, na=na).same_bits(ref)


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


@pytest.mark.parametrize("row", [["1_0", "10", "0.5"], ["0", "1", "0.2_5"],
                                 ["\uff11", "1", "0.5"], ["0", "1", "0.\uff15"]])
def test_read_matrix_csv_rejects_digit_separators_and_non_ascii_digits(tmp_path, row):
    # int() and float() read each of these as a number
    path = tmp_path / "m.csv"
    path.write_text("p,q,score\n0,0,1\n" + ",".join(row) + "\n", encoding="utf-8")
    with pytest.raises(DataError) as err:
        read_matrix_csv(path)
    assert str(err.value) == f"{path}:3: malformed row {row}"


def test_read_matrix_csv_keeps_the_sign_and_spaces_int_allows(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("p,q,score\n-1, 2 , 0.5\n")
    assert read_matrix_csv(path).tolist() == [(-1, 2, 0.5)]


def test_read_matrix_csv_names_the_field_count(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("p,q,score\n0,0,1\n\n0,1,0.5,7\n")
    with pytest.raises(DataError) as err:
        read_matrix_csv(path)
    assert str(err.value) == f"{path}:4: expected 3 fields, got 4"

import numpy as np
import pytest

from citesim.engine import top_k
from citesim.errors import DataError
from citesim.matrix import SimilarityMatrix, read_matrix_csv, write_matrix_csv


def test_single_cell_symmetry():
    square = np.eye(6)
    square[2, 5] = 0.25
    assert SimilarityMatrix.from_square(square).get(5, 2) == 0.25
    square[2, 5] = square[5, 2] = 0.5
    assert SimilarityMatrix.from_square(square).get(2, 5) == 0.5


def test_diagonal_defaults_to_one():
    m = SimilarityMatrix.from_square(np.eye(4))
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
    square = np.eye(4)
    square[0, 1] = 0.7
    na = np.zeros((4, 4), dtype=bool)
    na[0, 1] = True
    m = SimilarityMatrix.from_square(square, na=na)
    assert m.get(0, 1) == 0.0
    assert m.is_na(1, 0)
    assert m.na_count() == 1


def test_from_square_refuses_a_diagonal_na():
    na = np.zeros((3, 3), dtype=bool)
    na[2, 2] = True
    with pytest.raises(ValueError, match="the diagonal is never N/A"):
        SimilarityMatrix.from_square(np.eye(3), na=na)
    with pytest.raises(ValueError, match="the diagonal is never N/A"):
        SimilarityMatrix.from_square(np.eye(3), na=np.eye(3, dtype=bool))


@pytest.mark.parametrize("shape", [(3,), (1, 3), (3, 1), (3, 4), (4, 4), ()], ids=str)
def test_from_square_names_an_na_of_the_wrong_shape(shape):
    # a (1, 3) mask would broadcast over the square's rows; a list is read
    # as the array it holds
    for na in (np.zeros(shape, dtype=bool), np.zeros(shape, dtype=bool).tolist()):
        with pytest.raises(ValueError) as err:
            SimilarityMatrix.from_square(np.eye(3), na=na)
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


def test_the_constructor_keeps_its_arrays_and_makes_them_read_only():
    square = np.eye(3)
    square[0, 2] = square[2, 0] = 0.5
    na = np.zeros((3, 3), dtype=bool)
    na[0, 2] = na[2, 0] = True
    m = SimilarityMatrix(square, na, k=4, bounded=False)
    assert (m.n, m.k, m.bounded) == (3, 4, False)
    assert m.dense_scores() is square and m.dense_na() is na
    assert square[0, 2] == square[2, 0] == 0.0  # N/A cells zeroed in place
    assert not square.flags.writeable and not na.flags.writeable
    for scores, flags in [(np.eye(3, dtype=np.float32), np.zeros((3, 3), dtype=bool)),
                          (np.eye(3), np.zeros((3, 3))), (np.zeros((2, 3)), np.zeros((2, 3), dtype=bool)),
                          (np.eye(3), np.zeros((3, 2), dtype=bool)), (np.zeros(3), np.zeros(3, dtype=bool))]:
        with pytest.raises(ValueError, match="float64 square and a bool mask of its shape"):
            SimilarityMatrix(scores, flags)
    with pytest.raises(ValueError, match="the diagonal is never N/A"):
        SimilarityMatrix(np.eye(3), np.eye(3, dtype=bool))


def test_row_and_dense_views_are_read_only_rows_of_the_store():
    square = np.eye(3)
    square[0, 1] = 0.5
    na = np.zeros((3, 3), dtype=bool)
    na[0, 2] = True
    m = SimilarityMatrix.from_square(square, na=na)
    before = SimilarityMatrix.from_square(m.dense_scores(), na=m.dense_na())
    scores, flags = m.dense_scores(), m.dense_na()
    assert scores is m.dense_scores() and flags is m.dense_na()
    for row, dense in [(m.row_scores(p), scores) for p in range(3)] + [
            (m.row_na(p), flags) for p in range(3)]:
        assert np.shares_memory(row, dense)
    for view in [m.row_scores(0), m.row_na(2), scores, flags]:
        assert not view.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            view[:] = 0
    assert m.same_bits(before)


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
    square = np.eye(5)
    square[0, 3] = 0.4
    na = np.zeros((5, 5), dtype=bool)
    na[2, 4] = True
    m = SimilarityMatrix.from_square(square, na=na)
    scores, na = m.offdiag_packed()
    assert scores.shape == (10,)
    assert na.sum() == 1
    assert scores.max() == 0.4
    assert m.na_count() == 1


def test_entries_above_skips_na_and_zero():
    square = np.eye(4)
    square[0, 1:3] = 0.5, 0.05
    na = np.zeros((4, 4), dtype=bool)
    na[1, 2] = True
    m = SimilarityMatrix.from_square(square, na=na)
    rows = list(m.entries_above())
    # four diagonal ones plus the two positive pairs; zeros and N/A skipped
    assert (0, 1, 0.5) in rows
    assert (0, 2, 0.05) in rows
    assert all(s > 0.0 for _, _, s in rows)
    assert (1, 2) not in {(p, q) for p, q, _ in rows}
    assert len(rows) == 6


def test_out_of_range_pairs_rejected():
    m = SimilarityMatrix.from_square(np.eye(3))
    with pytest.raises(ValueError):
        m.get(0, 3)
    with pytest.raises(ValueError):
        m.row_scores(3)
    with pytest.raises(ValueError, match=r"paper id 3 out of range \[0, 3\)"):
        m.row_na(3)


@pytest.mark.parametrize("paper", [0.0, 1.0, np.float64(1), "1", None], ids=repr)
def test_paper_ids_must_be_integers(paper):
    # a float or a string is no id; an integer of any type is one, a bool too
    m = SimilarityMatrix.from_square(np.eye(3))
    for call in (lambda p: m.get(p, 1), lambda p: m.is_na(1, p), m.row_scores, m.row_na):
        with pytest.raises(TypeError):
            call(paper)
        assert np.array_equal(call(np.int64(1)), call(1))
        assert np.array_equal(call(True), call(1))
    # top_k's query too: a bool is paper 1, not a mask that clears every candidate
    ranked = SimilarityMatrix.from_square([[1.0, 0.5, 0.25], [0.5, 1.0, 0.75], [0.25, 0.75, 1.0]])
    with pytest.raises(TypeError):
        top_k(ranked, paper, 3)
    assert [entry.paper for entry in top_k(ranked, 1, 3)] == [2, 0]
    assert top_k(ranked, True, 3) == top_k(ranked, np.int64(1), 3) == top_k(ranked, 1, 3)
    with pytest.raises(ValueError, match=r"^paper id -1 out of range \[0, 3\)$"):
        top_k(ranked, -1, 3)


def test_from_square_requires_a_square():
    for square in (np.zeros((2, 3)), np.float64(1.0), 1.0, np.zeros(3), np.zeros((2, 2, 2)),
                   [[1.0, 0.0]]):
        with pytest.raises(ValueError, match="square score array required"):
            SimilarityMatrix.from_square(square)


def test_from_square_reads_lists_as_arrays():
    square = [[1.0, 0.5, 0.25], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    na = [[False, False, False], [False, False, True], [False, False, False]]
    m = SimilarityMatrix.from_square(square, na=na)
    assert m.same_bits(SimilarityMatrix.from_square(np.array(square), na=np.array(na)))
    assert m.get(2, 0) == 0.25 and m.is_na(2, 1) and m.na_count() == 1


def test_from_square_stores_plus_zero_at_na_pairs():
    square = np.array([[1.0, 0.7, -0.0], [0.7, 1.0, -0.0], [-0.0, -0.0, 1.0]])
    na = np.zeros((3, 3), dtype=bool)
    na[0, 1] = na[0, 2] = True
    plain = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, -0.0], [0.0, -0.0, 1.0]])
    ref = SimilarityMatrix.from_square(plain, na=na | na.T)
    assert SimilarityMatrix.from_square(square, na=na).same_bits(ref)


def test_same_bits_detects_single_ulp():
    def one(score):
        square = np.eye(4)
        square[0, 1] = square[1, 0] = score
        return SimilarityMatrix.from_square(square)

    assert one(0.1).same_bits(one(0.1))
    assert not one(0.1).same_bits(one(np.nextafter(0.1, 1.0)))
    # bits, not values: a signed zero differs, a NaN matches itself
    assert not one(0.0).same_bits(one(-0.0))
    assert one(np.nan).same_bits(one(np.nan))


def test_csv_round_trip_is_exact(tmp_path):
    awkward = [1 / 3, 0.1, 5.551115123125783e-17, 0.7000000000000001]
    square = np.eye(4)
    square[[0, 0, 1, 2], [1, 2, 2, 3]] = awkward
    m = SimilarityMatrix.from_square(square)
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
    na = np.zeros((3, 3), dtype=bool)
    na[0, 2] = True
    m = SimilarityMatrix.from_square(np.eye(3), na=na)
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

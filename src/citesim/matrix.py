"""Symmetric pair-score storage with an explicit N/A state.

Scores live on unordered pairs (p, q).  N/A marks pairs whose measure is
undefined (an empty required neighborhood); an N/A pair stores +0.0, so it
reads as 0.0 through every score view and numeric consumers never see a
sentinel, and :meth:`is_na` carries the distinction.

Storage is the closed n x n square itself: a float64 array of scores and a
bool array of N/A flags, 9 n^2 bytes resident, twice the 4.5 n^2 of a
packed upper triangle.  In return no copy is made: every measure builds its
scores in such a square, 1.0 on the diagonal and the lower triangle copied
onto the upper one, and the store keeps that square.  The store is made
once and never written after: both arrays are read-only, row p of the
square is every score against p, and the row and dense views hand out the
store's own rows, uncopied.

The matrix CSV holds each score as ``SCORE_FORMAT % score`` (``%.17g``).
Its cells are read by one scan, :func:`_exported`, in row blocks of about
:data:`_SCAN` cells, and :func:`write_matrix_csv` formats their scores with
numpy, one uint8 line matrix and one write per batch of consecutive
blocks that holds ``_SCAN // 2`` scores, or the rest of the matrix.  A dense
block is a batch of its own; a sparse matrix's blocks are joined, since
formatting a batch has a fixed cost of about 0.17 ms.
Every positive normal score in [1e-10, 2**53) is formatted by exact integer
arithmetic:
v = M * 2**E is scaled to the 17-digit quotient M * 5**(16-X) * 2**(E+16-X),
X = floor(log10 v), with the product held in two uint64 limbs (it is below
2**116) and the shift rounded half to even on the exact remainder, so the
bytes are those of ``%``.  Any other exported score (below 1e-10, from 2**53
up, inf) is formatted by ``%`` in its place.  A line is laid out in fixed
columns, NUL wherever a field has no byte (an id's padding, a fraction's
trailing zeros, a point with no digit after it), and written with every
NUL dropped.  The temporaries peak at about 1.9 MB while n is at most
:data:`_SCAN`; beyond that a block is one row, and they grow with n.
"""
from __future__ import annotations

import csv
from typing import Iterator, Optional

import numpy as np

from .errors import DataError
from .graph import csv_rows, paper_id, plain_ascii

# Full 17-significant-digit rendering: round-trips any float64 exactly.
SCORE_FORMAT = "%.17g"

ROW_DTYPE = np.dtype([("p", np.int64), ("q", np.int64), ("score", np.float64)])

# the matrix CSV: cells scanned per row block (a block has at least one
# row), and the longest SCORE_FORMAT text of a float64
# ("2.2250738585072014e-308")
_SCAN = 8192
_SCORE_WIDTH = 23


class SimilarityMatrix:
    """Symmetric (p, q) -> score map over n nodes at iteration index k.

    It keeps ``scores``, a closed n x n float64 square, and ``na``, its bool
    N/A mask of the same shape, without copying either: N/A cells of
    ``scores`` are set to +0.0 in place, then both arrays are made
    read-only.  The diagonal is never N/A.  :meth:`from_square` builds one
    from any square-shaped input, leaving that input as it was.

    Every paper id is read by :func:`~citesim.graph.paper_id`, so a bool
    reads as 0 or 1, where numpy would take it for a mask.

    ``bounded`` records which score contract is active: True means every
    non-N/A score lies in [0, 1]; raw-count measures set it False.
    """

    def __init__(self, scores: np.ndarray, na: np.ndarray, k: int = 0, bounded: bool = True):
        if not (scores.ndim == 2 and scores.shape == na.shape == scores.shape[::-1]
                and (scores.dtype, na.dtype) == (np.float64, np.bool_)):
            raise ValueError(f"a float64 square and a bool mask of its shape required, "
                             f"got {scores.dtype} {scores.shape} and {na.dtype} {na.shape}")
        if na.diagonal().any():
            raise ValueError("the diagonal is never N/A")
        np.copyto(scores, 0.0, where=na)
        scores.flags.writeable = na.flags.writeable = False
        self.n = len(scores)
        self.k = k
        self.bounded = bounded
        self._scores, self._na = scores, na

    @classmethod
    def from_square(cls, square: np.ndarray, na: Optional[np.ndarray] = None,
                    k: int = 0, bounded: bool = True) -> "SimilarityMatrix":
        """Store a copy of a square score array (and optional N/A mask).

        Both are read through ``np.asarray``, so nested lists are read as
        arrays.  Only the upper triangle including the diagonal is read, so
        the lower triangle need not be filled or symmetrized: the copy's is
        filled from the upper one.  ``na`` must have the square's shape.  N/A
        pairs store +0.0, whatever the square holds there; the diagonal is
        never N/A.
        """
        square = np.asarray(square)
        if square.ndim != 2 or square.shape != square.shape[::-1]:
            raise ValueError("square score array required")
        na = np.zeros(square.shape, dtype=bool) if na is None else np.asarray(na)
        if na.shape != square.shape:
            raise ValueError(f"N/A mask of shape {na.shape} for a {len(square)}x{len(square)} square")
        lower = np.tri(len(square), dtype=bool)
        return cls(np.where(lower, square.T, square).astype(float, copy=False),
                   np.where(lower, na.T, na).astype(bool, copy=False), k, bounded)

    # -- element access ----------------------------------------------------

    def get(self, p: int, q: int) -> float:
        """Score for the unordered pair; N/A pairs read as 0.0."""
        return float(self._scores[paper_id(p, self.n), paper_id(q, self.n)])

    def is_na(self, p: int, q: int) -> bool:
        return bool(self._na[paper_id(p, self.n), paper_id(q, self.n)])

    # -- bulk views (read-only rows of the store) --------------------------

    def row_scores(self, p: int) -> np.ndarray:
        """All scores against p as a read-only length-n row of the store (N/A
        entries read 0.0)."""
        return self._scores[paper_id(p, self.n)]

    def row_na(self, p: int) -> np.ndarray:
        return self._na[paper_id(p, self.n)]

    def dense_scores(self) -> np.ndarray:
        """The store's full square score array, read-only."""
        return self._scores

    def dense_na(self) -> np.ndarray:
        return self._na

    def na_count(self) -> int:
        """Number of unordered off-diagonal N/A pairs."""
        return int(np.count_nonzero(self._na)) // 2

    def entries_above(self) -> Iterator[tuple[int, int, float]]:
        """Yield (p, q, score) for each row :func:`write_matrix_csv` writes
        (p <= q, score > 0), in its order: both read :func:`_exported`."""
        for p, q, scores in _exported(self):
            yield from zip(p.tolist(), q.tolist(), scores.tolist())

    def same_bits(self, other: "SimilarityMatrix") -> bool:
        """True when every pair carries the identical float and N/A bit.

        The stores are compared byte for byte: -0.0 differs from 0.0, and a
        NaN equals a NaN of the same bits."""
        return (self.n == other.n
                and self._scores.tobytes() == other._scores.tobytes()
                and self._na.tobytes() == other._na.tobytes())


def write_table(path, header, rows):
    """Write a result table: ``csv.writer``'s defaults (CRLF line ends,
    quotes only where a field needs them), the header, then the rows."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _quotient(m, e, x):
    """(floor, round-up flag) of the 17-digit quotient m * 2**e * 10**(16-x),
    rounded half to even, for m < 2**53 and 16 - x in [0, 27].

    The product m * 5**(16-x) < 2**116 is held in two uint64 limbs (hi, lo)
    and shifted right by r = x - 16 - e bits, or left by -r when r <= 0.
    In [1e-10, 2**53) r stays below 63, and hi is 0 whenever r <= 0."""
    f = (5 ** np.arange(28, dtype=np.uint64))[16 - x]  # a few µs: no table at import
    m1, m0 = m >> 32, m & 0xFFFFFFFF
    f1, f0 = f >> 32, f & 0xFFFFFFFF
    low = m0 * f0
    mid = m1 * f0 + m0 * f1  # < 2**53 + 2**63
    lo = low + (mid << 32)
    hi = m1 * f1 + (mid >> 32) + (lo < low)
    r = x - 16 - e
    right = r > 0
    rs = np.maximum(r, 1).astype(np.uint64)
    q = np.where(right, (hi << (64 - rs)) | (lo >> rs),
                 lo << np.maximum(-r, 0).astype(np.uint64))
    rem, half = lo & ((1 << rs) - 1), 1 << (rs - 1)
    up = right & ((rem > half) | ((rem == half) & ((q & 1) == 1)))
    return q, up


def _score_text(v: np.ndarray, text: np.ndarray):
    """Fill row i of the uint8 text, c x (_SCORE_WIDTH + 1), for positive v:
    with its NULs dropped it is ``SCORE_FORMAT % v[i]`` and a newline, which
    is always in the last column."""
    exact = (v >= 1e-10) & (v < 2.0 ** 53)
    w = np.where(exact, v, 1.0)
    bits = w.view(np.uint64)
    m = (bits & (2 ** 52 - 1)) | 2 ** 52
    e = (bits >> 52).astype(np.int64) - 1075
    x = np.floor(np.log10(w)).astype(np.int64)
    q, up = _quotient(m, e, x)
    # log10 can land one off next to a power of ten: the quotient tells
    off = (q >= 10 ** 17).astype(np.int64) - (q < 10 ** 16)
    fix = np.flatnonzero(off)
    if fix.size:
        x[fix] += off[fix]
        q[fix], up[fix] = _quotient(m[fix], e[fix], x[fix])
    d = q + up
    carry = d == 10 ** 17  # 99...9.5 rounds up to the next power of ten
    d[carry] = 10 ** 16
    x += carry

    # one row per byte, one column per score: z holds four zeros (for
    # 0.000ddd), the 17 digits of d, a NUL, a point and a newline
    c = v.size
    z = np.empty((24, c), dtype=np.uint8)
    z[:4], z[21], z[22], z[23] = ord("0"), 0, ord("."), ord("\n")
    for k in range(20, 3, -1):
        rest = d // 10
        z[k] = d - 10 * rest + ord("0")
        d = rest
    # %g: fixed form for -4 <= x < 17, else one digit before the point and
    # an exponent.  Either way the text is the digits before the point (a
    # single "0" for 0.000ddd), the point, then the digits after it, whose
    # trailing zeros are dropped, and the point with them if no digit is left
    fixed = x >= -4
    point = np.where(fixed, x, 0)
    n = ((z[4:21] != ord("0")) * np.arange(1, 18, dtype=np.uint8)[:, None]).max(axis=0)
    z[4:21] *= np.arange(17)[:, None] < np.maximum(n, point + 1)
    z[22] *= n > point + 1
    # for each place of the point one pattern of rows of z, the commonest
    # laid out for every score and the others where they hold
    places = np.bincount(point + 4)
    col = np.arange(_SCORE_WIDTH + 1)
    out = np.empty((col.size, c), dtype=np.uint8)
    for i, at in enumerate(np.argsort(-places, kind="stable")[:np.count_nonzero(places)] - 4):
        lead = max(at, 0) + 1
        src = np.minimum(4 + min(at, 0) + col - (col > lead), 21)
        src[lead], src[-1] = 22, 23
        cols = np.flatnonzero(point == at) if i else slice(None)
        out[:, cols] = z[src][:, cols]
    sci = np.flatnonzero(~fixed)  # the exponent follows the 17th digit
    out[18, sci], out[19, sci] = ord("e"), ord("-")
    out[20, sci], out[21, sci] = -x[sci] // 10 + ord("0"), -x[sci] % 10 + ord("0")

    other = np.flatnonzero(~exact)
    if other.size:
        texts = [SCORE_FORMAT % s for s in v[other].tolist()]
        out[:_SCORE_WIDTH, other] = np.array(texts, dtype=f"S{_SCORE_WIDTH}")[:, None].view(np.uint8).T
    text[:] = out.T


def _id_text(n: int) -> np.ndarray:
    """Id i as one item of bytes: its digits right-aligned, NULs in front
    where it is shorter than n - 1, then a comma."""
    pow10 = 10 ** np.arange(len(str(max(n - 1, 0))) - 1, -1, -1)
    ids = np.arange(n)[:, None]
    text = np.full((n, pow10.size + 1), ord(","), dtype=np.uint8)
    text[:, :-1] = np.where((ids >= pow10) | (pow10 == 1), ids // pow10 % 10 + ord("0"), 0)
    return text.view(f"V{text.shape[1]}")[:, 0]


def _exported(m: SimilarityMatrix) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield the (p, q, score) arrays of the cells the matrix CSV holds, p <= q
    and score > 0 (so never an N/A pair), in row-major order: one block of
    rows at a time, of about :data:`_SCAN` cells and at least one row."""
    r0 = 0
    while r0 < m.n:
        r1 = min(m.n, r0 + max(1, _SCAN // (m.n - r0)))
        block = m._scores[r0:r1, r0:]  # (p, p) is on the block's diagonal
        exported = block > 0.0
        exported[:, :r1 - r0] = np.triu(exported[:, :r1 - r0])
        p, q = np.nonzero(exported)
        yield p + r0, q + r0, block[exported]
        r0 = r1


def write_matrix_csv(m: SimilarityMatrix, path):
    """Write `p,q,score` rows (p <= q, score > 0, N/A omitted), the score
    as ``SCORE_FORMAT % score``, each line's fixed columns with their NULs
    dropped.  Consecutive :func:`_exported` blocks are joined until they
    hold ``_SCAN // 2`` scores or the matrix ends, and each such batch is
    formatted and written at once: a dense block is a batch of its own."""
    ids = _id_text(m.n)
    start = 2 * ids.itemsize  # the score's first column in a line
    blocks = _exported(m)
    with open(path, "wb") as fh:
        fh.write(b"p,q,score\n")
        for block in blocks:
            batch, held = [block], block[2].size
            while held < _SCAN // 2 and (block := next(blocks, None)) is not None:
                batch.append(block)
                held += block[2].size
            p, q, scores = batch[0] if len(batch) == 1 else map(np.concatenate, zip(*batch))
            line = np.empty((scores.size, start + _SCORE_WIDTH + 1), dtype=np.uint8)
            line[:, :start] = ids[np.column_stack((p, q))].view(np.uint8)
            _score_text(scores, line[:, start:])
            # a line is its bytes with every NUL dropped
            fh.write(line[line != 0].tobytes())


def read_matrix_csv(path) -> np.ndarray:
    """Read the :func:`csv_rows` of a :func:`write_matrix_csv` file into a
    :data:`ROW_DTYPE` array, in file order: ``for p, q, s in rows`` works."""
    lineno = 0

    def parsed():
        nonlocal lineno
        for lineno, (p, q, score) in csv_rows(path, ROW_DTYPE.names):
            try:
                plain_ascii(p + q + score)
                yield int(p), int(q), float(score)
            except ValueError:
                raise DataError(f"{path}:{lineno}: malformed row {[p, q, score]}") from None

    try:
        return np.fromiter(parsed(), dtype=ROW_DTYPE)
    except OverflowError:
        # the row just parsed holds an id that no int64 can hold
        raise DataError(f"{path}:{lineno}: id out of range") from None


def compare_rows(m: SimilarityMatrix, rows: np.ndarray, source) -> tuple:
    """(missing, unexpected, mismatched): the pairs, as ascending (k, 2)
    arrays, where :func:`read_matrix_csv` rows and the float64 scores
    ``write_matrix_csv(m, ...)`` exports disagree.  Raises DataError naming
    ``source`` at the first row outside 0 <= p <= q < n or repeating a pair
    (that row's index is its ``row``).
    """
    p, q = rows["p"], rows["q"]
    outside = np.flatnonzero((p < 0) | (q < p) | (q >= m.n))
    end = outside[0] if outside.size else len(rows)
    idx = p[:end] * m.n + q[:end]  # the pair's cell in the flat square
    found = np.zeros(m.n * m.n, dtype=bool)
    found[idx] = True
    i = end  # the first bad row in file order
    repeated = np.count_nonzero(found) < end
    if repeated:
        # stable sort: of equal cells, every one after the first is a repeat
        order = np.argsort(idx, kind="stable")
        i = order[1:][idx[order[1:]] == idx[order[:-1]]].min()
    if i < len(rows):
        error = DataError(f"{source}: duplicate pair ({p[i]}, {q[i]})" if repeated else
                          f"{source}: pair ({p[i]}, {q[i]}) out of range for n={m.n}")
        error.row = int(i)
        raise error
    exported = np.triu(m._scores > 0.0).ravel()
    changed = np.zeros_like(found)
    changed[idx] = rows["score"] != m._scores.ravel()[idx]
    return tuple(np.column_stack(np.divmod(np.flatnonzero(cells), m.n)) for cells in (
        exported & ~found, found & ~exported, exported & changed))

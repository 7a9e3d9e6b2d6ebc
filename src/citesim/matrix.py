"""Symmetric pair-score storage with an explicit N/A state.

Scores live on unordered pairs (p, q) with p <= q; one cell per pair, so
symmetry is structural rather than a runtime promise.  N/A marks pairs whose
measure is undefined (an empty required neighborhood); an N/A pair stores
+0.0, so it reads as 0.0 through every score view and numeric consumers
never see a sentinel, and :meth:`is_na` carries the distinction.

Storage is one packed row-major upper triangle, diagonal included: a
float64 array of scores and a bool array of N/A flags, n*(n+1)/2 cells
each.  Every measure builds its full n x n square before packing it, so
the packed store never outgrows what the run has already held.

The matrix CSV holds each score as ``SCORE_FORMAT % score`` (``%.17g``),
but :func:`write_matrix_csv` formats chunks of :data:`_CHUNK` packed cells
with numpy, one uint8 line matrix and one write per chunk.  Every positive
normal score in [1e-10, 2**53) is formatted by exact integer arithmetic:
v = M * 2**E is scaled to the 17-digit quotient M * 5**(16-X) * 2**(E+16-X),
X = floor(log10 v), with the product held in two uint64 limbs (it is below
2**116) and the shift rounded half to even on the exact remainder, so the
bytes are those of ``%``.  Any other exported score (below 1e-10, from 2**53
up, inf) is formatted by ``%`` in its place.  A line is laid out in fixed
columns, NUL wherever a field has no byte (an id's padding, a fraction's
trailing zeros, a point with no digit after it), and written with every
NUL dropped.  A chunk's temporaries peak at about 2 MB whatever n is.
"""
from __future__ import annotations

import csv
from itertools import repeat
from typing import Iterator, Optional

import numpy as np

from .errors import DataError
from .graph import csv_rows, plain_ascii

# Full 17-significant-digit rendering: round-trips any float64 exactly.
SCORE_FORMAT = "%.17g"

ROW_DTYPE = np.dtype([("p", np.int64), ("q", np.int64), ("score", np.float64)])

# write_matrix_csv: packed cells per chunk, and the longest SCORE_FORMAT
# text of a float64 ("2.2250738585072014e-308")
_CHUNK = 8192
_SCORE_WIDTH = 23


class SimilarityMatrix:
    """Symmetric (p, q) -> score map over n nodes at iteration index k.

    ``bounded`` records which score contract is active: True means every
    non-N/A score lies in [0, 1]; raw-count measures set it False.
    """

    def __init__(self, n: int, k: int = 0, bounded: bool = True):
        if n < 0:
            raise ValueError("node count must be non-negative")
        self.n = n
        self.k = k
        self.bounded = bounded
        size = n * (n + 1) // 2
        self._scores = np.zeros(size)
        self._na = np.zeros(size, dtype=bool)
        p = np.arange(n)
        self._diag = p * n - p * (p - 1) // 2  # packed index of (p, p)
        self._scores[self._diag] = 1.0

    def _idx(self, p, q):
        # packed row-major upper triangle, diagonal included; p <= q, any shape
        return self._diag[p] + (q - p)

    def _pairs(self, idx: np.ndarray) -> np.ndarray:
        # inverse of _idx: the (p, q) rows of packed indices, as a (k, 2) array
        p = np.searchsorted(self._diag, idx, side="right") - 1
        return np.column_stack([p, idx - self._diag[p] + p])

    def _rows(self) -> Iterator[tuple[int, slice]]:
        # the cells (p, p), (p, p+1), ..., (p, n-1) of row p are one slice
        for p, lo in enumerate(self._diag.tolist()):
            yield p, slice(lo, lo + self.n - p)

    def _cell(self, p: int, q: int) -> int:
        if not (0 <= p < self.n and 0 <= q < self.n):
            raise ValueError(f"pair ({p}, {q}) out of range [0, {self.n})")
        return self._idx(min(p, q), max(p, q))

    @classmethod
    def from_square(cls, square: np.ndarray, na: Optional[np.ndarray] = None,
                    k: int = 0, bounded: bool = True) -> "SimilarityMatrix":
        """Pack a full square score array (and optional N/A mask).

        Only the upper triangle including the diagonal is read, so the
        lower triangle need not be filled or symmetrized.  N/A pairs store
        +0.0, whatever the square holds there; the diagonal is never N/A.
        """
        n = square.shape[0]
        if square.shape != (n, n):
            raise ValueError("square score array required")
        if na is not None and na.diagonal().any():
            raise ValueError("the diagonal is never N/A")
        m = cls(n, k=k, bounded=bounded)
        for p, cells in m._rows():
            m._scores[cells] = square[p, p:]
            if na is not None:
                m._na[cells] = na[p, p:]
        m._scores[m._na] = 0.0
        return m

    # -- element access ----------------------------------------------------

    def get(self, p: int, q: int) -> float:
        """Score for the unordered pair; N/A pairs read as 0.0."""
        return float(self._scores[self._cell(p, q)])

    def is_na(self, p: int, q: int) -> bool:
        return bool(self._na[self._cell(p, q)])

    def set(self, p: int, q: int, value: float):
        i = self._cell(p, q)
        self._scores[i] = value
        self._na[i] = False

    def set_na(self, p: int, q: int):
        i = self._cell(p, q)
        if p == q:
            raise ValueError("the diagonal is never N/A")
        self._na[i] = True
        self._scores[i] = 0.0

    # -- bulk views ---------------------------------------------------------

    def _row_index(self, p: int) -> np.ndarray:
        # packed index of the pair (p, q) for every q
        if not 0 <= p < self.n:
            raise ValueError(f"paper id {p} out of range [0, {self.n})")
        q = np.arange(self.n)
        return self._idx(np.minimum(p, q), np.maximum(p, q))

    def row_scores(self, p: int) -> np.ndarray:
        """All scores against p as a length-n array (N/A entries read 0.0)."""
        return self._scores[self._row_index(p)]

    def row_na(self, p: int) -> np.ndarray:
        return self._na[self._row_index(p)]

    def _square(self, packed: np.ndarray) -> np.ndarray:
        # the symmetric n x n array holding packed[_idx(p, q)] at (p, q)
        out = np.empty((self.n, self.n), dtype=packed.dtype)
        for p, cells in self._rows():
            out[p, p:] = out[p:, p] = packed[cells]
        return out

    def dense_scores(self) -> np.ndarray:
        """Full square score array; intended for desk-scale n."""
        return self._square(self._scores)

    def dense_na(self) -> np.ndarray:
        return self._square(self._na)

    def offdiag_packed(self) -> tuple[np.ndarray, np.ndarray]:
        """(scores, na) over the n·(n-1)/2 unordered off-diagonal pairs."""
        mask = np.ones(self._scores.shape[0], dtype=bool)
        mask[self._diag] = False
        return self._scores[mask], self._na[mask]

    def na_count(self) -> int:
        """Number of unordered off-diagonal N/A pairs."""
        return int(np.count_nonzero(self._na))

    def _exported(self, cells: slice = slice(None)) -> np.ndarray:
        # packed flags of the pairs a matrix CSV holds: score > 0, never N/A
        return self._scores[cells] > 0.0

    def entries_above(self) -> Iterator[tuple[int, int, float]]:
        """Yield (p, q, score) for each row :func:`write_matrix_csv` writes."""
        exported = self._exported()
        for p, cells in self._rows():
            keep = np.flatnonzero(exported[cells])
            yield from zip(repeat(p), (keep + p).tolist(), self._scores[cells][keep].tolist())

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


def write_matrix_csv(m: SimilarityMatrix, path):
    """Write `p,q,score` rows (p <= q, score > 0, N/A omitted), the score
    as ``SCORE_FORMAT % score``, one chunk of packed cells per write, each
    line's fixed columns with their NULs dropped."""
    ids = _id_text(m.n)
    start = 2 * ids.itemsize  # the score's first column in a line
    with open(path, "wb") as fh:
        fh.write(b"p,q,score\n")
        for lo in range(0, m._scores.size, _CHUNK):
            cells = lo + np.flatnonzero(m._exported(slice(lo, lo + _CHUNK)))
            line = np.empty((cells.size, start + _SCORE_WIDTH + 1), dtype=np.uint8)
            line[:, :start] = ids[m._pairs(cells)].view(np.uint8).reshape(cells.size, start)
            _score_text(m._scores[cells], line[:, start:])
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
    idx = m._idx(p[:end], q[:end])
    # stable sort: of equal cells, every one after the first is a repeat
    order = np.argsort(idx, kind="stable")
    repeats = order[1:][idx[order[1:]] == idx[order[:-1]]]
    i = repeats.min() if repeats.size else end  # the first bad row in file order
    if i < len(rows):
        error = DataError(f"{source}: duplicate pair ({p[i]}, {q[i]})" if repeats.size else
                          f"{source}: pair ({p[i]}, {q[i]}) out of range for n={m.n}")
        error.row = int(i)
        raise error
    found = np.zeros_like(m._na)
    found[idx] = True
    scores = np.zeros_like(m._scores)
    scores[idx] = rows["score"]
    exported = m._exported()
    return tuple(m._pairs(np.flatnonzero(cells)) for cells in (
        exported & ~found, found & ~exported, exported & found & (scores != m._scores)))

"""Symmetric pair-score storage with an explicit N/A state.

Scores live on unordered pairs (p, q) with p <= q; one cell per pair, so
symmetry is structural rather than a runtime promise.  N/A marks pairs whose
measure is undefined (an empty required neighborhood); an N/A pair still
reads as 0.0 through :meth:`SimilarityMatrix.get` so numeric consumers never
see a sentinel, and :meth:`is_na` carries the distinction.

Storage is one packed row-major upper triangle, diagonal included: a
float64 array of scores and a bool array of N/A flags, n*(n+1)/2 cells
each.  Every measure builds its full n x n square before packing it, so
the packed store never outgrows what the run has already held.
"""
from __future__ import annotations

import csv
from itertools import repeat
from typing import Iterator, Optional

import numpy as np

from .errors import DataError

# Full 17-significant-digit rendering: round-trips any float64 exactly.
SCORE_FORMAT = "%.17g"

ROW_DTYPE = np.dtype([("p", np.int64), ("q", np.int64), ("score", np.float64)])


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
        lower triangle need not be filled or symmetrized.
        """
        n = square.shape[0]
        if square.shape != (n, n):
            raise ValueError("square score array required")
        m = cls(n, k=k, bounded=bounded)
        for p, cells in m._rows():
            m._scores[cells] = square[p, p:]
            if na is not None:
                m._na[cells] = na[p, p:]
        return m

    # -- element access ----------------------------------------------------

    def get(self, p: int, q: int) -> float:
        """Score for the unordered pair; N/A pairs read as 0.0."""
        i = self._cell(p, q)
        return 0.0 if self._na[i] else float(self._scores[i])

    def is_na(self, p: int, q: int) -> bool:
        return bool(self._na[self._cell(p, q)])

    def set(self, p: int, q: int, value: float):
        i = self._cell(p, q)
        self._scores[i] = value
        self._na[i] = False

    def set_na(self, p: int, q: int):
        i = self._cell(p, q)
        self._na[i] = True
        self._scores[i] = 0.0

    # -- bulk views ---------------------------------------------------------

    def _row_index(self, p: int) -> np.ndarray:
        # packed index of the pair (p, q) for every q
        q = np.arange(self.n)
        return self._idx(np.minimum(p, q), np.maximum(p, q))

    def row_scores(self, p: int) -> np.ndarray:
        """All scores against p as a length-n array (N/A entries read 0.0)."""
        if not 0 <= p < self.n:
            raise ValueError(f"paper id {p} out of range [0, {self.n})")
        i = self._row_index(p)
        return np.where(self._na[i], 0.0, self._scores[i])

    def row_na(self, p: int) -> np.ndarray:
        if not 0 <= p < self.n:
            raise ValueError(f"paper id {p} out of range [0, {self.n})")
        return self._na[self._row_index(p)]

    def _square(self, packed: np.ndarray) -> np.ndarray:
        # the symmetric n x n array holding packed[_idx(p, q)] at (p, q)
        out = np.empty((self.n, self.n), dtype=packed.dtype)
        for p, cells in self._rows():
            out[p, p:] = out[p:, p] = packed[cells]
        return out

    def dense_scores(self) -> np.ndarray:
        """Full square score array; intended for desk-scale n."""
        return self._square(np.where(self._na, 0.0, self._scores))

    def dense_na(self) -> np.ndarray:
        return self._square(self._na)

    def offdiag_packed(self) -> tuple[np.ndarray, np.ndarray]:
        """(scores, na) over the n·(n-1)/2 unordered off-diagonal pairs."""
        mask = np.ones(self._scores.shape[0], dtype=bool)
        mask[self._diag] = False
        return self._scores[mask], self._na[mask]

    def na_count(self) -> int:
        """Number of unordered off-diagonal N/A pairs."""
        _, na = self.offdiag_packed()
        return int(na.sum())

    def _exported(self) -> np.ndarray:
        # packed flags of the pairs a matrix CSV holds: not N/A, score > 0
        return ~self._na & (self._scores > 0.0)

    def _exported_rows(self) -> Iterator[tuple[int, list, list]]:
        # per p: the q >= p and the scores of its exported pairs
        exported = self._exported()
        for p, cells in self._rows():
            keep = np.flatnonzero(exported[cells])
            yield p, (keep + p).tolist(), self._scores[cells][keep].tolist()

    def entries_above(self) -> Iterator[tuple[int, int, float]]:
        """Yield (p, q, score) for each row :func:`write_matrix_csv` writes."""
        for p, qs, scores in self._exported_rows():
            yield from zip(repeat(p), qs, scores)

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


def write_matrix_csv(m: SimilarityMatrix, path):
    """Write `p,q,score` rows (p <= q, score > 0, N/A omitted)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("p,q,score\n")
        for p, qs, scores in m._exported_rows():
            # one % per matrix row, over its (q, score) pairs interleaved
            values = [None] * (2 * len(qs))
            values[::2] = qs
            values[1::2] = scores
            fh.write((f"{p},%d,{SCORE_FORMAT}\n" * len(qs)) % tuple(values))


def read_matrix_csv(path) -> np.ndarray:
    """Read rows written by :func:`write_matrix_csv` into a structured array
    of :data:`ROW_DTYPE`, in file order: ``for p, q, s in rows`` works."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["p", "q", "score"]:
            raise DataError(f"{path}: expected header 'p,q,score', got {header}")

        def parsed():
            for row in reader:
                if not row:
                    continue
                if len(row) != 3:
                    raise DataError(f"{path}:{reader.line_num}: expected 3 fields")
                try:
                    yield int(row[0]), int(row[1]), float(row[2])
                except ValueError:
                    raise DataError(f"{path}:{reader.line_num}: malformed row {row}") from None

        try:
            return np.fromiter(parsed(), dtype=ROW_DTYPE)
        except OverflowError:
            # the row just parsed holds an id that no int64 can hold
            raise DataError(f"{path}:{reader.line_num}: id out of range") from None


def compare_rows(m: SimilarityMatrix, rows: np.ndarray, source) -> tuple:
    """(missing, unexpected, mismatched): the pairs, as ascending (k, 2)
    arrays, where :func:`read_matrix_csv` rows and the float64 scores
    ``write_matrix_csv(m, ...)`` exports disagree.  Raises DataError naming
    ``source`` at the first row outside 0 <= p <= q < n or repeating a pair.
    """
    p, q = rows["p"], rows["q"]
    outside = np.flatnonzero((p < 0) | (q < p) | (q >= m.n))
    end = outside[0] if outside.size else len(rows)
    idx = m._idx(p[:end], q[:end])
    # stable sort: of equal cells, every one after the first is a repeat
    order = np.argsort(idx, kind="stable")
    repeats = order[1:][idx[order[1:]] == idx[order[:-1]]]
    if repeats.size:
        i = repeats.min()
        raise DataError(f"{source}: duplicate pair ({p[i]}, {q[i]})")
    if end < len(rows):
        raise DataError(f"{source}: pair ({p[end]}, {q[end]}) out of range for n={m.n}")
    found = np.zeros_like(m._na)
    found[idx] = True
    scores = np.zeros_like(m._scores)
    scores[idx] = rows["score"]
    exported = m._exported()
    return tuple(m._pairs(np.flatnonzero(cells)) for cells in (
        exported & ~found, found & ~exported, exported & found & (scores != m._scores)))

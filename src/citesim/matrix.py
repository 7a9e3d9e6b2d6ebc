"""Symmetric pair-score storage with an explicit N/A state.

Scores live on unordered pairs (p, q) with p <= q; one cell per pair, so
symmetry is structural rather than a runtime promise.  N/A marks pairs whose
measure is undefined (an empty required neighborhood); an N/A pair still
reads as 0.0 through :meth:`SimilarityMatrix.get` so numeric consumers never
see a sentinel, and :meth:`is_na` carries the distinction.

Backing storage is a packed upper-triangular float64 array up to
``dense_limit`` nodes, and a dict keyed by ordered pair above it (implicit
0.0 off the diagonal, implicit 1.0 on it).
"""
from __future__ import annotations

import csv
from itertools import repeat
from typing import Iterator, Optional

import numpy as np

from .errors import DataError

DENSE_NODE_LIMIT = 20_000

# Full 17-significant-digit rendering: round-trips any float64 exactly.
SCORE_FORMAT = "%.17g"
_ROW_FORMAT = f"%d,%d,{SCORE_FORMAT}\n"


class SimilarityMatrix:
    """Symmetric (p, q) -> score map over n nodes at iteration index k.

    ``bounded`` records which score contract is active: True means every
    non-N/A score lies in [0, 1]; raw-count measures set it False.
    """

    def __init__(self, n: int, k: int = 0, bounded: bool = True,
                 dense_limit: int = DENSE_NODE_LIMIT):
        if n < 0:
            raise ValueError("node count must be non-negative")
        self.n = n
        self.k = k
        self.bounded = bounded
        self.dense = n <= dense_limit
        if self.dense:
            size = n * (n + 1) // 2
            self._scores = np.zeros(size)
            self._na = np.zeros(size, dtype=bool)
            self._diag = np.array([self._idx(p, p) for p in range(n)], dtype=np.intp)
            self._scores[self._diag] = 1.0
        else:
            self._entries: dict[tuple[int, int], float] = {}
            self._na_set: set[tuple[int, int]] = set()

    def _idx(self, p: int, q: int) -> int:
        # packed row-major upper triangle, diagonal included; caller sorts p <= q
        return p * self.n - p * (p - 1) // 2 + (q - p)

    def _key(self, p: int, q: int) -> tuple[int, int]:
        if not (0 <= p < self.n and 0 <= q < self.n):
            raise ValueError(f"pair ({p}, {q}) out of range [0, {self.n})")
        return (p, q) if p <= q else (q, p)

    @classmethod
    def from_square(cls, square: np.ndarray, na: Optional[np.ndarray] = None,
                    k: int = 0, bounded: bool = True,
                    dense_limit: int = DENSE_NODE_LIMIT) -> "SimilarityMatrix":
        """Pack a full square score array (and optional N/A mask).

        Only the upper triangle including the diagonal is read; the caller
        is responsible for having symmetrized the square input first.
        """
        n = square.shape[0]
        if square.shape != (n, n):
            raise ValueError("square score array required")
        m = cls(n, k=k, bounded=bounded, dense_limit=dense_limit)
        iu = np.triu_indices(n)
        if m.dense:
            m._scores = np.ascontiguousarray(square[iu], dtype=np.float64)
            if na is not None:
                m._na = np.ascontiguousarray(na[iu], dtype=bool)
        else:
            for p, q in zip(*iu):
                p, q = int(p), int(q)
                v = float(square[p, q])
                if na is not None and na[p, q]:
                    m._na_set.add((p, q))
                elif p == q:
                    if v != 1.0:
                        m._entries[(p, q)] = v
                elif v != 0.0:
                    m._entries[(p, q)] = v
        return m

    # -- element access ----------------------------------------------------

    def get(self, p: int, q: int) -> float:
        """Score for the unordered pair; N/A pairs read as 0.0."""
        p, q = self._key(p, q)
        if self.dense:
            i = self._idx(p, q)
            return 0.0 if self._na[i] else float(self._scores[i])
        if (p, q) in self._na_set:
            return 0.0
        return self._entries.get((p, q), 1.0 if p == q else 0.0)

    def is_na(self, p: int, q: int) -> bool:
        p, q = self._key(p, q)
        if self.dense:
            return bool(self._na[self._idx(p, q)])
        return (p, q) in self._na_set

    def set(self, p: int, q: int, value: float):
        p, q = self._key(p, q)
        if self.dense:
            i = self._idx(p, q)
            self._scores[i] = value
            self._na[i] = False
        else:
            self._na_set.discard((p, q))
            default = 1.0 if p == q else 0.0
            if value == default:
                self._entries.pop((p, q), None)
            else:
                self._entries[(p, q)] = float(value)

    def set_na(self, p: int, q: int):
        p, q = self._key(p, q)
        if self.dense:
            i = self._idx(p, q)
            self._na[i] = True
            self._scores[i] = 0.0
        else:
            self._entries.pop((p, q), None)
            self._na_set.add((p, q))

    # -- bulk views ---------------------------------------------------------

    def _row_index(self, p: int) -> np.ndarray:
        # packed index of the pair (p, q) for every q
        q = np.arange(self.n)
        lo = np.minimum(p, q)
        return lo * self.n - lo * (lo - 1) // 2 + np.abs(q - p)

    def row_scores(self, p: int) -> np.ndarray:
        """All scores against p as a length-n array (N/A entries read 0.0)."""
        if not 0 <= p < self.n:
            raise ValueError(f"paper id {p} out of range [0, {self.n})")
        if self.dense:
            i = self._row_index(p)
            return np.where(self._na[i], 0.0, self._scores[i])
        return np.array([self.get(p, q) for q in range(self.n)])

    def row_na(self, p: int) -> np.ndarray:
        if not 0 <= p < self.n:
            raise ValueError(f"paper id {p} out of range [0, {self.n})")
        if self.dense:
            return self._na[self._row_index(p)]
        return np.array([self.is_na(p, q) for q in range(self.n)])

    def dense_scores(self) -> np.ndarray:
        """Full square score array; intended for desk-scale n."""
        out = np.zeros((self.n, self.n))
        if self.dense:
            iu = np.triu_indices(self.n)
            vals = np.where(self._na, 0.0, self._scores)
            out[iu] = vals
            out[iu[1], iu[0]] = vals
        else:
            for p in range(self.n):
                out[p] = self.row_scores(p)
        return out

    def dense_na(self) -> np.ndarray:
        out = np.zeros((self.n, self.n), dtype=bool)
        if self.dense:
            iu = np.triu_indices(self.n)
            out[iu] = self._na
            out[iu[1], iu[0]] = self._na
        else:
            for p, q in self._na_set:
                out[p, q] = True
                out[q, p] = True
        return out

    def offdiag_packed(self) -> tuple[np.ndarray, np.ndarray]:
        """(scores, na) over the n·(n-1)/2 unordered off-diagonal pairs."""
        if self.dense:
            mask = np.ones(self._scores.shape[0], dtype=bool)
            mask[self._diag] = False
            return self._scores[mask], self._na[mask]
        scores, na = [], []
        for p in range(self.n):
            for q in range(p + 1, self.n):
                scores.append(self.get(p, q))
                na.append(self.is_na(p, q))
        return np.array(scores), np.array(na, dtype=bool)

    def na_count(self) -> int:
        """Number of unordered off-diagonal N/A pairs."""
        _, na = self.offdiag_packed()
        return int(na.sum())

    def _packed_rows_above(self, threshold: float) -> Iterator[tuple[int, list, list]]:
        # per p, from the packed triangle: the q >= p and the scores of the
        # non-N/A pairs scoring above threshold, one numpy pass per row
        for p in range(self.n):
            lo = self._idx(p, p)
            hi = lo + self.n - p
            scores = self._scores[lo:hi]
            keep = np.flatnonzero(~self._na[lo:hi] & (scores > threshold))
            yield p, (keep + p).tolist(), scores[keep].tolist()

    def entries_above(self, threshold: float = 0.0) -> Iterator[tuple[int, int, float]]:
        """Yield (p, q, score) for p <= q, non-N/A, score > threshold."""
        if self.dense:
            for p, qs, scores in self._packed_rows_above(threshold):
                yield from zip(repeat(p), qs, scores)
            return
        for p in range(self.n):
            for q in range(p, self.n):
                if self.is_na(p, q):
                    continue
                s = self.get(p, q)
                if s > threshold:
                    yield p, q, s

    def same_bits(self, other: "SimilarityMatrix") -> bool:
        """True when every pair carries the identical float and N/A bit."""
        if self.n != other.n:
            return False
        if self.dense and other.dense:
            return (np.array_equal(self._scores, other._scores)
                    and np.array_equal(self._na, other._na))
        return all(
            self.get(p, q) == other.get(p, q)
            and self.is_na(p, q) == other.is_na(p, q)
            for p in range(self.n) for q in range(p, self.n)
        )


def write_matrix_csv(m: SimilarityMatrix, path, threshold: float = 0.0):
    """Write `p,q,score` rows (p <= q, score > threshold, N/A omitted)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("p,q,score\n")
        if not m.dense:
            fh.writelines(_ROW_FORMAT % row for row in m.entries_above(threshold))
            return
        for p, qs, scores in m._packed_rows_above(threshold):
            # one % per matrix row, over its (q, score) pairs interleaved
            values = [None] * (2 * len(qs))
            values[::2] = qs
            values[1::2] = scores
            fh.write((f"{p},%d,{SCORE_FORMAT}\n" * len(qs)) % tuple(values))


def read_matrix_csv(path) -> list[tuple[int, int, float]]:
    """Read rows written by :func:`write_matrix_csv`."""
    rows = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["p", "q", "score"]:
            raise DataError(f"{path}: expected header 'p,q,score', got {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise DataError(f"{path}:{lineno}: expected 3 fields")
            try:
                rows.append((int(row[0]), int(row[1]), float(row[2])))
            except ValueError:
                raise DataError(f"{path}:{lineno}: malformed row {row}") from None
    return rows

"""Seven link-based similarity measures over a citation graph.

Non-iterative measures count shared neighbors (common citers, common
references, and their weighted blend); iterative measures propagate scores
through neighbor pairs until a fixed point:

* in-link recursion: score flows through the papers citing p and q
* out-link recursion: through the papers p and q cite
* blended recursion: weighted sum of the two, weight ``lam``
* undirected recursion: through L(p) = I(p) | O(p), either with pairwise
  normalization (divide by |L(p)|*|L(q)|) or with the Jaccard update that
  adds the shared-neighbor ratio and weights the two cross sums by
  1/(|L(p) u L(q)|*|L(q)|) and 1/(|L(p) u L(q)|*|L(p)|)

All iterative updates are double-buffered: iteration k+1 reads only the
frozen iteration-k matrix, so the pair space can be partitioned across
threads freely.

Every matrix product has a 0/1 neighbor operator on one side, so it is
computed as sums of dense rows over neighbor sets (the partial-sums idea of
Lizorkin et al., VLDB 2008): O(|E| n) per product instead of O(n^3).  A
product's bits then depend only on the order in which each element adds
its nonzero terms, and that order is fixed here, in the index arrays that
``_spmm`` walks, not by numpy's build or by the thread schedule.  The
orders reproduce the bits of the dense products of earlier versions, as
numpy reduced them on its x86-64 baseline; tests/oracles.py keeps those
products as the reference:

* ``A @ B`` (the first product of each pairwise term, both products of the
  Jaccard recursion): ascending neighbor id, one accumulator.
* ``X @ A.T`` (the second product of each pairwise term): two accumulators,
  for even and odd neighbor ids, in the order :func:`_lanes` gives; their
  sums are then added.
* shared-neighbor counts: small integers, exact in any order.

Results are therefore bit-identical for any ``threads`` value.

Pairs whose required neighbor set is empty cannot be scored by the directed
recursions; they are marked N/A (and read as 0.0).  The undirected Jaccard
recursion scores every pair: an empty union just yields 0.
"""
from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from .errors import ConfigError
from .graph import CitationGraph
from .matrix import SCORE_FORMAT, SimilarityMatrix

MEASURES = (
    "cocitation",
    "coupling",
    "amsler",
    "simrank",
    "rvs_simrank",
    "prank",
    "crank",
)

NORMALIZATIONS = ("raw_count", "jaccard", "pairwise")

ITERATIVE_MEASURES = ("simrank", "rvs_simrank", "prank", "crank")

_ALLOWED_NORMS = {
    "cocitation": ("raw_count", "jaccard"),
    "coupling": ("raw_count", "jaccard"),
    "amsler": ("raw_count", "jaccard"),
    "simrank": ("pairwise",),
    "rvs_simrank": ("pairwise",),
    "prank": ("pairwise",),
    "crank": ("jaccard", "pairwise"),
}

# Counting measures default to the raw set-intersection reading; the
# undirected recursion defaults to its Jaccard form.
_DEFAULT_NORM = {
    "cocitation": "raw_count",
    "coupling": "raw_count",
    "amsler": "raw_count",
    "simrank": "pairwise",
    "rvs_simrank": "pairwise",
    "prank": "pairwise",
    "crank": "jaccard",
}


@dataclass(frozen=True)
class MeasureConfig:
    """Measure choice plus decay C, weight lam, budget k_max, tolerance epsilon.

    ``normalization=None`` resolves to the measure's default mode.  Invalid
    combinations raise :class:`ConfigError` at construction.
    """

    measure: str
    normalization: Optional[str] = None
    C: float = 0.8
    lam: float = 0.5
    k_max: int = 10
    epsilon: float = 1e-4

    def __post_init__(self):
        if self.measure not in MEASURES:
            raise ConfigError(f"unknown measure {self.measure!r}")
        if self.normalization is None:
            object.__setattr__(self, "normalization", _DEFAULT_NORM[self.measure])
        if self.normalization not in NORMALIZATIONS:
            raise ConfigError(f"unknown normalization {self.normalization!r}")
        if self.normalization not in _ALLOWED_NORMS[self.measure]:
            raise ConfigError(
                f"{self.measure} does not support {self.normalization} "
                f"normalization (allowed: {', '.join(_ALLOWED_NORMS[self.measure])})"
            )
        if not 0.0 <= self.C <= 1.0:
            raise ConfigError(f"C must be in [0,1], got {self.C}")
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigError(f"lambda must be in [0,1], got {self.lam}")
        if int(self.k_max) != self.k_max or self.k_max < 1:
            raise ConfigError(f"k_max must be an integer >= 1, got {self.k_max}")
        if not self.epsilon > 0.0:
            raise ConfigError(f"epsilon must be > 0, got {self.epsilon}")

    @property
    def iterative(self) -> bool:
        return self.measure in ITERATIVE_MEASURES

    @property
    def bounded(self) -> bool:
        return self.normalization != "raw_count"

    def label(self) -> str:
        return f"{self.measure}:{self.normalization}"


@dataclass(frozen=True)
class IterationReport:
    iterations_run: int
    converged: bool
    max_delta_per_iteration: tuple


# -- deterministic linear algebra ------------------------------------------

# Products run in fixed blocks of _BLOCK_ROWS output rows, the unit of work
# that --threads spreads over its pool.  Each output element is one sum in
# the order of _spmm's index arrays, whatever block or worker computes it.
_BLOCK_ROWS = 64


def _spmm(lanes, b: np.ndarray, threads: int = 1) -> np.ndarray:
    """Row p of the result: the rows of ``b`` that row p of the operator
    names, summed.

    The operator is given as a tuple of lanes, each CSR ``(indptr,
    indices)`` over the same rows.  A lane's sum starts at 0.0 and adds b's
    rows in the order of its index array; the lane sums are then added,
    first to last.
    """
    n = lanes[0][0].shape[0] - 1
    out = np.empty((n, b.shape[1]))

    def block(r0: int):
        r1 = min(r0 + _BLOCK_ROWS, n)
        dest = out[r0:r1]
        acc = np.empty_like(dest)
        for lane, (indptr, indices) in enumerate(lanes):
            # rows by descending neighbor count, so that the rows with more
            # than t neighbors are a prefix of acc
            order = np.argsort(indptr[r0:r1] - indptr[r0 + 1:r1 + 1], kind="stable")
            starts = indptr[r0:r1][order]
            counts = indptr[r0 + 1:r1 + 1][order] - starts
            acc.fill(0.0)
            for t in range(counts.max(initial=0)):
                m = np.count_nonzero(counts > t)
                acc[:m] += b[indices[starts[:m] + t]]
            if lane:
                dest[order] += acc
            else:
                dest[order] = acc

    starts = range(0, n, _BLOCK_ROWS)
    if threads <= 1:
        for r0 in starts:
            block(r0)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(block, starts))
    return out


def _lanes(op) -> tuple:
    """Split a square operator A into the two lanes that sum ``X @ A.T``.

    Element (i, k) of X @ A.T sums X[i, j] over j in row k of A.  Lane 0
    takes the even j, lane 1 the odd j.  Each lane adds the blocks of 8
    consecutive ids in ascending order, the ids within a block in
    descending order, and the last n % 8 ids in ascending order.  That is
    how numpy's dot-product loop on its x86-64 baseline (2 float64 lanes,
    4 vectors unrolled) reduced the contiguous j axis of the dense products.
    """
    indptr, indices = op
    n = indptr.shape[0] - 1
    full = n - n % 8
    key = np.where(indices < full, indices + 7 - 2 * (indices % 8), indices)
    rows = np.repeat(np.arange(n), np.diff(indptr))
    lanes = []
    for parity in (0, 1):
        sel = indices % 2 == parity
        lane_ptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows[sel], minlength=n), out=lane_ptr[1:])
        lanes.append((lane_ptr, indices[sel][np.lexsort((key[sel], rows[sel]))]))
    return tuple(lanes)


def _shared_counts(op, threads: int) -> np.ndarray:
    """|row p & row q| for every pair of op's rows.

    The sums are small integers, so they are exact in any order.
    """
    indptr, indices = op
    n = indptr.shape[0] - 1
    at = np.zeros((n, n))  # transpose of op's 0/1 matrix A, so this is A @ A.T
    at[indices, np.repeat(np.arange(n), np.diff(indptr))] = 1.0
    return _spmm((op,), at, threads)


def _degrees(op) -> np.ndarray:
    return np.diff(op[0]).astype(float)


def _mirror(a: np.ndarray) -> np.ndarray:
    # One canonical float per unordered pair: the upper-triangle value wins.
    # The two float expressions for (p,q) and (q,p) agree only to rounding,
    # and the storage contract is exact symmetry.  Works in place.
    for p in range(1, a.shape[0]):
        a[p, :p] = a[:p, p]
    return a


def _guarded_inverse(denom: np.ndarray) -> np.ndarray:
    pos = denom > 0.0
    return np.where(pos, 1.0 / np.where(pos, denom, 1.0), 0.0)


# -- non-iterative measures -------------------------------------------------


def _shared_neighbor_scores(g, view: str, normalization: str, threads: int):
    op = g.csr(view)
    scores = _shared_counts(op, threads)
    if normalization != "raw_count":
        deg = _degrees(op)
        scores *= _guarded_inverse(deg[:, None] + deg[None, :] - scores)
    np.fill_diagonal(scores, 1.0)
    return _mirror(scores)


def _require(cfg: MeasureConfig, measure: str):
    if cfg.measure != measure:
        raise ConfigError(f"config is for {cfg.measure}, expected {measure}")


def cocitation(g: CitationGraph, cfg: MeasureConfig, threads: int = 1) -> SimilarityMatrix:
    """Shared-citer counts |I(p) & I(q)|, raw or Jaccard-normalized."""
    _require(cfg, "cocitation")
    scores = _shared_neighbor_scores(g, "in", cfg.normalization, threads)
    return SimilarityMatrix.from_square(scores, k=0, bounded=cfg.bounded)


def coupling(g: CitationGraph, cfg: MeasureConfig, threads: int = 1) -> SimilarityMatrix:
    """Shared-reference counts |O(p) & O(q)|, raw or Jaccard-normalized."""
    _require(cfg, "coupling")
    scores = _shared_neighbor_scores(g, "out", cfg.normalization, threads)
    return SimilarityMatrix.from_square(scores, k=0, bounded=cfg.bounded)


def amsler(g: CitationGraph, cfg: MeasureConfig, threads: int = 1) -> SimilarityMatrix:
    """lam * shared-citer score + (1 - lam) * shared-reference score."""
    _require(cfg, "amsler")
    s_in = _shared_neighbor_scores(g, "in", cfg.normalization, threads)
    s_out = _shared_neighbor_scores(g, "out", cfg.normalization, threads)
    scores = cfg.lam * s_in + (1.0 - cfg.lam) * s_out
    np.fill_diagonal(scores, 1.0)
    return SimilarityMatrix.from_square(_mirror(scores), k=0, bounded=cfg.bounded)


# -- N/A structure ----------------------------------------------------------


def na_mask(g: CitationGraph, cfg: MeasureConfig) -> np.ndarray:
    """Square bool mask of pairs the measure cannot score.

    The mask depends only on graph structure (which neighbor sets are
    empty), so it is constant across iterations.  The diagonal is never
    N/A.  The blended recursion is N/A only where both the in-link and the
    out-link recursions are; the undirected Jaccard recursion scores
    everything.
    """
    n = g.n
    din = np.array([len(s) for s in g.in_index], dtype=float)
    dout = np.array([len(s) for s in g.out_index], dtype=float)

    def empty_pairs(deg):
        e = deg == 0
        return e[:, None] | e[None, :]

    if cfg.measure == "simrank":
        mask = empty_pairs(din)
    elif cfg.measure == "rvs_simrank":
        mask = empty_pairs(dout)
    elif cfg.measure == "prank":
        mask = empty_pairs(din) & empty_pairs(dout)
    elif cfg.measure == "crank" and cfg.normalization == "pairwise":
        dund = np.array([len(s) for s in g.und_index], dtype=float)
        mask = empty_pairs(dund)
    else:
        mask = np.zeros((n, n), dtype=bool)
    np.fill_diagonal(mask, False)
    return mask


# -- iterative measures ------------------------------------------------------


def _make_step(g: CitationGraph, cfg: MeasureConfig, threads: int) -> Callable:
    """Build the double-buffered update: new square scores from frozen old."""
    n = g.n
    C = cfg.C
    if cfg.measure == "crank" and cfg.normalization == "jaccard":
        und = g.csr("undirected")
        deg = _degrees(und)
        inter = _shared_counts(und, threads)  # |L(p) & L(q)|
        inv_union = _guarded_inverse(deg[:, None] + deg[None, :] - inter)
        jac = inter * inv_union
        inv_deg = _guarded_inverse(deg)
        w1 = inv_union * inv_deg[None, :]  # 1 / (|L u| * |L(q)|)
        w2 = inv_union * inv_deg[:, None]  # 1 / (|L u| * |L(p)|)
        del inter, inv_union
        nonzeros = (np.repeat(np.arange(n), np.diff(und[0])), und[1])

        def step(prev: np.ndarray) -> np.ndarray:
            # G = prev @ U sums prev over q' in L(q); prev is exactly
            # symmetric, so U @ prev is G's transpose.  Zeroing it at U's
            # nonzeros (the same positions in G, as U is symmetric), where
            # x is in L(q), restricts the second product's outer sum to
            # L(p) \ L(q).  The second cross
            # sum is the transpose of the first by symmetry of prev, so
            # one product serves both.
            gt = _spmm((und,), prev, threads)
            gt[nonzeros] = 0.0
            s1 = _spmm((und,), gt.T.copy(), threads)
            # C * (jac + (w1 * S1 + w2 * S1.T)), rounded in that order
            cross = np.multiply(w2, s1.T, out=gt)
            s1 *= w1
            s1 += cross
            s1 += jac
            s1 *= C
            np.fill_diagonal(s1, 1.0)
            return _mirror(s1)

        return step

    if cfg.measure == "simrank":
        terms = [("in", 1.0)]
    elif cfg.measure == "rvs_simrank":
        terms = [("out", 1.0)]
    elif cfg.measure == "prank":
        terms = [("in", cfg.lam), ("out", 1.0 - cfg.lam)]
    elif cfg.measure == "crank":
        terms = [("undirected", 1.0)]
    else:
        raise ConfigError(f"{cfg.measure} has no iterative form")

    prepared = []
    for view, w in terms:
        op = g.csr(view)
        prepared.append(((op,), _lanes(op), w, _degrees(op)))

    def step(prev: np.ndarray) -> np.ndarray:
        # S = (A @ prev) @ A.T for the view's 0/1 matrix A; the second
        # product is computed as its transpose, A @ (A @ prev).T.
        out = np.zeros((n, n))
        for ascending, lanes, w, deg in prepared:
            st = _spmm(lanes, _spmm(ascending, prev, threads).T.copy(), threads)
            for r0 in range(0, n, _BLOCK_ROWS):
                r1 = min(r0 + _BLOCK_ROWS, n)
                # w * (C * S * inv), rounded in that order; the inverse
                # degree product is symmetric, so it serves S.T as well
                blk = st[r0:r1]
                blk *= C
                blk *= _guarded_inverse(np.outer(deg[r0:r1], deg))
                blk *= w
            out += st.T
        np.fill_diagonal(out, 1.0)
        return _mirror(out)

    return step


def iteration_scores(
    g: CitationGraph,
    cfg: MeasureConfig,
    threads: int = 1,
    initial: Optional[np.ndarray] = None,
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (k, square scores after iteration k) for k = 1..k_max.

    Runs the full budget with no epsilon stop; callers wanting early
    termination break out themselves.  ``initial`` replaces the identity
    start (its diagonal is forced to 1); the yielded arrays are fresh per
    iteration and safe to keep.
    """
    if not cfg.iterative:
        raise ConfigError(f"{cfg.measure} is not an iterative measure")
    step = _make_step(g, cfg, threads)
    if initial is None:
        prev = np.eye(g.n)
    else:
        prev = np.array(initial, dtype=float)
        if prev.shape != (g.n, g.n):
            raise ValueError(f"initial scores must be {g.n}x{g.n}")
        np.fill_diagonal(prev, 1.0)
        prev = _mirror(prev)
    for k in range(1, cfg.k_max + 1):
        cur = step(prev)
        yield k, cur
        prev = cur


def _run_iterations(g, cfg, threads):
    na = na_mask(g, cfg)
    deltas = []
    converged = False
    prev = np.eye(g.n)
    cur = prev
    for _, cur in iteration_scores(g, cfg, threads):
        delta = float(np.max(np.abs(cur - prev))) if cur.size else 0.0
        deltas.append(delta)
        prev = cur
        if delta < cfg.epsilon:
            converged = True
            break
    k_run = len(deltas)
    m = SimilarityMatrix.from_square(cur, na=na, k=k_run, bounded=True)
    return m, IterationReport(k_run, converged, tuple(deltas))


def iterate_pairwise(
    g: CitationGraph, cfg: MeasureConfig, threads: int = 1
) -> tuple[SimilarityMatrix, IterationReport]:
    """Run a pairwise-normalized recursion until k_max or max delta < epsilon.

    Start is the identity; each iteration divides the double sum of
    previous-iteration scores over the neighbor-set product by
    |X(p)|*|X(q)| and scales by C.  Pairs with an empty required neighbor
    set stay numerically 0 and are marked N/A off the diagonal.
    """
    if cfg.normalization != "pairwise":
        raise ConfigError(
            f"pairwise iteration requires pairwise normalization, got {cfg.normalization}"
        )
    return _run_iterations(g, cfg, threads)


def crank_jaccard(
    g: CitationGraph, cfg: MeasureConfig, threads: int = 1
) -> tuple[SimilarityMatrix, IterationReport]:
    """Run the undirected Jaccard recursion until k_max or delta < epsilon.

    Update per pair: C times [shared-neighbor ratio, plus the two cross
    sums over L(p) \\ L(q) x L(q) and L(p) x L(q) \\ L(p), weighted by
    1/(|union| |L(q)|) and 1/(|union| |L(p)|)].  New scores are computed
    wholly from the previous iteration's store, then swapped in.  Every
    pair gets a number: an empty union scores 0, never N/A.
    """
    _require(cfg, "crank")
    if cfg.normalization != "jaccard":
        raise ConfigError("crank_jaccard requires jaccard normalization")
    return _run_iterations(g, cfg, threads)


def converge(
    g: CitationGraph, cfg: MeasureConfig, threads: int = 1
) -> tuple[SimilarityMatrix, IterationReport]:
    """Dispatch to the iterative driver for cfg, with k_max as a hard cap."""
    if not cfg.iterative:
        raise ConfigError(f"{cfg.measure} does not iterate; call compute instead")
    if cfg.C == 1.0:
        warnings.warn(
            "C=1 gives no decay: the fixed point need not be unique and "
            "convergence is not guaranteed",
            RuntimeWarning,
            stacklevel=2,
        )
    if cfg.measure == "crank" and cfg.normalization == "jaccard":
        return crank_jaccard(g, cfg, threads)
    return iterate_pairwise(g, cfg, threads)


def compute(
    g: CitationGraph, cfg: MeasureConfig, threads: int = 1
) -> tuple[SimilarityMatrix, Optional[IterationReport]]:
    """Run any configured measure; the report is None for one-shot measures."""
    if cfg.measure == "cocitation":
        return cocitation(g, cfg, threads), None
    if cfg.measure == "coupling":
        return coupling(g, cfg, threads), None
    if cfg.measure == "amsler":
        return amsler(g, cfg, threads), None
    return converge(g, cfg, threads)


# -- ranking ----------------------------------------------------------------


@dataclass(frozen=True)
class TopKEntry:
    paper: int
    score: float
    zero_fill: bool = False


def top_k(
    m: SimilarityMatrix, query: int, count: int, zero_fill: bool = True
) -> list:
    """Up to ``count`` best partners for ``query``, best first.

    The query itself and N/A pairs are never candidates.  Ties break by
    ascending paper id.  Exact-zero scores appear only as flagged filler
    when fewer than ``count`` positive partners exist, and only if
    ``zero_fill`` is on.
    """
    if not 0 <= query < m.n:
        raise ValueError(f"query id {query} out of range [0, {m.n})")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    scores = m.row_scores(query)
    na = m.row_na(query)
    positive = []
    zeros = []
    for q in range(m.n):
        if q == query or na[q]:
            continue
        s = float(scores[q])
        if s > 0.0:
            positive.append((q, s))
        elif s == 0.0:
            zeros.append(q)
    positive.sort(key=lambda t: (-t[1], t[0]))
    result = [TopKEntry(q, s) for q, s in positive[:count]]
    if zero_fill:
        for q in zeros:
            if len(result) >= count:
                break
            result.append(TopKEntry(q, 0.0, zero_fill=True))
    return result


# -- measure-identity checks -------------------------------------------------


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    max_abs_diff: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class ReductionReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list:
        return [c for c in self.checks if not c.passed]


def reduction_check(g: CitationGraph, threads: int = 1, tolerance: float = 1e-12) -> ReductionReport:
    """Verify the collapse identities tying the recursions together.

    (a) blended recursion at k=1, C=1, lam=1 equals the in-link recursion at
        k=1, C=1, and both equal the pairwise-normalized shared-citer counts
        |I(p) & I(q)| / (|I(p)| |I(q)|);
    (b) same at lam=0 against the out-link recursion;
    (c) blended recursion with lam=1 equals the in-link recursion at any k;
    (d) with lam=0, the out-link recursion at any k.

    N/A pairs compare by their numeric value 0.
    """
    # epsilon far below any representable delta: runs stop only at k_max,
    # so both sides of each identity see the same iteration count
    def run(measure, lam, k):
        cfg = MeasureConfig(measure, "pairwise", C=1.0 if k == 1 else 0.8,
                            lam=lam, k_max=k, epsilon=1e-300)
        mat, _ = iterate_pairwise(g, cfg, threads)
        return mat.dense_scores()

    op = g.csr("in")
    counts = _shared_counts(op, threads)
    deg = _degrees(op)
    denom = np.outer(deg, deg)
    pos = denom > 0.0
    ref = np.where(pos, counts / np.where(pos, denom, 1.0), 0.0)
    np.fill_diagonal(ref, 1.0)

    sim1 = run("simrank", 0.5, 1)
    rvs1 = run("rvs_simrank", 0.5, 1)
    checks = [
        _chain_check(
            "blend(k=1,C=1,lam=1) = in-link(k=1,C=1) = normalized shared-citer counts",
            [run("prank", 1.0, 1), sim1, ref],
            tolerance,
        ),
        _chain_check(
            "blend(k=1,C=1,lam=0) = out-link(k=1,C=1)",
            [run("prank", 0.0, 1), rvs1],
            tolerance,
        ),
        _chain_check(
            "blend(lam=1,k=5) = in-link(k=5)",
            [run("prank", 1.0, 5), run("simrank", 0.5, 5)],
            tolerance,
        ),
        _chain_check(
            "blend(lam=0,k=5) = out-link(k=5)",
            [run("prank", 0.0, 5), run("rvs_simrank", 0.5, 5)],
            tolerance,
        ),
    ]
    return ReductionReport(tuple(checks))


def _chain_check(name, mats, tol):
    diff = 0.0
    for a, b in zip(mats, mats[1:]):
        d = float(np.max(np.abs(a - b))) if a.size else 0.0
        diff = max(diff, d)
    return IdentityCheck(name, diff, tol, diff <= tol)


def write_iteration_csv(report: IterationReport, path):
    """Write `iteration,max_delta` rows, iterations numbered from 1."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("iteration,max_delta\n")
        for i, d in enumerate(report.max_delta_per_iteration, start=1):
            fh.write(f"{i},{SCORE_FORMAT % d}\n")

"""Seven link-based similarity measures over a citation graph.

Each measure sums over one or two neighbor views, each with a weight: the
in-links I(p), the out-links O(p), or the undirected view L(p) = I(p) | O(p).
These ``(view, weight)`` terms are written once, in :func:`_terms`.
Non-iterative measures count shared neighbors in each view; iterative
measures propagate scores through neighbor pairs until a fixed point, either
with pairwise normalization (divide by |X(p)|*|X(q)| in each view X) or,
over L, with the Jaccard update that adds the shared-neighbor ratio and
weights the two cross sums by 1/(|L(p) u L(q)|*|L(q)|) and
1/(|L(p) u L(q)|*|L(p)|).

All iterative updates are double-buffered: iteration k+1 reads only the
frozen iteration-k matrix, so the pair space can be partitioned across
threads freely.

Every matrix product has a 0/1 neighbor operator on one side, so it is
computed as sums of dense rows over neighbor sets (the partial-sums idea of
Lizorkin et al., VLDB 2008): O(|E| n) per product instead of O(n^3).  The
structure is paid for once: each operator's gather plan (:func:`_plan`:
per block of rows, the rows by neighbor count and one gather index per
neighbor slot) is built when a run starts, and every product of every
iteration only gathers rows and adds them.

A product's bits depend only on the order in which each element adds its
nonzero terms, and that order is fixed here, in the gather plans, not by
numpy's build or by the thread schedule.  The orders reproduce the bits of
the dense products of earlier versions, as numpy reduced them on its
x86-64 baseline; tests/oracles.py keeps those products as the reference:

* ``A @ B`` (the first product of each pairwise term, both products of the
  Jaccard recursion): ascending neighbor id, one accumulator.
* ``X @ A.T`` (the second product of each pairwise term): two accumulators,
  for even and odd neighbor ids, in the order :func:`_lanes` gives; their
  sums are then added.
* shared-neighbor counts: small integers, exact in any order.

The pairwise recursions keep one float per unordered pair, S[p, q] for
p < q, and copy it onto (q, p).  So their second product is summed, scaled
and added up over the lower triangle of S.T only (for rows r0:r1, columns
:r1): each kept element is the same sum as over the full square, at about
half the work.  Each row block is scaled and added up in the pass that
summed it.  The Jaccard recursion's union counts are exact, so its second
cross weight is the first one's transpose bit for bit, and its update is
exactly symmetric as summed.  It holds no weight square: it keeps the
shared-neighbor counts, in the smallest unsigned type that holds the
largest degree (one byte per pair below 256), and once both products of a
step are summed, one pass rebuilds each row block's weights from the
counts and the degrees, with the operations of a whole-square setup.  The
last pass of either recursion ends each row block with :func:`_close_rows`
(1.0 on its diagonal, its lower triangle copied onto the upper one), as an
``initial`` start is closed on its transpose, and gives the block's largest
change from the previous iterate, so a run's delta costs no pass of its own.

A run (one ``iteration_scores`` generator, or one call of a one-shot
measure) opens at most one thread pool and shuts it down when it ends.
With ``threads > 1`` the calling thread and ``threads - 1`` workers take
row blocks from a shared queue; ``threads`` is first capped at the number
of row blocks, so a small graph starts no idle workers.  Each thread sums
its blocks in buffers of its own, allocated once per run
(:func:`_block_pool`).  Results are bit-identical for any ``threads``
value.  The blocks are many short numpy calls that hold the interpreter
lock for much of their time: on a shared 2-core x86-64 host, two threads
ran crank's compute 1.76-1.96x as fast as one at n=2400, but at n=600 no
faster than one (crank 133 against 138 ms, prank 139 against 202 ms).

Pairs whose required neighbor set is empty cannot be scored by the directed
recursions; they are marked N/A (and read as 0.0).  The undirected Jaccard
recursion scores every pair: an empty union just yields 0.
"""
from __future__ import annotations

import queue
import threading
import warnings
from contextlib import closing, contextmanager
from dataclasses import dataclass
from functools import cache, partial, reduce
from operator import iand
from typing import Callable, Iterator, Optional

import numpy as np

from .errors import ConfigError
from .graph import CitationGraph
from .matrix import SCORE_FORMAT, SimilarityMatrix

# Per measure, the normalizations it supports; the first is its default.
# Counting measures default to the raw set-intersection reading; the
# undirected recursion defaults to its Jaccard form.
_NORMS = {
    "cocitation": ("raw_count", "jaccard"),
    "coupling": ("raw_count", "jaccard"),
    "amsler": ("raw_count", "jaccard"),
    "simrank": ("pairwise",),
    "rvs_simrank": ("pairwise",),
    "prank": ("pairwise",),
    "crank": ("jaccard", "pairwise"),
}

MEASURES = tuple(_NORMS)

NORMALIZATIONS = ("raw_count", "jaccard", "pairwise")

ITERATIVE_MEASURES = ("simrank", "rvs_simrank", "prank", "crank")


def _terms(cfg: MeasureConfig) -> list:
    """The ``(view, weight)`` terms that a measure sums over."""
    return {
        "cocitation": [("in", 1.0)],
        "coupling": [("out", 1.0)],
        "amsler": [("in", cfg.lam), ("out", 1.0 - cfg.lam)],
        "simrank": [("in", 1.0)],
        "rvs_simrank": [("out", 1.0)],
        "prank": [("in", cfg.lam), ("out", 1.0 - cfg.lam)],
        "crank": [("undirected", 1.0)],
    }[cfg.measure]


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
            object.__setattr__(self, "normalization", _NORMS[self.measure][0])
        if self.normalization not in NORMALIZATIONS:
            raise ConfigError(f"unknown normalization {self.normalization!r}")
        if self.normalization not in _NORMS[self.measure]:
            raise ConfigError(
                f"{self.measure} does not support {self.normalization} "
                f"normalization (allowed: {', '.join(_NORMS[self.measure])})"
            )
        for name, kind, valid, rule in (
            ("C", float, lambda v: 0.0 <= v <= 1.0, "C must be in [0,1]"),
            ("lam", float, lambda v: 0.0 <= v <= 1.0, "lambda must be in [0,1]"),
            ("k_max", int, lambda v: v >= 1, "k_max must be an integer >= 1"),
            ("epsilon", float, lambda v: v > 0.0, "epsilon must be > 0"),
        ):
            # stored converted, and only when conversion keeps the value
            value = getattr(self, name)
            try:
                converted = kind(value)
            except (TypeError, ValueError, OverflowError):
                converted = None
            if converted is None or converted != value or not valid(converted):
                raise ConfigError(f"{rule}, got {value!r}")
            object.__setattr__(self, name, converted)

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
# that --threads shares out.  Each output element is one sum in the order of
# its plan's gather indices, whatever block or thread computes it, so the
# block size changes no bit.  With blocks of 300 rows, compute at n=600 on
# one thread took 1.19-1.25x as long for crank and 1.11-1.16x for prank, as
# a block's accumulator and gathers outgrow the cache.
_BLOCK_ROWS = 64


def _plan(lanes) -> list:
    """Gather plan of an operator, built once and reused by every product.

    The operator is given as a tuple of lanes, each CSR ``(indptr,
    indices)`` over the same rows.  The plan is a list of blocks ``(r0, r1,
    steps)`` of _BLOCK_ROWS rows; per lane, ``steps`` holds the block's rows
    by descending neighbor count (so that the rows with more than t
    neighbors are a prefix) and, for each neighbor slot t, the ids those
    rows name in that slot.
    """
    n = lanes[0][0].shape[0] - 1
    blocks = []
    for r0 in range(0, n, _BLOCK_ROWS):
        r1 = min(r0 + _BLOCK_ROWS, n)
        steps = []
        for indptr, indices in lanes:
            order = np.argsort(indptr[r0:r1] - indptr[r0 + 1:r1 + 1], kind="stable")
            starts = indptr[r0:r1][order]
            counts = indptr[r0 + 1:r1 + 1][order] - starts
            gathers = [indices[starts[:np.count_nonzero(counts > t)] + t]
                       for t in range(counts.max(initial=0))]
            steps.append((order, gathers))
        blocks.append((r0, r1, steps))
    return blocks


def _block_sums(steps, src: np.ndarray, dest: np.ndarray, acc: np.ndarray) -> np.ndarray:
    """Row i of ``dest``: the rows of ``src`` that row i of one plan block
    names, summed.

    A lane's sum starts at 0.0 in ``acc``, a scratch block of ``dest``'s
    shape, and adds src's rows in the order of its gathers; the lane sums
    are then added, first to last.
    """
    for lane, (order, gathers) in enumerate(steps):
        acc.fill(0.0)
        for idx in gathers:
            rows = acc[:idx.shape[0]]
            np.add(rows, src[idx], rows)
        if lane:
            dest[order] += acc
        else:
            dest[order] = acc
    return dest


@contextmanager
def _block_pool(threads: int, n: int):
    """Yield ``each_block(fn, plan, *args)``, which calls ``fn(r0, r1, steps,
    scratch, *args)`` for every block of ``plan`` and returns when all are
    done.

    One run over n nodes opens one of these and passes it down to all its
    products, whose plans have ceil(n / _BLOCK_ROWS) blocks each; no more
    threads than that are used, whatever ``threads`` asks for.  The calling
    thread and ``threads - 1`` helpers of one executor take blocks from a
    shared queue: a helper that wakes late takes fewer blocks instead of
    holding the product up.  The executor is shut down when the ``with``
    block ends.  Without helpers (one thread, or at most one block) there
    is no executor, and :mod:`concurrent.futures` is not even imported: the
    calling thread takes every block.  A ``threads`` that is not an integer
    >= 1 raises :class:`ConfigError`.

    ``each_block`` returns what ``fn`` returned for each block, in no
    particular order.

    ``scratch(slot, rows, cols)`` is a contiguous rows x cols view of one of
    the calling thread's block buffers.  Each thread allocates a slot's
    buffer, room for _BLOCK_ROWS x n floats, at its first use in the run,
    and keeps it until the run ends, so a product does not allocate one per
    block; two threads never share one.
    """
    if not isinstance(threads, (int, np.integer)) or threads < 1:
        raise ConfigError(f"threads must be an integer >= 1, got {threads!r}")
    helpers = min(threads, -(-n // _BLOCK_ROWS)) - 1  # -1 when n is 0
    local = threading.local()
    pool = None

    def scratch(slot, rows, cols):
        buffers = local.__dict__.setdefault("buffers", {})
        if slot not in buffers:
            buffers[slot] = np.empty(_BLOCK_ROWS * n)
        return buffers[slot][:rows * cols].reshape(rows, cols)

    def each_block(fn, plan, *args):
        # the queue holds the calls, so drain refers to no square: a
        # helper cancelled before it started stays in the pool's queue
        # until a worker takes it, and would keep them alive meanwhile
        jobs = queue.SimpleQueue()
        for r0, r1, steps in plan:
            jobs.put(partial(fn, r0, r1, steps, scratch, *args))
        results = []

        def drain():
            while True:
                try:
                    job = jobs.get_nowait()
                except queue.Empty:
                    return
                results.append(job())

        started = [pool.submit(drain) for _ in range(helpers)]
        drain()
        for helper in started:
            # a helper that has not started would find the queue empty
            if not helper.cancel():
                helper.result()
        return results

    if helpers <= 0:
        yield each_block
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=helpers) as pool:
        yield each_block


def _spmm(plan, b: np.ndarray, out: np.ndarray, each_block) -> np.ndarray:
    """Row p of ``out``: the rows of ``b`` that row p of the operator
    names, summed.  ``out`` may be a transposed view, which writes the
    product's transpose."""
    def block(r0, r1, steps, scratch):
        _block_sums(steps, b, out[r0:r1], scratch(0, r1 - r0, out.shape[1]))

    each_block(block, plan)
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


def _shared_counts(op, plan, each_block, dtype=float) -> np.ndarray:
    """|row p & row q| for every pair of op's rows, as ``dtype``; ``plan``
    is ``_plan((op,))``, which the caller builds once per run.

    The sums are small integers, so they are exact in any order, and so is
    their cast to any type that holds the largest degree.
    """
    indptr, indices = op
    n = indptr.shape[0] - 1
    at = np.zeros((n, n))  # transpose of op's 0/1 matrix A, so this is A @ A.T
    at[indices, np.repeat(np.arange(n), np.diff(indptr))] = 1.0
    return _spmm(plan, at, np.empty((n, n), dtype), each_block)


def _degrees(op) -> np.ndarray:
    return np.diff(op[0]).astype(float)


@cache
def _upper() -> np.ndarray:
    # built at first use: numpy work at import grows every process's RSS
    return np.triu(np.ones((_BLOCK_ROWS, _BLOCK_ROWS), dtype=bool), 1)


def _close_rows(square: np.ndarray, r0: int, r1: int):
    """Set the diagonal of rows r0:r1 of a square to 1.0 and copy their
    lower triangle, in their first r1 columns, onto the upper one.  Once two
    iterates are closed, those columns hold every change between them."""
    square[:r0, r0:r1] = square[r0:r1, :r0].T
    diag = square[r0:r1, r0:r1]
    np.fill_diagonal(diag, 1.0)
    np.copyto(diag, diag.T, where=_upper()[:r1 - r0, :r1 - r0])


def _guarded_inverse(denom: np.ndarray) -> np.ndarray:
    return np.divide(1.0, denom, out=np.zeros_like(denom), where=denom > 0.0)


def _block_delta(cur: np.ndarray, prev: np.ndarray, buf: np.ndarray) -> float:
    """max |cur - prev| over one block, in ``buf`` of the block's shape; a
    NaN propagates."""
    diff = np.subtract(cur, prev, out=buf)
    return np.max(np.abs(diff, out=diff), initial=0.0)


# -- non-iterative measures -------------------------------------------------


def _one_shot(g: CitationGraph, cfg: MeasureConfig, threads: int) -> SimilarityMatrix:
    """Sum over the measure's terms of weight * shared-neighbor score, raw
    or Jaccard-normalized, with 1 on the diagonal."""
    scores = 0.0
    with _block_pool(threads, g.n) as each_block:
        for view, w in _terms(cfg):
            op = g.csr(view)
            shared = _shared_counts(op, _plan((op,)), each_block)
            if cfg.normalization == "jaccard":
                deg = _degrees(op)
                shared *= _guarded_inverse(deg[:, None] + deg[None, :] - shared)
            scores = scores + w * shared
    np.fill_diagonal(scores, 1.0)
    return SimilarityMatrix.from_square(scores, k=0, bounded=cfg.bounded)


def _require(cfg: MeasureConfig, measure: str):
    if cfg.measure != measure:
        raise ConfigError(f"config is for {cfg.measure}, expected {measure}")


def cocitation(g: CitationGraph, cfg: MeasureConfig, threads: int = 1) -> SimilarityMatrix:
    """Shared-citer counts |I(p) & I(q)|, raw or Jaccard-normalized."""
    _require(cfg, "cocitation")
    return _one_shot(g, cfg, threads)


def coupling(g: CitationGraph, cfg: MeasureConfig, threads: int = 1) -> SimilarityMatrix:
    """Shared-reference counts |O(p) & O(q)|, raw or Jaccard-normalized."""
    _require(cfg, "coupling")
    return _one_shot(g, cfg, threads)


def amsler(g: CitationGraph, cfg: MeasureConfig, threads: int = 1) -> SimilarityMatrix:
    """lam * shared-citer score + (1 - lam) * shared-reference score."""
    _require(cfg, "amsler")
    return _one_shot(g, cfg, threads)


# -- N/A structure ----------------------------------------------------------


def na_mask(g: CitationGraph, cfg: MeasureConfig) -> np.ndarray:
    """Square bool mask of pairs the measure cannot score.

    A pairwise-normalized recursion leaves p, q N/A where, in every view
    of the measure's :func:`_terms` (whatever its weight), p or q has no
    neighbors; other measures score everything.  The mask depends only on
    graph structure, so it is constant across iterations.  The diagonal is
    never N/A.
    """
    if cfg.normalization != "pairwise":
        return np.zeros((g.n, g.n), dtype=bool)

    def empty_pairs(view):
        empty = np.diff(g.csr(view)[0]) == 0
        return empty[:, None] | empty[None, :]

    mask = reduce(iand, [empty_pairs(view) for view, _ in _terms(cfg)])
    np.fill_diagonal(mask, False)
    return mask


# -- iterative measures ------------------------------------------------------


def _make_step(g: CitationGraph, cfg: MeasureConfig, each_block) -> Callable:
    """Build the double-buffered update ``step(prev, from_identity)``: the
    new square scores from frozen old, and max |new - prev|.

    ``from_identity`` says that ``prev`` is the identity start.  The
    operators' gather plans are built here, once; each step only gathers
    and adds, block by block through ``each_block``, and each block also
    gives its part of the delta.  Max is exact in any order, so the delta
    does not depend on the thread schedule.
    """
    n = g.n
    C = cfg.C
    if cfg.normalization == "jaccard":
        # the Jaccard recursion is crank's, over its one view
        [(view, _)] = _terms(cfg)
        und = g.csr(view)
        deg = _degrees(und)
        inv_deg = _guarded_inverse(deg)
        plan = _plan((und,))
        # |L(p) & L(q)| <= the largest degree, kept in the smallest unsigned
        # type that holds that: an eighth of a float square while it fits a byte
        count_type = np.min_scalar_type(int(np.diff(und[0]).max(initial=0)))
        counts = _shared_counts(und, plan, each_block, count_type)
        nonzeros = (np.repeat(np.arange(n), np.diff(und[0])), und[1])
        s1 = np.empty((n, n))

        def finish(r0, r1, steps, scratch, prev, sums, cur):
            # rows r0:r1 of C * (jac + (w1 * S1 + (w1 * S1).T)) over their
            # first r1 columns, rounded in that order, from weights rebuilt
            # by the operations of a whole-square setup:
            #   inv = 1 / ((d_p + d_q) - |L(p) & L(q)|), 0 where both are 0
            #   jac = count * inv,  w1 = inv * 1/d_q,  w1.T = inv * 1/d_p
            # The counts are symmetric, so inv is too, and each element is
            # the same sum as its mirror image: the rows are copied onto the
            # upper triangle.  ``sums`` is S1, or None where S1 is zero (the
            # first step from the identity), which leaves C * jac.  G, in
            # cur's buffer, is dead once S1 is summed, so the rows are
            # formed in place.
            h = r1 - r0
            inv = np.add(deg[r0:r1, None], deg[:r1], out=scratch(0, h, r1))
            jac = scratch(1, h, r1)
            np.copyto(jac, counts[r0:r1, :r1])
            inv -= jac
            np.divide(1.0, inv, out=inv, where=inv > 0.0)
            jac *= inv
            out = cur[r0:r1, :r1]
            if sums is None:
                np.multiply(jac, C, out=out)
            else:
                np.multiply(inv, inv_deg[:r1], out=out)
                out *= sums[r0:r1, :r1]
                inv *= inv_deg[r0:r1, None]
                inv *= sums[:r1, r0:r1].T
                out += inv
                out += jac
                out *= C
            _close_rows(cur, r0, r1)
            return _block_delta(out, prev[r0:r1, :r1], jac)

        def step(prev: np.ndarray, from_identity: bool):
            cur = np.empty((n, n))
            if not from_identity:
                # G = prev @ U sums prev over q' in L(q); prev is exactly
                # symmetric, so U @ prev is G's transpose, written here into
                # G's transposed view, in cur's buffer until the last pass
                # overwrites it.  Zeroing G at U's nonzeros, where x is in
                # L(q), restricts the second product's outer sum to
                # L(p) \ L(q).  The second cross sum is the transpose of the
                # first by symmetry of prev, so one product serves both.
                # From the identity, G is zero everywhere the mask leaves.
                _spmm(plan, prev, cur.T, each_block)
                cur[nonzeros] = 0.0
                _spmm(plan, cur, s1, each_block)
            maxima = each_block(finish, plan, prev, None if from_identity else s1, cur)
            return cur, float(np.max(maxima, initial=0.0))

        return step

    prepared = []
    for view, w in _terms(cfg):
        op = g.csr(view)
        # 1 / (d_a * d_b) over the view's distinct degrees: a block gathers
        # its inverse degree product from here, the same bits as computing it
        degrees, codes = np.unique(_degrees(op), return_inverse=True)
        # A's nonzeros, (column, row): where A @ I, written into x.T, is 1
        ones = (op[1], np.repeat(np.arange(n), np.diff(op[0])))
        prepared.append((_plan((op,)), _plan(_lanes(op)), w,
                         _guarded_inverse(np.outer(degrees, degrees)), codes, ones))
    x = np.empty((n, n))

    def lower_block(r0, r1, steps, scratch, w, table, codes, low, prev, first, last):
        # rows r0:r1 of S.T over its first r1 columns, which hold the
        # block's part of the lower triangle: w * (C * S * inv), rounded in
        # that order (the inverse degree product is symmetric, so it serves
        # S.T as well).  The first view stores it in low rounded as 0.0 + it,
        # which turns a -0.0 into +0.0; the other views add theirs.
        h = r1 - r0
        out = low[r0:r1, :r1]
        acc = scratch(0, h, r1)
        blk = _block_sums(steps, x[:, :r1], out if first else scratch(1, h, r1), acc)
        blk *= C
        # the sums are done, so acc takes the inverse; the codes are in
        # range, and "clip" lets take write into acc without a buffer
        blk *= np.take(table[codes[r0:r1]], codes[:r1], axis=1, out=acc, mode="clip")
        blk *= w
        if first:
            blk += 0.0
        else:
            out += blk
        if last:
            _close_rows(low, r0, r1)
            return _block_delta(out, prev[r0:r1, :r1], acc)

    def step(prev: np.ndarray, from_identity: bool):
        # S = (A @ prev) @ A.T for the view's 0/1 matrix A; the second
        # product is computed as its transpose, A @ (A @ prev).T, from the
        # first written transposed into x.  Only S[p, q] = S.T[q, p] for
        # p < q is kept, so only the lower triangle of S.T is summed, scaled
        # and added up, and then mirrored.  From the identity the first
        # product is A itself, with the same bits: each of its sums is one
        # 1.0 or none, plus +0.0 terms.
        low = np.empty((n, n))
        for i, (ascending, lanes, w, table, codes, ones) in enumerate(prepared):
            if from_identity:
                x.fill(0.0)
                x[ones] = 1.0
            else:
                _spmm(ascending, prev, x.T, each_block)
            maxima = each_block(lower_block, lanes, w, table, codes, low, prev,
                                i == 0, i == len(prepared) - 1)
        return low, float(np.max(maxima, initial=0.0))

    return step


def iteration_scores(
    g: CitationGraph,
    cfg: MeasureConfig,
    threads: int = 1,
    initial: Optional[np.ndarray] = None,
    *,
    _deltas: Optional[list] = None,
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (k, square scores after iteration k) for k = 1..k_max.

    Runs the full budget with no epsilon stop; callers wanting early
    termination break out themselves.  ``initial`` replaces the identity
    start (its diagonal is forced to 1).  Each yielded array is a new one
    that no later step writes to, so it is safe to keep.  With
    ``threads > 1`` the run owns one thread pool, shut down when the
    generator is exhausted or closed.  ``_deltas``, a list, gets each
    iteration's max |new - previous| appended before it is yielded.

    From an ``initial`` with tiny negative entries (about -1e-321),
    crank:jaccard iterates can hold ``-0.0``, where ``C`` times a tiny
    negative sum rounds to it; the pairwise recursions never do.
    :meth:`SimilarityMatrix.same_bits` tells ``-0.0`` from ``+0.0``, and the
    matrix CSV writes neither, as it holds positive scores only.
    """
    if not cfg.iterative:
        raise ConfigError(f"{cfg.measure} is not an iterative measure")
    if initial is None:
        prev = np.eye(g.n)
    else:
        prev = np.array(initial, dtype=float)
        if prev.shape != (g.n, g.n):
            raise ValueError(f"initial scores must be {g.n}x{g.n}")
        # the recursions read one float per pair: prev's upper triangle wins
        for r0 in range(0, g.n, _BLOCK_ROWS):
            _close_rows(prev.T, r0, min(r0 + _BLOCK_ROWS, g.n))
    with _block_pool(threads, g.n) as each_block:
        step = _make_step(g, cfg, each_block)
        for k in range(1, cfg.k_max + 1):
            prev, delta = step(prev, k == 1 and initial is None)
            if _deltas is not None:
                _deltas.append(delta)
            yield k, prev


def _run_iterations(g, cfg, threads):
    # the steps give their deltas, so only the last iterate is held here
    deltas = []
    with closing(iteration_scores(g, cfg, threads, _deltas=deltas)) as steps:
        for _, cur in steps:
            if deltas[-1] < cfg.epsilon:
                break
    k_run = len(deltas)
    # N/A depends on the graph alone: built once the steps are done, and
    # only where a pair can be N/A
    na = na_mask(g, cfg) if cfg.normalization == "pairwise" else None
    m = SimilarityMatrix.from_square(cur, na=na, k=k_run, bounded=True)
    return m, IterationReport(k_run, deltas[-1] < cfg.epsilon, tuple(deltas))


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
    """Run cfg's recursion until max delta < epsilon, with k_max as a hard cap.

    One driver serves all four recursions; it builds the update for the
    measure and normalization that :class:`MeasureConfig` has validated.
    The result is the one :func:`crank_jaccard` or :func:`iterate_pairwise`
    gives for cfg; only this entry point and :func:`compute` warn that C=1
    gives no decay.
    """
    if not cfg.iterative:
        raise ConfigError(f"{cfg.measure} does not iterate; call compute instead")
    _warn_if_no_decay(cfg)
    return _run_iterations(g, cfg, threads)


def _warn_if_no_decay(cfg: MeasureConfig):
    if cfg.C == 1.0:  # stacklevel 3 names the line that called converge or compute
        warnings.warn("C=1 gives no decay: the fixed point need not be unique and "
                      "convergence is not guaranteed", RuntimeWarning, stacklevel=3)


def compute(
    g: CitationGraph, cfg: MeasureConfig, threads: int = 1
) -> tuple[SimilarityMatrix, Optional[IterationReport]]:
    """Run any configured measure; the report is None for one-shot measures."""
    if cfg.iterative:
        _warn_if_no_decay(cfg)
        return _run_iterations(g, cfg, threads)
    return _one_shot(g, cfg, threads), None


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
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    scores = m.row_scores(query)
    candidate = ~m.row_na(query)
    candidate[query] = False
    ids = np.flatnonzero(candidate & (scores > 0.0))
    ids = ids[np.lexsort((ids, -scores[ids]))][:count]
    result = [TopKEntry(q, s) for q, s in zip(ids.tolist(), scores[ids].tolist())]
    if zero_fill and len(result) < count:
        zeros = np.flatnonzero(candidate & (scores == 0.0))[:count - len(result)]
        result.extend(TopKEntry(q, 0.0, zero_fill=True) for q in zeros.tolist())
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

    counts = cocitation(g, MeasureConfig("cocitation"), threads).dense_scores()
    deg = _degrees(g.csr("in"))
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
    diff = float(np.max([_block_delta(a, b, np.empty_like(a)) for a, b in zip(mats, mats[1:])]))
    return IdentityCheck(name, diff, tol, diff <= tol)


def write_iteration_csv(report: IterationReport, path):
    """Write `iteration,max_delta` rows, iterations numbered from 1."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("iteration,max_delta\n")
        for i, d in enumerate(report.max_delta_per_iteration, start=1):
            fh.write(f"{i},{SCORE_FORMAT % d}\n")

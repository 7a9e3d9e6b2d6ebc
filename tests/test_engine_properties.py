"""Property-based checks for the iterative similarity engine.

Graphs are drawn small (n <= 9) so the brute-force reference stays cheap;
the bounds being exercised do not depend on scale.  The bit-for-bit
comparison with the dense einsum reference draws larger graphs, because
the summation order it checks changes with n.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from citesim.engine import (
    MEASURES,
    NORMALIZATIONS,
    MeasureConfig,
    compute,
    crank_jaccard,
    iterate_pairwise,
    iteration_scores,
    na_mask,
    top_k,
)

import oracles
from citesim.errors import ConfigError
from citesim.graph import CitationGraph


@st.composite
def graphs(draw, min_n=2, max_n=9):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=3 * n))
    return CitationGraph.from_edges(n, sorted(edges))


@st.composite
def block_crossing_graphs(draw):
    """n from 1 to 140, crossing multiples of 8 and the 64-row block, about
    0-6 references per paper, some citations mutual."""
    n = draw(st.integers(min_value=1, max_value=140))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    refs = draw(st.floats(min_value=0.0, max_value=6.0))
    edges = {(int(u), int(v)) for u, v in rng.integers(0, n, size=(int(refs * n), 2))
             if u != v}
    mutual = draw(st.floats(min_value=0.0, max_value=0.5))
    edges |= {(v, u) for u, v in edges if rng.random() < mutual}
    return CitationGraph.from_edges(n, sorted(edges))


# the weights' end points, where one term of a blend has weight 0, and any
# value between
lams = st.sampled_from([0.0, 1.0]) | st.floats(min_value=0.0, max_value=1.0)


@settings(max_examples=30, deadline=None)
@given(block_crossing_graphs(), st.sampled_from([1, 2, 3]), lams, lams)
def test_engine_matches_einsum_reference_bit_for_bit(g, threads, prank_lam, amsler_lam):
    for cfg in (
        MeasureConfig("simrank", k_max=3),
        MeasureConfig("rvs_simrank", k_max=3),
        MeasureConfig("prank", lam=prank_lam, k_max=3),
        MeasureConfig("crank", "pairwise", k_max=3),
        MeasureConfig("crank", "jaccard", k_max=3),
    ):
        step = oracles.einsum_step(g, cfg, threads)
        want = np.eye(g.n)
        for k, square in iteration_scores(g, cfg, threads):
            want = step(want)
            assert np.array_equal(square, want), (cfg.label(), k)
    for norm in ("raw_count", "jaccard"):
        refs = {
            "cocitation": oracles.einsum_shared_scores(g, "in", norm, threads),
            "coupling": oracles.einsum_shared_scores(g, "out", norm, threads),
            "amsler": oracles.einsum_amsler_scores(g, amsler_lam, norm, threads),
        }
        for measure, want in refs.items():
            matrix, _ = compute(g, MeasureConfig(measure, norm, lam=amsler_lam), threads)
            assert np.array_equal(matrix.dense_scores(), want), (measure, norm)


@settings(max_examples=20, deadline=None)
@given(block_crossing_graphs(), st.sampled_from([1, 2, 3]), lams)
def test_reported_deltas_are_the_largest_change_between_iterates(g, threads, prank_lam):
    # each step's blocks give their part of the delta; the reference takes
    # it over whole consecutive iterates, the identity before the first
    for cfg in (
        MeasureConfig("simrank", k_max=4, epsilon=1e-300),
        MeasureConfig("rvs_simrank", k_max=4, epsilon=1e-300),
        MeasureConfig("prank", lam=prank_lam, k_max=4, epsilon=1e-300),
        MeasureConfig("crank", "pairwise", k_max=4, epsilon=1e-300),
        MeasureConfig("crank", "jaccard", k_max=4, epsilon=1e-300),
    ):
        _, report = compute(g, cfg, threads)
        prev = np.eye(g.n)
        want = []
        for _, square in iteration_scores(g, cfg, threads):
            want.append(float(np.max(np.abs(square - prev), initial=0.0)))
            prev = square
        # the run stops at the first delta below epsilon
        stop = next((k for k, d in enumerate(want, start=1) if d < cfg.epsilon), len(want))
        assert report.max_delta_per_iteration == tuple(want[:stop]), cfg.label()


@settings(max_examples=15, deadline=None)
@given(block_crossing_graphs(), lams, st.integers(min_value=0, max_value=2**32 - 1))
def test_random_starts_keep_the_bits_and_no_negative_zero(g, prank_lam, seed):
    # a symmetric start of normal floats, negative and positive denormals
    # (about 1e-321) and zeros of both signs
    rng = np.random.default_rng(seed)
    start = rng.uniform(-1.0, 1.0, (g.n, g.n))
    kind = rng.integers(0, 4, (g.n, g.n))
    start[kind == 1] *= 1e-321
    start[kind == 2] = -0.0
    start = np.where(np.tri(g.n, dtype=bool), start.T, start)
    for cfg in (
        MeasureConfig("simrank", k_max=3),
        MeasureConfig("rvs_simrank", k_max=3),
        MeasureConfig("prank", lam=prank_lam, k_max=3),
        MeasureConfig("crank", k_max=3),
    ):
        runs = [[square.tobytes() for _, square in iteration_scores(g, cfg, threads, start)]
                for threads in (1, 2, 3)]
        assert runs[0] == runs[1] == runs[2], cfg.label()
        step = oracles.einsum_step(g, cfg)
        want = start.copy()
        np.fill_diagonal(want, 1.0)
        for k, square in iteration_scores(g, cfg, 1, start):
            want = step(want)
            assert np.array_equal(square, want), (cfg.label(), k)
            assert not np.any((square == 0.0) & np.signbit(square)), (cfg.label(), k)


@settings(max_examples=40, deadline=None)
@given(graphs(), st.floats(min_value=0.1, max_value=0.95))
def test_undirected_jaccard_invariants(g, C):
    cfg = MeasureConfig("crank", "jaccard", C=C, k_max=6)
    prev = None
    for _, square in iteration_scores(g, cfg):
        assert np.array_equal(square, square.T)
        assert np.all(np.diag(square) == 1.0)
        off = square[~np.eye(g.n, dtype=bool)]
        assert np.all(off >= 0.0)
        assert np.all(off <= C + 1e-12)
        if prev is not None:
            assert np.min(square - prev) >= -1e-12
        prev = square


@settings(max_examples=25, deadline=None)
@given(graphs(max_n=6), st.integers(min_value=1, max_value=2))
def test_all_iterative_forms_match_brute_force(g, k):
    runs = [
        (iterate_pairwise, MeasureConfig("simrank", k_max=k, epsilon=1e-300),
         oracles.pairwise_scores(g, "in", 0.8, k)),
        (iterate_pairwise, MeasureConfig("rvs_simrank", k_max=k, epsilon=1e-300),
         oracles.pairwise_scores(g, "out", 0.8, k)),
        (iterate_pairwise, MeasureConfig("prank", lam=0.5, k_max=k, epsilon=1e-300),
         oracles.blend_scores(g, 0.8, 0.5, k)),
        (iterate_pairwise, MeasureConfig("crank", "pairwise", k_max=k, epsilon=1e-300),
         oracles.pairwise_scores(g, "undirected", 0.8, k)),
        (crank_jaccard, MeasureConfig("crank", "jaccard", k_max=k, epsilon=1e-300),
         oracles.undirected_jaccard_scores(g, 0.8, k)),
    ]
    for driver, cfg, reference in runs:
        matrix, _ = driver(g, cfg)
        assert oracles.max_abs_diff(matrix, reference) <= 1e-10


@settings(max_examples=30, deadline=None)
@given(graphs())
def test_iteration_always_converges(g):
    cfg = MeasureConfig("crank", "jaccard", C=0.5, epsilon=1e-6, k_max=200)
    _, report = crank_jaccard(g, cfg)
    assert report.converged
    assert report.max_delta_per_iteration[-1] < 1e-6


@settings(max_examples=20, deadline=None)
@given(graphs())
def test_fixed_point_is_independent_of_start(g):
    cfg = MeasureConfig("crank", "jaccard", C=0.8, epsilon=1e-8, k_max=400)
    reference, report = crank_jaccard(g, cfg)
    assert report.converged
    start = np.full((g.n, g.n), 0.9)
    prev = None
    square = np.eye(g.n)
    for _, square in iteration_scores(g, cfg, initial=start):
        if prev is not None and np.max(np.abs(square - prev)) < 1e-8:
            break
        prev = square
    assert np.max(np.abs(square - reference.dense_scores())) <= 1e-6


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_blend_gaps_are_intersection_of_directed_gaps(g):
    sim = na_mask(g, MeasureConfig("simrank"))
    rvs = na_mask(g, MeasureConfig("rvs_simrank"))
    blend = na_mask(g, MeasureConfig("prank"))
    assert np.array_equal(blend, sim & rvs)
    assert not na_mask(g, MeasureConfig("crank", "jaccard")).any()


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_na_mask_matches_brute_force_pairs(g):
    for measure in MEASURES:
        for norm in NORMALIZATIONS:
            for lam in (0.0, 0.5, 1.0):
                try:
                    cfg = MeasureConfig(measure, norm, lam=lam)
                except ConfigError:
                    continue  # a normalization the measure does not support
                mask = na_mask(g, cfg)
                assert np.array_equal(mask, mask.T)
                assert not mask.diagonal().any()
                got = set(zip(*np.nonzero(np.triu(mask, 1))))
                assert got == oracles.na_pairs(g, measure, norm), cfg.label()


@settings(max_examples=30, deadline=None)
@given(graphs(min_n=3), st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2))
def test_top_k_shape_and_order(g, count, query):
    matrix, _ = crank_jaccard(g, MeasureConfig("crank", "jaccard", k_max=4))
    entries = top_k(matrix, query, count)
    assert len(entries) <= min(count, g.n - 1)
    assert all(e.paper != query for e in entries)
    keys = [(-e.score, e.paper) for e in entries]
    assert keys == sorted(keys)
    for e in entries:
        assert e.zero_fill == (e.score == 0.0)
        assert not matrix.is_na(query, e.paper)

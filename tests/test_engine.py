import tracemalloc
import warnings

import numpy as np
import pytest

from citesim import engine, fixtures
from citesim.engine import (
    IdentityCheck,
    MeasureConfig,
    ReductionReport,
    cocitation,
    compute,
    converge,
    crank_jaccard,
    iterate_pairwise,
    iteration_scores,
    na_mask,
    reduction_check,
    top_k,
)
from citesim.errors import ConfigError
from citesim.graph import CitationGraph
from citesim.matrix import SimilarityMatrix

import oracles


# -- configuration -----------------------------------------------------------


def test_config_defaults():
    cfg = MeasureConfig("crank")
    assert (cfg.C, cfg.lam, cfg.k_max, cfg.epsilon) == (0.8, 0.5, 10, 1e-4)
    assert cfg.normalization == "jaccard"
    assert MeasureConfig("simrank").normalization == "pairwise"
    assert MeasureConfig("cocitation").normalization == "raw_count"
    assert MeasureConfig("crank").label() == "crank:jaccard"


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        MeasureConfig("pagerank")
    with pytest.raises(ConfigError, match="unknown normalization 'bogus'"):
        MeasureConfig("crank", "bogus")
    with pytest.raises(ConfigError):
        MeasureConfig("simrank", "jaccard")
    with pytest.raises(ConfigError):
        MeasureConfig("crank", "raw_count")
    with pytest.raises(ConfigError):
        MeasureConfig("cocitation", "pairwise")
    with pytest.raises(ConfigError):
        MeasureConfig("crank", C=1.5)
    with pytest.raises(ConfigError):
        MeasureConfig("crank", C=-0.1)
    with pytest.raises(ConfigError):
        MeasureConfig("prank", lam=2.0)
    with pytest.raises(ConfigError):
        MeasureConfig("crank", k_max=0)
    for k_max in (2.5, "x", "3", None, float("inf"), float("nan")):
        with pytest.raises(ConfigError):
            MeasureConfig("crank", k_max=k_max)
    for epsilon in (0.0, float("inf")):
        with pytest.raises(ConfigError):
            MeasureConfig("crank", epsilon=epsilon)
    for bad in ({"C": "x"}, {"C": None}, {"C": float("nan")}, {"lam": None},
                {"lam": "0.5"}, {"epsilon": "1e-3"}, {"epsilon": None}):
        with pytest.raises(ConfigError):
            MeasureConfig("crank", **bad)


def test_boundary_parameters_allowed():
    assert MeasureConfig("simrank", C=1.0).C == 1.0
    assert MeasureConfig("simrank", C=0.0).C == 0.0
    assert MeasureConfig("prank", lam=0.0).lam == 0.0
    assert MeasureConfig("prank", lam=1.0).lam == 1.0
    k_max = MeasureConfig("crank", k_max=3.0).k_max
    assert k_max == 3 and type(k_max) is int


# -- one-shot measures -------------------------------------------------------


def test_shared_citer_counts(shared_graph):
    g = shared_graph
    m = cocitation(g, MeasureConfig("cocitation", "raw_count"))
    assert m.get(g.id_of("e"), g.id_of("f")) == 1.0
    assert m.get(g.id_of("a"), g.id_of("c")) == 0.0
    assert m.get(g.id_of("d"), g.id_of("g")) == 1.0
    assert not m.bounded
    mj = cocitation(g, MeasureConfig("cocitation", "jaccard"))
    assert mj.get(g.id_of("e"), g.id_of("f")) == 1.0
    assert mj.get(g.id_of("a"), g.id_of("c")) == 0.0
    assert mj.bounded


def test_shared_reference_counts(shared_graph):
    g = shared_graph
    m, _ = compute(g, MeasureConfig("coupling", "raw_count"))
    assert m.get(g.id_of("e"), g.id_of("f")) == 1.0
    mj, _ = compute(g, MeasureConfig("coupling", "jaccard"))
    assert mj.get(g.id_of("e"), g.id_of("f")) == 1.0


def test_diagonal_is_one_even_for_raw_counts(shared_graph):
    # node i cites two papers; its raw self-intersection count would be 2
    m, _ = compute(shared_graph, MeasureConfig("coupling", "raw_count"))
    for p in range(shared_graph.n):
        assert m.get(p, p) == 1.0


def test_blend_collapses_to_its_ends(shared_graph):
    g = shared_graph
    m, _ = compute(g, MeasureConfig("amsler", "raw_count"))
    assert m.get(g.id_of("e"), g.id_of("f")) == 1.0
    for mode in ("raw_count", "jaccard"):
        all_in, _ = compute(g, MeasureConfig("amsler", mode, lam=1.0))
        assert all_in.same_bits(cocitation(g, MeasureConfig("cocitation", mode)))
        all_out, _ = compute(g, MeasureConfig("amsler", mode, lam=0.0))
        assert all_out.same_bits(compute(g, MeasureConfig("coupling", mode))[0])


def test_one_shot_measures_match_oracle(gap_graph):
    g = gap_graph
    for mode in ("raw_count", "jaccard"):
        m = cocitation(g, MeasureConfig("cocitation", mode))
        assert oracles.max_abs_diff(m, oracles.shared_count_scores(g, "in", mode)) == 0.0
        m, _ = compute(g, MeasureConfig("coupling", mode))
        assert oracles.max_abs_diff(m, oracles.shared_count_scores(g, "out", mode)) == 0.0
        m, _ = compute(g, MeasureConfig("amsler", mode, lam=0.25))
        assert (
            oracles.max_abs_diff(m, oracles.blend_count_scores(g, 0.25, mode)) <= 1e-15
        )


def test_measure_config_mismatch_rejected(shared_graph):
    with pytest.raises(ConfigError):
        cocitation(shared_graph, MeasureConfig("coupling"))
    with pytest.raises(ConfigError):
        crank_jaccard(shared_graph, MeasureConfig("crank", "pairwise"))
    with pytest.raises(ConfigError):
        iterate_pairwise(shared_graph, MeasureConfig("crank", "jaccard"))
    with pytest.raises(ConfigError):
        converge(shared_graph, MeasureConfig("cocitation"))


@pytest.mark.parametrize("measure", ["cocitation", "coupling", "amsler"])
def test_converge_refuses_a_one_shot_config_as_every_entry_point_does(shared_graph, measure):
    # the refusal is require_iterative's, word for word
    with pytest.raises(ConfigError, match=f"^{measure} is not an iterative measure$"):
        converge(shared_graph, MeasureConfig(measure))


# -- iterative measures ------------------------------------------------------


def test_first_iteration_shared_ratio(shared_graph):
    g = shared_graph
    cfg = MeasureConfig("crank", "jaccard", C=0.8, k_max=1, epsilon=1e-300)
    m, report = crank_jaccard(g, cfg)
    assert m.get(g.id_of("e"), g.id_of("f")) == 0.8
    assert report.iterations_run == 1
    assert oracles.max_abs_diff(m, oracles.first_step_closed_form(g, 0.8)) == 0.0


def test_star_normalization_contrast():
    for k in (2, 4, 8):
        g = fixtures.star_graph(k)
        cfg = MeasureConfig("simrank", "pairwise", C=1.0, k_max=1, epsilon=1e-300)
        m, _ = iterate_pairwise(g, cfg)
        assert m.get(0, 1) == 1.0 / k
        mj = cocitation(g, MeasureConfig("cocitation", "jaccard"))
        assert mj.get(0, 1) == 1.0


def test_single_step_in_link_closed_form(shared_graph):
    g = shared_graph
    cfg = MeasureConfig("simrank", "pairwise", C=1.0, k_max=1, epsilon=1e-300)
    m, _ = iterate_pairwise(g, cfg)
    for p in range(g.n):
        for q in range(g.n):
            ip = g.neighbors(p, "in")
            iq = g.neighbors(q, "in")
            if p == q:
                want = 1.0
            elif not ip or not iq:
                want = 0.0
            else:
                want = len(ip & iq) / (len(ip) * len(iq))
            assert m.get(p, q) == pytest.approx(want, abs=1e-15)


def test_iterative_measures_match_oracle(gap_graph):
    g = gap_graph
    for k in (1, 3):
        m, _ = iterate_pairwise(g, MeasureConfig("simrank", k_max=k, epsilon=1e-300))
        assert oracles.max_abs_diff(m, oracles.pairwise_scores(g, "in", 0.8, k)) <= 1e-12
        m, _ = iterate_pairwise(g, MeasureConfig("rvs_simrank", k_max=k, epsilon=1e-300))
        assert oracles.max_abs_diff(m, oracles.pairwise_scores(g, "out", 0.8, k)) <= 1e-12
        m, _ = iterate_pairwise(
            g, MeasureConfig("prank", lam=0.3, k_max=k, epsilon=1e-300)
        )
        assert oracles.max_abs_diff(m, oracles.blend_scores(g, 0.8, 0.3, k)) <= 1e-12
        m, _ = iterate_pairwise(
            g, MeasureConfig("crank", "pairwise", k_max=k, epsilon=1e-300)
        )
        assert (
            oracles.max_abs_diff(m, oracles.pairwise_scores(g, "undirected", 0.8, k))
            <= 1e-12
        )
        m, _ = crank_jaccard(g, MeasureConfig("crank", "jaccard", k_max=k, epsilon=1e-300))
        assert (
            oracles.max_abs_diff(m, oracles.undirected_jaccard_scores(g, 0.8, k))
            <= 1e-12
        )


def test_diagonal_stays_one_through_iterations(gap_graph):
    cfg = MeasureConfig("crank", "jaccard", k_max=6, epsilon=1e-300)
    for _, square in iteration_scores(gap_graph, cfg):
        assert np.all(np.diag(square) == 1.0)


def test_report_semantics(shared_graph):
    cfg = MeasureConfig("crank", "jaccard", epsilon=2.0, k_max=50)
    m, report = crank_jaccard(shared_graph, cfg)
    assert report.iterations_run == 1 and report.converged
    assert m.k == 1
    cfg = MeasureConfig("crank", "jaccard", epsilon=1e-300, k_max=3)
    m, report = crank_jaccard(shared_graph, cfg)
    assert report.iterations_run == 3 and not report.converged
    assert len(report.max_delta_per_iteration) == 3
    cfg = MeasureConfig("crank", "jaccard", epsilon=1e-6, k_max=200)
    _, report = crank_jaccard(shared_graph, cfg)
    assert report.converged
    assert report.max_delta_per_iteration[-1] < 1e-6


def test_convergence_warns_only_at_no_decay(shared_graph):
    # compute and converge warn, naming the line that called them
    for run in (compute, converge):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run(shared_graph, MeasureConfig("simrank", C=1.0, k_max=2))
        assert [(w.category, w.filename) for w in caught] == [(RuntimeWarning, __file__)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        iterate_pairwise(shared_graph, MeasureConfig("simrank", C=1.0, k_max=2))
        converge(shared_graph, MeasureConfig("simrank", C=0.8, k_max=2))


def test_thread_counts_are_checked(shared_graph):
    cfg = MeasureConfig("crank", k_max=2)
    for threads in (0, -1, 2.5):
        with pytest.raises(ConfigError, match="threads"):
            compute(shared_graph, cfg, threads=threads)
        with pytest.raises(ConfigError, match="threads"):
            cocitation(shared_graph, MeasureConfig("cocitation"), threads=threads)
        with pytest.raises(ConfigError, match="threads"):
            next(iteration_scores(shared_graph, cfg, threads=threads))


def test_converge_dispatch_matches_direct_calls(shared_graph):
    cfg = MeasureConfig("crank", "jaccard", k_max=4, epsilon=1e-300)
    via_converge, _ = converge(shared_graph, cfg)
    direct, _ = crank_jaccard(shared_graph, cfg)
    assert via_converge.same_bits(direct)
    cfg = MeasureConfig("simrank", k_max=4, epsilon=1e-300)
    via_converge, _ = converge(shared_graph, cfg)
    direct, _ = iterate_pairwise(shared_graph, cfg)
    assert via_converge.same_bits(direct)


def test_compute_covers_every_measure(shared_graph):
    from citesim.engine import MEASURES

    for name in MEASURES:
        m, report = compute(shared_graph, MeasureConfig(name))
        assert m.n == shared_graph.n
        if name in ("cocitation", "coupling", "amsler"):
            assert report is None and m.k == 0
        else:
            assert report is not None and m.k == report.iterations_run


def test_custom_start_forces_diagonal(shared_graph):
    cfg = MeasureConfig("crank", "jaccard", k_max=1)
    start = np.full((shared_graph.n, shared_graph.n), 0.9)
    k, square = next(iteration_scores(shared_graph, cfg, initial=start))
    assert k == 1
    assert np.all(np.diag(square) == 1.0)
    assert np.array_equal(square, square.T)


def test_custom_start_must_match_the_graph(shared_graph):
    n = shared_graph.n
    with pytest.raises(ValueError, match=f"initial scores must be {n}x{n}"):
        next(iteration_scores(shared_graph, MeasureConfig("crank"), initial=np.eye(n + 1)))


def test_custom_start_reads_its_upper_triangle():
    g = fixtures.random_graph(150, 0.03, 1)  # three row blocks
    start = np.random.default_rng(1).random((g.n, g.n))
    upper = np.triu(start) + np.triu(start, 1).T
    for cfg in (MeasureConfig("crank", k_max=2), MeasureConfig("prank", k_max=2)):
        got = [square.tobytes() for _, square in iteration_scores(g, cfg, initial=start)]
        want = [square.tobytes() for _, square in iteration_scores(g, cfg, initial=upper)]
        assert got == want, cfg.label()


def test_empty_and_single_node_graphs():
    empty = CitationGraph.from_edges(0, [])
    single = CitationGraph.from_edges(1, [])
    for threads in (1, 2, 3):
        m, report = crank_jaccard(empty, MeasureConfig("crank", "jaccard"), threads)
        assert m.n == 0 and report.converged
        m, report = iterate_pairwise(single, MeasureConfig("simrank"), threads)
        assert m.get(0, 0) == 1.0 and report.converged
        assert reduction_check(empty, threads).passed


# -- N/A structure -----------------------------------------------------------


def test_na_pair_counts_on_fixtures(shared_graph, gap_graph):
    def count(g, name, norm=None):
        mask = na_mask(g, MeasureConfig(name, norm))
        return int(np.triu(mask, 1).sum())

    assert count(shared_graph, "simrank") == 17
    assert count(shared_graph, "rvs_simrank") == 24
    assert count(shared_graph, "prank") == 6
    assert count(shared_graph, "crank", "pairwise") == 0
    assert count(shared_graph, "crank", "jaccard") == 0
    assert count(gap_graph, "simrank") == 38
    assert count(gap_graph, "rvs_simrank") == 21
    assert count(gap_graph, "prank") == 8
    assert count(gap_graph, "crank", "jaccard") == 0


def test_na_masks_match_oracle(gap_graph):
    for name in ("simrank", "rvs_simrank", "prank"):
        mask = na_mask(gap_graph, MeasureConfig(name))
        got = {
            (p, q)
            for p in range(gap_graph.n)
            for q in range(p + 1, gap_graph.n)
            if mask[p, q]
        }
        assert got == oracles.na_pairs(gap_graph, name)


def test_na_never_on_diagonal():
    g = fixtures.random_graph(6, 0.0, seed=0)  # every node isolated
    upper = np.triu_indices(g.n, 1)
    for name in ("simrank", "rvs_simrank", "prank"):
        mask = na_mask(g, MeasureConfig(name))
        assert not mask.diagonal().any()
        assert mask[upper].all()  # all off-diagonal pairs unmeasurable
    mask = na_mask(g, MeasureConfig("crank", "pairwise"))
    assert mask[upper].all()


def test_na_matrix_entries_flagged(gap_graph, gap_ids):
    m, _ = iterate_pairwise(gap_graph, MeasureConfig("simrank"))
    assert m.is_na(gap_ids["k"], gap_ids["l"])
    assert m.get(gap_ids["k"], gap_ids["l"]) == 0.0
    assert m.na_count() == 38


# -- ranking -----------------------------------------------------------------


def _toy_matrix():
    square = np.eye(5)
    square[0, 1:3] = 0.9, 0.5
    na = np.zeros((5, 5), dtype=bool)
    # (0, 3) stays 0.0; (0, 4) is unmeasurable
    na[0, 4] = True
    return SimilarityMatrix.from_square(square, na=na)


def test_top_k_ordering_and_fill():
    m = _toy_matrix()
    got = top_k(m, 0, 10)
    assert [(e.paper, e.score, e.zero_fill) for e in got] == [
        (1, 0.9, False),
        (2, 0.5, False),
        (3, 0.0, True),
    ]
    bare = top_k(m, 0, 10, zero_fill=False)
    assert [(e.paper, e.score) for e in bare] == [(1, 0.9), (2, 0.5)]
    assert top_k(m, 0, 1)[0].paper == 1


def test_top_k_breaks_ties_by_ascending_id():
    square = np.eye(5)
    square[0, 1:] = 0.5
    m = SimilarityMatrix.from_square(square)
    assert [e.paper for e in top_k(m, 0, 3)] == [1, 2, 3]


def test_top_k_rejects_bad_arguments():
    m = _toy_matrix()
    with pytest.raises(ValueError):
        top_k(m, 5, 3)
    with pytest.raises(ValueError):
        top_k(m, 0, 0)
    # a count is an integer: a float failed inside numpy's slicing
    for count in (2.5, 3.0, "3"):
        with pytest.raises(TypeError):
            top_k(m, 0, count)
    assert top_k(m, 0, np.int64(3)) == top_k(m, 0, 3)


def test_top_k_matches_brute_force_sort(shared_graph):
    g = shared_graph
    cfg = MeasureConfig("crank", "jaccard", k_max=10, epsilon=1e-300)
    m, _ = crank_jaccard(g, cfg)
    oracle = oracles.undirected_jaccard_scores(g, 0.8, 10)
    query = g.id_of("e")
    want = sorted(
        ((q, s) for (p, q), s in oracle.items() if p == query and q != query and s > 0),
        key=lambda t: (-t[1], t[0]),
    )[:3]
    got = [(e.paper, e.score) for e in top_k(m, query, 3, zero_fill=False)]
    assert [p for p, _ in got] == [p for p, _ in want]
    assert got[0][1] == pytest.approx(want[0][1], abs=1e-12)


# -- collapse identities and determinism -------------------------------------


def test_reduction_identities_on_fixtures(shared_graph, gap_graph):
    for g in (shared_graph, gap_graph, fixtures.star_graph(4)):
        report = reduction_check(g)
        assert len(report.checks) == 4
        assert report.passed, report.failures()
        for check in report.checks:
            assert check.max_abs_diff <= check.tolerance == 1e-12


def test_reduction_report_lists_its_failed_checks():
    good = IdentityCheck("good", 0.0, 1e-12, True)
    bad = IdentityCheck("bad", 1.0, 1e-12, False)
    report = ReductionReport((good, bad))
    assert not report.passed
    assert report.failures() == [bad]


def test_identical_runs_are_bit_identical():
    g = fixtures.random_graph(90, 0.05, seed=11)
    cfg = MeasureConfig("crank", "jaccard", k_max=6, epsilon=1e-300)
    a, _ = crank_jaccard(g, cfg)
    b, _ = crank_jaccard(g, cfg)
    assert a.same_bits(b)


def test_thread_count_does_not_change_bits():
    g = fixtures.random_graph(150, 0.03, seed=12)
    for name, norm in (("crank", "jaccard"), ("simrank", None), ("prank", None)):
        cfg = MeasureConfig(name, norm, k_max=5, epsilon=1e-300)
        base, _ = compute(g, cfg, threads=1)
        for threads in (2, 5):
            other, _ = compute(g, cfg, threads=threads)
            assert base.same_bits(other), (name, threads)
    one = cocitation(g, MeasureConfig("cocitation"), threads=1)
    four = cocitation(g, MeasureConfig("cocitation"), threads=4)
    assert one.same_bits(four)


def test_each_run_builds_each_gather_plan_once(monkeypatch):
    # crank's one undirected plan serves its shared counts and every step;
    # prank builds an ascending and a two-lane plan per view
    built = []
    plan = engine._plan
    monkeypatch.setattr(engine, "_plan", lambda lanes: built.append(len(lanes)) or plan(lanes))
    g = fixtures.random_graph(70, 5 / 70, 1)
    for cfg, want in ((MeasureConfig("crank", k_max=3), [1]),
                      (MeasureConfig("prank", k_max=3), [1, 2, 1, 2])):
        built.clear()
        compute(g, cfg)
        assert built == want, cfg.label()


@pytest.mark.parametrize("n", [0, 1, 2, 63, 64, 65, 129, 300, 599, 600, 601, 1200, 2401])
def test_row_blocks_tile_the_rows_within_their_cells(n):
    # a block has 64 rows, or fewer at the end, in every pass; so a
    # lower-triangle block (rows r0:r1, columns :r1) fits the block buffers,
    # 64 * n floats, and _upper() covers its diagonal square
    blocks = list(engine._row_blocks(n))
    ends = [0] + [r1 for _, r1 in blocks]
    assert [r0 for r0, _ in blocks] == ends[:-1] and ends[-1] == n
    assert all(r1 - r0 == min(64, n - r0) for r0, r1 in blocks)
    for r0, r1 in blocks:
        assert (r1 - r0) * r1 <= 64 * n
        assert r1 - r0 <= engine._upper().shape[0]


def test_row_block_layout_changes_no_bit(monkeypatch):
    # every plan has the same blocks whatever the thread count, and each
    # element is one sum in its plan's gather order, whatever thread takes
    # its block: threads 1 and 3 give the same bits and reports
    plan = engine._plan
    built = []

    def spy(lanes):
        blocks = plan(lanes)
        built.append([(r0, r1) for r0, r1, _ in blocks])
        return blocks

    monkeypatch.setattr(engine, "_plan", spy)
    configs = [MeasureConfig("simrank", k_max=4), MeasureConfig("prank", k_max=4),
               MeasureConfig("crank", "pairwise", k_max=4),
               MeasureConfig("cocitation", "jaccard"), MeasureConfig("amsler")]
    for fields in (5, 11):
        g = fixtures.clustered_citation_graph(fields, 60, 0.13, 0.004, 3)[0]
        for cfg in configs:
            built.clear()
            base, base_report = compute(g, cfg, 1)
            base_plans = list(built)
            built.clear()
            other, other_report = compute(g, cfg, 3)
            assert base_plans and built == base_plans, (g.n, cfg.label())
            assert base.same_bits(other), (g.n, cfg.label())
            assert base_report == other_report, (g.n, cfg.label())


def test_compute_peak_memory_in_squares():
    # tracemalloc peak of one compute at n=600, in n x n float64 squares;
    # at 2 threads each thread holds its own block buffers.  Crank holds
    # the previous and the new iterate, its cross sums and a count square
    # of one byte per pair.  Measured over 20 runs: crank 3.51 / 3.84,
    # prank 3.40 / 3.72.  A one-shot measure adds each view's terms into
    # one square, block by block, from a one-byte transpose, and the matrix
    # keeps that square: 1.40 / 1.66 for every one-shot config.
    n = 600
    rnd = fixtures.random_graph(n, 5 / n, 1)
    clustered = fixtures.clustered_citation_graph(10, 60, 0.13, 0.004, 1)[0]
    cases = [
        (MeasureConfig("crank"), rnd, (4.0, 4.09)),
        (MeasureConfig("prank"), clustered, (3.65, 3.8)),
    ]
    for measure in ("cocitation", "coupling", "amsler"):
        for norm in ("raw_count", "jaccard"):
            cases.append((MeasureConfig(measure, norm), rnd, (1.61, 1.87)))
    for cfg, g, limits in cases:
        for threads, limit in zip((1, 2), limits):
            tracemalloc.start()
            try:
                compute(g, cfg, threads=threads)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak / (8 * n * n) <= limit, (cfg.label(), threads)


def test_crank_counts_beyond_a_byte_keep_the_bits():
    # two hubs share 260 neighbors, so the shared counts need two bytes:
    # crank's count square holds them, and so do the one-shot configs' sums
    n = 300
    rng = np.random.default_rng(7)
    edges = {(0, v) for v in range(2, n)} | {(1, v) for v in range(2, 262)}
    edges |= {(int(u), int(v)) for u, v in rng.integers(2, n, (300, 2)) if u != v}
    g = CitationGraph.from_edges(n, sorted(edges))
    cfg = MeasureConfig("crank", k_max=3)
    step = oracles.einsum_step(g, cfg)
    start = rng.uniform(0.0, 1.0, (n, n))
    start = np.where(np.tri(n, dtype=bool), start.T, start)
    for initial in (None, start):
        want = np.eye(n) if initial is None else start.copy()
        np.fill_diagonal(want, 1.0)
        iterates = []
        for _ in range(cfg.k_max):
            want = step(want)
            iterates.append(want)
        for threads in (1, 2):
            got = [square for _, square in iteration_scores(g, cfg, threads, initial)]
            assert len(got) == len(iterates)
            for k, (square, want) in enumerate(zip(got, iterates), start=1):
                assert np.array_equal(square, want), (initial is None, threads, k)
    for norm in ("raw_count", "jaccard"):
        refs = {
            "cocitation": oracles.einsum_shared_scores(g, "in", norm),
            "coupling": oracles.einsum_shared_scores(g, "out", norm),
            "amsler": oracles.einsum_amsler_scores(g, 0.3, norm),
        }
        for measure, want in refs.items():
            for threads in (1, 2):
                matrix, _ = compute(g, MeasureConfig(measure, norm, lam=0.3), threads)
                assert np.array_equal(matrix.dense_scores(), want), (measure, norm, threads)

"""Each pass starts its helper threads and joins them before it returns,
runs every block once, stops soon after a block fails, and its bits do not
depend on how the blocks are shared out."""

import sys
import threading

import pytest

from citesim import engine, fixtures
from citesim.engine import MeasureConfig, compute, iteration_scores

# 300 papers: five 64-row blocks per product, for the helpers to take
GRAPH = fixtures.random_graph(300, 5 / 300, seed=5)


def test_compute_leaves_no_thread_behind():
    before = threading.active_count()
    for cfg in (MeasureConfig("prank", k_max=3), MeasureConfig("crank", k_max=3),
                MeasureConfig("amsler")):
        compute(GRAPH, cfg, threads=3)
        assert threading.active_count() == before, cfg.label()
    # the epsilon stop leaves the iteration generator after its first step
    _, report = compute(GRAPH, MeasureConfig("simrank", epsilon=10.0), threads=3)
    assert report.iterations_run == 1
    assert threading.active_count() == before


def test_no_helper_outlives_its_pass():
    before = threading.active_count()
    steps = iteration_scores(GRAPH, MeasureConfig("crank", k_max=5), threads=3)
    next(steps)
    assert threading.active_count() == before  # between steps, no helper is up
    steps.close()
    assert threading.active_count() == before


def test_workers_are_capped_at_the_row_blocks(monkeypatch):
    # 130 papers make three 64-row blocks per product: beyond the calling
    # thread, two workers are all the blocks can use, whatever --threads says
    small = fixtures.random_graph(130, 5 / 130, seed=5)
    before = threading.active_count()
    peak = before
    block_sums = engine._block_sums

    def spy(*args):
        nonlocal peak
        peak = max(peak, threading.active_count())
        return block_sums(*args)

    monkeypatch.setattr(engine, "_block_sums", spy)
    cfg = MeasureConfig("prank", k_max=3, epsilon=1e-300)
    base, _ = compute(small, cfg, threads=1)
    other, _ = compute(small, cfg, threads=12)
    assert peak - before <= 2
    assert base.same_bits(other)


def test_many_threads_with_fast_switching_keep_the_bits():
    cfg = MeasureConfig("prank", k_max=4, epsilon=1e-300)
    base, _ = compute(GRAPH, cfg, threads=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        other, _ = compute(GRAPH, cfg, threads=6)
    finally:
        sys.setswitchinterval(interval)
    assert base.same_bits(other)


def _watch_blocks(monkeypatch, before_block):
    """Make each pass call ``before_block(r0, r1)`` as a block starts, in
    the thread that runs the block; returns a list that gets, per pass, the
    sorted ``(r0, r1)`` pairs its blocks ran and those of its plan."""
    passes = []
    block_pool = engine._block_pool

    def watched_pool(threads, n):
        each_block = block_pool(threads, n)

        def watched(fn, plan, *args):
            seen = []

            def block(r0, r1, *rest):
                seen.append((r0, r1))
                before_block(r0, r1)
                return fn(r0, r1, *rest)

            results = each_block(block, plan, *args)
            passes.append((sorted(seen), [(r0, r1) for r0, r1, _ in plan]))
            return results

        return watched

    monkeypatch.setattr(engine, "_block_pool", watched_pool)
    return passes


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 130, 300])
def test_every_block_runs_once_per_pass(monkeypatch, n):
    # fewer blocks than workers, one block, none at n = 0
    g = fixtures.random_graph(n, min(1.0, 5 / max(n, 1)), seed=5)
    passes = _watch_blocks(monkeypatch, lambda r0, r1: None)
    for cfg in (MeasureConfig("prank", k_max=3, epsilon=1e-300),
                MeasureConfig("crank", k_max=3, epsilon=1e-300),
                MeasureConfig("amsler", "jaccard")):
        base, _ = compute(g, cfg, threads=1)
        for threads in (2, 3, 4):
            other, _ = compute(g, cfg, threads)
            assert base.same_bits(other), (cfg.label(), threads)
    assert passes
    for seen, plan in passes:
        assert seen == plan


# 1000 papers: sixteen blocks per pass, most of them left when one fails
BIG = fixtures.random_graph(1000, 5 / 1000, seed=5)


@pytest.mark.parametrize("error, in_caller", [(RuntimeError, False), (KeyboardInterrupt, True)])
def test_a_failing_block_stops_its_pass(monkeypatch, error, in_caller):
    # the last block, which is taken first, fails in whichever thread takes
    # it; an interrupt fails the first block that the calling thread takes
    starts = []

    def before_block(r0, r1):
        if in_caller:
            failing = threading.current_thread() is threading.main_thread()
        else:
            failing = r1 == BIG.n
        if failing:
            starts.append(None)
            raise error("block failed")
        starts.append(r0)

    _watch_blocks(monkeypatch, before_block)
    before = threading.active_count()
    with pytest.raises(error, match="block failed"):
        compute(BIG, MeasureConfig("prank", k_max=3), threads=3)
    assert threading.active_count() == before
    assert starts.count(None) == 1
    # each of the other two workers may have started one block meanwhile
    assert len(starts) - starts.index(None) - 1 <= 2

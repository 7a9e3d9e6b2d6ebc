"""Each run owns at most one thread pool, gives it back when it ends, and
its bits do not depend on how the blocks are shared out."""

import sys
import threading

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


def test_closing_the_iteration_early_shuts_its_pool_down():
    before = threading.active_count()
    steps = iteration_scores(GRAPH, MeasureConfig("crank", k_max=5), threads=3)
    next(steps)
    assert threading.active_count() > before  # the run's pool is up
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

"""Tests for the sensitivity sweeps."""

import math

import pytest

from repro.analysis import (
    ParallelSweepEvaluator,
    SequentialSweepEvaluator,
    SweepPoint,
    comm_ratio_sweep,
    gain_for_problem,
    heterogeneity_sweep,
    problem_size_sweep,
)
from repro.analysis.sweep import _spread_processors
from repro.core import ScatterProblem


class TestSpreadProcessors:
    def test_alpha_span(self):
        procs = _spread_processors(10, 4.0)
        alphas = [float(p.alpha) for p in procs[:-1]]
        assert max(alphas) / min(alphas) == pytest.approx(4.0)

    def test_homogeneous(self):
        procs = _spread_processors(6, 1.0)
        alphas = {float(p.alpha) for p in procs}
        assert len(alphas) == 1

    def test_beta_spread_independent(self):
        procs = _spread_processors(8, 8.0, beta_spread=1.0)
        betas = {float(p.beta) for p in procs[:-1]}
        assert len(betas) == 1

    def test_root_free_link(self):
        procs = _spread_processors(5, 2.0)
        assert procs[-1].beta == 0

    def test_random_mode_deterministic_per_seed(self):
        import random

        a = _spread_processors(6, 4.0, rng=random.Random(1))
        b = _spread_processors(6, 4.0, rng=random.Random(1))
        assert [p.alpha for p in a] == [p.alpha for p in b]

    def test_invalid_spread(self):
        with pytest.raises(ValueError):
            _spread_processors(4, 0.5)


class TestSweepPoint:
    def test_gain(self):
        pt = SweepPoint(1.0, 100.0, 50.0)
        assert pt.gain == 2.0

    def test_zero_balanced(self):
        assert SweepPoint(1.0, 0.0, 0.0).gain == 1.0


class TestGainForProblem:
    def test_homogeneous_no_gain(self):
        prob = ScatterProblem(_spread_processors(8, 1.0), 10_000)
        assert gain_for_problem(prob).gain == pytest.approx(1.0, abs=0.02)

    def test_heterogeneous_gain(self):
        prob = ScatterProblem(_spread_processors(8, 8.0), 10_000)
        assert gain_for_problem(prob).gain > 1.5


class TestSweeps:
    def test_heterogeneity_monotone(self):
        gains = [pt.gain for pt in heterogeneity_sweep([1.0, 4.0, 16.0], p=8, n=5000)]
        assert gains[0] < gains[1] < gains[2]

    def test_comm_ratio_collapse(self):
        points = comm_ratio_sweep([0.01, 10.0], p=8, n=5000)
        assert points[0].gain > points[1].gain

    def test_problem_size_stabilizes(self):
        points = problem_size_sweep([1_000, 50_000])
        assert points[0].gain == pytest.approx(points[1].gain, rel=0.05)

    def test_custom_factory(self):
        from repro.workloads import random_linear_problem
        import random

        rng = random.Random(0)
        base = random_linear_problem(rng, 5, 1)

        points = problem_size_sweep([100, 200], problem_factory=base.with_n)
        assert len(points) == 2
        assert all(not math.isnan(pt.gain) for pt in points)


class TestEvaluators:
    """The batch layer: parallel evaluation must not change any value."""

    def test_sequential_map_preserves_order(self):
        ev = SequentialSweepEvaluator()
        assert ev.map(lambda x: x * 2, [3, 1, 2]) == [6, 2, 4]

    def test_parallel_map_matches_sequential(self):
        with ParallelSweepEvaluator(4) as ev:
            assert ev.map(lambda x: x * x, list(range(20))) == [
                x * x for x in range(20)
            ]

    def test_single_worker_falls_back_to_sequential(self):
        ev = ParallelSweepEvaluator(1)
        assert ev._pool is None
        assert ev.map(lambda x: x + 1, [1, 2]) == [2, 3]

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            ParallelSweepEvaluator(2, backend="gpu")

    @pytest.mark.parametrize("workers", [2, 4])
    def test_all_sweeps_identical_parallel_vs_sequential(self, workers):
        spreads, ratios, sizes = [1.0, 4.0, 8.0], [0.01, 1.0], [500, 2000]
        seq = (
            heterogeneity_sweep(spreads, p=6, n=2000),
            comm_ratio_sweep(ratios, p=6, n=2000),
            problem_size_sweep(sizes),
        )
        with ParallelSweepEvaluator(workers) as ev:
            par = (
                heterogeneity_sweep(spreads, p=6, n=2000, evaluator=ev),
                comm_ratio_sweep(ratios, p=6, n=2000, evaluator=ev),
                problem_size_sweep(sizes, evaluator=ev),
            )
        assert seq == par  # SweepPoint equality is exact, not approximate

    def test_close_is_idempotent(self):
        ev = ParallelSweepEvaluator(2)
        ev.close()
        ev.close()
        assert ev.map(lambda x: x, [5]) == [5]


def _makespan_at(n):
    """Module-level (picklable) dp-fast solve through a fresh planner,
    which bumps ``core.incremental.rows_computed`` once per DP row."""
    from repro.core.incremental import IncrementalPlanner
    from repro.workloads.table1 import table1_problem

    planner = IncrementalPlanner(algorithm="dp-fast")
    return planner.plan(table1_problem(n)).makespan


class TestProcessPoolMetrics:
    """Counters accrued in pool workers must surface in the parent."""

    def test_worker_metrics_merged_into_parent(self):
        from repro.obs.metrics import METRICS
        from repro.workloads.table1 import table1_problem

        rows = METRICS.counter("core.incremental.rows_computed")
        r0 = rows.value
        with ParallelSweepEvaluator(2, backend="process") as ev:
            vals = ev.map(_makespan_at, [500, 600, 700, 800])
        r1 = rows.value
        assert vals == [_makespan_at(n) for n in [500, 600, 700, 800]]
        # Each worker solve computes every one of the p DP rows in its own
        # process; all four items' deltas must land here.
        assert r1 - r0 == 4 * table1_problem(500).p


def _boom(_):
    raise RuntimeError("injected evaluation failure")


class TestEvaluatorExceptionSafety:
    """A crashing evaluation propagates, and the context exit still
    closes the pool."""

    def test_process_backend_crash_inside_context(self):
        with pytest.raises(RuntimeError, match="injected"):
            with ParallelSweepEvaluator(2, backend="process") as ev:
                ev.map(_makespan_at, [300])
                ev.map(_boom, [1, 2, 3])
        assert ev._pool is None  # the context exit closed the pool

    def test_thread_backend_crash_inside_context(self):
        with pytest.raises(RuntimeError, match="injected"):
            with ParallelSweepEvaluator(2, backend="thread") as ev:
                ev.map(_makespan_at, [300])
                ev.map(_boom, [1])
        assert ev._pool is None


class TestEvaluatorSubmit:
    """The async single-item path used by the serve layer."""

    def test_sequential_submit_inline(self):
        got = []
        SequentialSweepEvaluator().submit(lambda x: x * 2, 21, got.append)
        assert got == [42]

    def test_sequential_submit_error_callback(self):
        errs = []
        SequentialSweepEvaluator().submit(_boom, 1, error_callback=errs.append)
        assert len(errs) == 1 and "injected" in str(errs[0])

    def test_sequential_submit_raises_without_error_callback(self):
        with pytest.raises(RuntimeError, match="injected"):
            SequentialSweepEvaluator().submit(_boom, 1)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_pool_submit_delivers_result(self, backend):
        import threading

        done = threading.Event()
        got = []
        with ParallelSweepEvaluator(2, backend=backend) as ev:
            ev.submit(_makespan_at, 300,
                      callback=lambda r: (got.append(r), done.set()))
            assert done.wait(timeout=60)
        assert got == [_makespan_at(300)]

    def test_pool_submit_error_callback(self):
        import threading

        done = threading.Event()
        errs = []
        with ParallelSweepEvaluator(2, backend="thread") as ev:
            ev.submit(_boom, 1,
                      error_callback=lambda e: (errs.append(e), done.set()))
            assert done.wait(timeout=60)
        assert "injected" in str(errs[0])

    def test_process_submit_merges_worker_metrics(self):
        from repro.obs.metrics import METRICS

        import threading

        done = threading.Event()
        rows = METRICS.counter("core.incremental.rows_computed")
        r0 = rows.value
        with ParallelSweepEvaluator(2, backend="process") as ev:
            ev.submit(_makespan_at, 500, callback=lambda r: done.set())
            assert done.wait(timeout=60)
        # The worker's DP rows surfaced in the parent.
        assert rows.value > r0

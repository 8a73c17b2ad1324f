"""Randomized cross-check of every exact DP kernel, plus cache regressions.

The contract of the fast solver backbone: ``dp-basic``, ``dp-optimized``,
``dp-fast`` and the cross-check references of :mod:`repro.verify.references`
(``dp-basic-vectorized``, ``dp-monotone``) all compute the *same optimal
makespan* on any increasing-cost instance (counts may break ties
differently).  This module grinds that claim over ~200 random instances
spanning linear, affine (intercepts) and rough tabulated cost shapes, varied
``p`` and ``n``, and verifies the :class:`CostTableCache` actually serves
repeated solves from memory.
"""

import random
from fractions import Fraction
from typing import Optional

import numpy as np
import pytest

from repro.core import (
    AffineCost,
    CostTableCache,
    LinearCost,
    PiecewiseLinearCost,
    Processor,
    ScatterProblem,
    TabulatedCost,
    ZeroCost,
    plan_scatter,
    solve_dp_basic,
    solve_dp_fast,
    solve_dp_optimized,
)
from repro.core import dp_fast
from repro.verify.references import solve_dp_basic_vectorized, solve_dp_monotone
from repro.workloads import (
    random_affine_problem,
    random_linear_problem,
    random_tabulated_problem,
)

FAST_KERNELS = [solve_dp_fast, solve_dp_monotone]
ALL_EXACT = [solve_dp_basic, solve_dp_basic_vectorized, solve_dp_optimized] + FAST_KERNELS


def _random_increasing_problem(seed: int) -> ScatterProblem:
    """One of the three cost families, sized for a fast exhaustive DP."""
    rng = random.Random(seed)
    p = rng.randint(2, 6)
    family = seed % 3
    if family == 0:
        return random_linear_problem(rng, p, rng.randint(2, 80))
    if family == 1:
        return random_affine_problem(rng, p, rng.randint(2, 80))
    return random_tabulated_problem(rng, p, rng.randint(2, 40))


class TestKernelEquivalence:
    """The headline property: all exact solvers agree on the optimum."""

    @pytest.mark.parametrize("seed", range(200))
    def test_all_kernels_agree(self, seed):
        prob = _random_increasing_problem(seed)
        reference = solve_dp_optimized(prob)
        for solver in ALL_EXACT:
            res = solver(prob)
            assert res.makespan == pytest.approx(reference.makespan), (
                solver.__name__,
                prob,
            )
            # The counts must be a valid distribution achieving that makespan.
            assert sum(res.counts) == prob.n
            assert prob.makespan(res.counts) == pytest.approx(res.makespan)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_fast_kernels_agree_at_scale(self, seed):
        """Larger-n agreement, where the fast paths (not the fallbacks) run."""
        rng = random.Random(seed)
        prob = random_affine_problem(rng, rng.randint(8, 16), 3_000)
        reference = solve_dp_optimized(prob)
        for solver in FAST_KERNELS:
            res = solver(prob)
            assert res.makespan == pytest.approx(reference.makespan, rel=1e-12)
            assert prob.makespan(res.counts) == pytest.approx(res.makespan)

    def test_non_affine_increasing_costs_use_exact_fallback(self):
        """Tabulated comm (neither affine nor piecewise-linear) exercises the
        general-scan row."""
        knee = [0.05 * x if x <= 10 else 0.5 + 0.1167 * (x - 10) for x in range(61)]
        prob = ScatterProblem(
            [
                Processor("knee", TabulatedCost(knee), LinearCost(0.05)),
                Processor("lin", LinearCost(0.001), LinearCost(0.08)),
                Processor("root", ZeroCost(), LinearCost(0.06)),
            ],
            60,
        )
        reference = solve_dp_optimized(prob)
        for solver in FAST_KERNELS:
            res = solver(prob)
            assert res.makespan == pytest.approx(reference.makespan)
            assert res.info["rows_general_scan"] >= 1


def _random_piecewise(rng: random.Random, n: int, segments: int,
                      knee: Optional[int] = None) -> PiecewiseLinearCost:
    """Increasing piecewise-linear cost with ``segments`` pieces.

    Breakpoints are exact quarter-integers (so several fall between
    integers), some slopes are zero, and the last breakpoint may lie
    short of ``n`` (extrapolated) or beyond it; ``knee`` pins a
    two-piece cost's only interior breakpoint.
    """
    if knee is not None:
        inner = [Fraction(knee)]
    else:
        inner = sorted({Fraction(rng.randint(1, 4 * n), 4) for _ in range(segments - 1)})
    last = Fraction(rng.randint(max(1, n // 2), 2 * n))
    xs = [Fraction(0)] + [x for x in inner if x < last] + [last]
    pts, t = [(xs[0], Fraction(0))], Fraction(0)
    for a, b in zip(xs, xs[1:]):
        slope = 0 if rng.random() < 0.2 else Fraction(rng.uniform(1e-4, 5e-2))
        t += slope * (b - a)
        pts.append((b, t))
    return PiecewiseLinearCost(pts)


def _random_knee_problem(seed: int, n: int, knee: Optional[int] = None) -> ScatterProblem:
    rng = random.Random(seed)
    p = rng.randint(2, 6)

    def cost() -> PiecewiseLinearCost:
        return _random_piecewise(rng, n, rng.randint(1, 5), knee)

    procs = [Processor(f"P{i + 1}", cost(), cost()) for i in range(p - 1)]
    procs.append(Processor(f"P{p}", ZeroCost(), cost()))
    return ScatterProblem(procs, n)


class TestPiecewiseWindowRows:
    """Piecewise-linear links take dp-fast's window path, never the scan."""

    @pytest.mark.parametrize("seed", range(40))
    def test_window_path_agrees_with_dp_optimized(self, seed):
        prob = _random_knee_problem(seed, random.Random(seed).randint(2, 150))
        res = solve_dp_fast(prob)
        assert res.info["rows_general_scan"] == 0
        assert res.info["rows_affine"] == prob.p - 1
        reference = solve_dp_optimized(prob)
        assert res.makespan == pytest.approx(reference.makespan, rel=1e-12)
        assert prob.makespan(res.counts) == pytest.approx(res.makespan, rel=1e-12)

    @pytest.mark.parametrize("knee", [1, 2, 3])
    def test_narrow_knees(self, knee):
        """Knees at x <= 3 make one piece's windows at most 3 wide."""
        for seed in range(6):
            prob = _random_knee_problem(100 * knee + seed, 120, knee=knee)
            res = solve_dp_fast(prob)
            assert res.info["rows_general_scan"] == 0
            reference = solve_dp_optimized(prob)
            assert res.makespan == pytest.approx(reference.makespan, rel=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_wide_windows_agree_with_the_scan(self, seed):
        """At n = 1500 windows outgrow the narrow prefix and the block
        walk runs; dp-monotone's general scan is the independent check."""
        prob = _random_knee_problem(1000 + seed, 1500)
        res = solve_dp_fast(prob)
        reference = solve_dp_monotone(prob)
        assert reference.info["rows_general_scan"] == prob.p - 1
        assert res.makespan == pytest.approx(reference.makespan, rel=1e-12)
        assert prob.makespan(res.counts) == pytest.approx(res.makespan, rel=1e-12)

    def test_sparse_table_fallback(self, monkeypatch):
        """With no walk budget every row finishes on the sparse table."""
        probs = [_random_knee_problem(2000 + s, 400) for s in range(3)]
        probs.append(random_affine_problem(random.Random(7), 5, 400))
        expected = [solve_dp_fast(prob).makespan for prob in probs]
        monkeypatch.setattr(dp_fast, "_SEGMENT_BUDGET", 0)
        monkeypatch.setattr(dp_fast, "_NARROW", 1)
        for prob, makespan in zip(probs, expected):
            assert solve_dp_fast(prob).makespan == makespan

    def test_degenerate_staircase(self):
        """A non-null-at-0 suffix (clamped pivots) behind a piecewise link."""
        rng = random.Random(5)
        root = Processor("root", ZeroCost(), AffineCost(0.01, 0.3, zero_is_free=False))
        procs = [
            Processor(f"P{i}", _random_piecewise(rng, 60, 3), _random_piecewise(rng, 60, 2))
            for i in range(3)
        ]
        prob = ScatterProblem(procs + [root], 60)
        res = solve_dp_fast(prob)
        assert res.info["rows_general_scan"] == 0
        assert res.makespan == pytest.approx(solve_dp_basic(prob).makespan, rel=1e-12)

    def test_rows_are_prefix_stable_in_n(self):
        """A row computed at n serves n' < n bit for bit (the warm path)."""
        prob = _random_knee_problem(77, 600)
        big, small = {}, {}
        solve_dp_fast(prob, collect=big)
        solve_dp_fast(prob.with_n(250), collect=small)
        for row_big, row_small in zip(big["rows"], small["rows"]):
            assert np.array_equal(row_big[:251], row_small)


class TestCostTableCache:
    def test_repeated_solve_hits_cache(self):
        rng = random.Random(11)
        prob = random_affine_problem(rng, 5, 120)
        cache = CostTableCache()

        first = solve_dp_optimized(prob, cache=cache)
        assert first.info["cost_cache"]["misses"] == 2 * prob.p
        assert first.info["cost_cache"]["hits"] == 0

        second = solve_dp_optimized(prob, cache=cache)
        assert second.info["cost_cache"]["hits"] == 2 * prob.p
        assert second.info["cost_cache"]["misses"] == 0
        assert second.makespan == first.makespan

    def test_cache_shared_across_solvers(self):
        rng = random.Random(12)
        prob = random_affine_problem(rng, 4, 100)
        cache = CostTableCache()
        solve_dp_optimized(prob, cache=cache)
        res = solve_dp_monotone(prob, cache=cache)
        assert res.info["cost_cache"]["hits"] == 2 * prob.p
        assert res.info["cost_cache"]["misses"] == 0

    def test_value_equal_cost_functions_share_entries(self):
        cache = CostTableCache()
        a = cache.table(LinearCost(0.01), 50)
        b = cache.table(LinearCost(0.01), 50)  # distinct object, equal value
        assert cache.stats() == {
            "hits": 1, "misses": 1, "waits": 0, "entries": 1,
        }
        np.testing.assert_array_equal(a, b)

    def test_prefix_view_served_from_larger_table(self):
        cache = CostTableCache()
        cache.table(LinearCost(0.5), 100)
        small = cache.table(LinearCost(0.5), 10)
        assert small.shape == (11,)
        assert cache.stats()["hits"] == 1
        # Growing past the stored table is a recompute.
        cache.table(LinearCost(0.5), 200)
        assert cache.stats()["misses"] == 2

    def test_tables_are_read_only(self):
        cache = CostTableCache()
        arr = cache.table(LinearCost(1.0), 10)
        with pytest.raises(ValueError):
            arr[0] = 99.0

    def test_lru_eviction_bounds_entries(self):
        cache = CostTableCache(maxsize=4)
        for i in range(10):
            cache.table(LinearCost(i + 1), 20)
        assert len(cache) == 4

    def test_clear(self):
        cache = CostTableCache()
        cache.table(LinearCost(1.0), 10)
        cache.clear()
        assert cache.stats() == {
            "hits": 0, "misses": 0, "waits": 0, "entries": 0,
        }


class TestAutoRouting:
    """Satellite: auto routes large increasing instances to the fast kernel."""

    def _piecewise_prob(self, n):
        return ScatterProblem(
            [
                Processor(
                    "knee",
                    PiecewiseLinearCost([(0, 0), (100, 0.002), (1000, 0.2)]),
                    LinearCost(0.0005),
                ),
                Processor("lin", LinearCost(1e-5), LinearCost(0.001)),
                Processor("root", ZeroCost(), LinearCost(0.0008)),
            ],
            n,
        )

    def test_large_increasing_instance_no_longer_raises(self):
        prob = self._piecewise_prob(8_000)  # well past EXACT_THRESHOLD
        res = plan_scatter(prob)
        assert res.algorithm == "dp-fast"
        assert sum(res.counts) == prob.n

    def test_explicit_kernels_via_facade(self):
        prob = self._piecewise_prob(300)
        fast = plan_scatter(prob, algorithm="dp-fast")
        opt = plan_scatter(prob, algorithm="dp-optimized")
        mono = solve_dp_monotone(opt.problem)  # the facade's ordered instance
        assert fast.makespan == pytest.approx(opt.makespan)
        assert mono.makespan == pytest.approx(opt.makespan)

"""Tests for Algorithm 1 (dp_basic) and Algorithm 2 (dp_optimized).

Cross-validation strategy: Algorithm 1 (scalar float), Algorithm 1 (exact
rational), its vectorized variant, and Algorithm 2 must all find the same
optimal makespan, and on tiny instances that optimum must match an
exhaustive search over every composition of n.
"""

import random

import pytest

from repro.core import (
    Processor,
    ScatterProblem,
    TabulatedCost,
    ZeroCost,
    solve_dp_basic,
    solve_dp_optimized,
)
from repro.verify.references import solve_dp_basic_vectorized
from repro.workloads import random_linear_problem, random_tabulated_problem

from ..conftest import brute_force_optimum


class TestDpBasic:
    def test_matches_brute_force_tiny(self, tiny_linear_problem):
        res = solve_dp_basic(tiny_linear_problem)
        assert res.makespan == pytest.approx(brute_force_optimum(tiny_linear_problem))

    def test_counts_are_valid(self, small_linear_problem):
        res = solve_dp_basic(small_linear_problem)
        assert sum(res.counts) == small_linear_problem.n
        assert all(c >= 0 for c in res.counts)

    def test_makespan_consistent_with_counts(self, small_linear_problem):
        res = solve_dp_basic(small_linear_problem)
        assert small_linear_problem.makespan(res.counts) == pytest.approx(res.makespan)

    def test_exact_mode_agrees_with_float(self, tiny_linear_problem):
        f = solve_dp_basic(tiny_linear_problem)
        e = solve_dp_basic(tiny_linear_problem, exact=True)
        assert f.makespan == pytest.approx(float(e.makespan_exact))
        assert e.info["exact"] is True

    def test_single_processor(self):
        prob = ScatterProblem([Processor.linear("only", 1.0, 0.0)], 7)
        res = solve_dp_basic(prob)
        assert res.counts == (7,)
        assert res.makespan == pytest.approx(7.0)

    def test_n_zero(self, tiny_linear_problem):
        prob = tiny_linear_problem.with_n(0)
        res = solve_dp_basic(prob)
        assert res.counts == (0, 0, 0)
        assert res.makespan == 0.0

    def test_handles_non_monotonic_costs(self):
        # A dip in the table: only Algorithm 1 is specified for this.
        dip = TabulatedCost([0.0, 5.0, 1.0, 6.0, 7.0, 8.0])
        prob = ScatterProblem(
            [
                Processor("weird", ZeroCost(), dip),
                Processor.linear("root", 2.0, 0.0),
            ],
            5,
        )
        res = solve_dp_basic(prob)
        assert res.makespan == pytest.approx(brute_force_optimum(prob))
        # Exploiting the dip: giving 'weird' exactly 2 items costs 1s.
        assert res.counts == (2, 3)

    def test_slow_link_gets_nothing(self):
        # A processor so badly connected that using it always hurts.
        prob = ScatterProblem(
            [
                Processor.linear("awful", alpha=0.1, beta=100.0),
                Processor.linear("root", alpha=1.0, beta=0.0),
            ],
            10,
        )
        res = solve_dp_basic(prob)
        assert res.counts == (0, 10)


class TestDpVectorized:
    def test_same_optimum_as_scalar(self, rng):
        for _ in range(10):
            prob = random_linear_problem(rng, rng.randint(2, 5), rng.randint(5, 60))
            a = solve_dp_basic(prob)
            b = solve_dp_basic_vectorized(prob)
            assert b.makespan == pytest.approx(a.makespan)
            assert sum(b.counts) == prob.n

    def test_brute_force_tiny(self, tiny_linear_problem):
        res = solve_dp_basic_vectorized(tiny_linear_problem)
        assert res.makespan == pytest.approx(brute_force_optimum(tiny_linear_problem))


class TestDpOptimized:
    def test_matches_algorithm1_on_linear(self, rng):
        for _ in range(15):
            prob = random_linear_problem(rng, rng.randint(2, 6), rng.randint(4, 80))
            a = solve_dp_basic(prob)
            b = solve_dp_optimized(prob)
            assert b.makespan == pytest.approx(a.makespan), prob

    def test_matches_algorithm1_on_monotone_tables(self, rng):
        for _ in range(8):
            prob = random_tabulated_problem(rng, rng.randint(2, 4), rng.randint(4, 40))
            a = solve_dp_basic(prob)
            b = solve_dp_optimized(prob)
            assert b.makespan == pytest.approx(a.makespan)

    def test_brute_force_tiny(self, tiny_linear_problem):
        res = solve_dp_optimized(tiny_linear_problem)
        assert res.makespan == pytest.approx(brute_force_optimum(tiny_linear_problem))

    def test_rejects_non_increasing(self):
        dip = TabulatedCost([0.0, 5.0, 1.0])
        prob = ScatterProblem(
            [Processor("w", ZeroCost(), dip), Processor.linear("root", 1.0, 0.0)], 2
        )
        with pytest.raises(ValueError, match="non-decreasing"):
            solve_dp_optimized(prob)

    def test_reports_inner_iterations(self, small_linear_problem):
        res = solve_dp_optimized(small_linear_problem)
        assert res.info["inner_iterations"] >= 0

    def test_fewer_candidates_than_basic(self, small_linear_problem):
        # The whole point of Algorithm 2: the scan visits far fewer e values
        # than Algorithm 1's full n(n+1)/2 per processor.
        res = solve_dp_optimized(small_linear_problem)
        n, p = small_linear_problem.n, small_linear_problem.p
        full_scan = (p - 1) * n * (n + 1) // 2
        assert res.info["inner_iterations"] < full_scan / 5

    def test_single_processor(self):
        prob = ScatterProblem([Processor.linear("only", 0.5, 0.0)], 9)
        res = solve_dp_optimized(prob)
        assert res.counts == (9,)

    def test_n_zero(self, tiny_linear_problem):
        res = solve_dp_optimized(tiny_linear_problem.with_n(0))
        assert res.counts == (0, 0, 0)


class TestDpAgainstBruteForceRandom:
    """Randomized exhaustive validation on very small instances."""

    @pytest.mark.parametrize("seed", range(6))
    def test_all_solvers_hit_brute_force(self, seed):
        rng = random.Random(seed)
        prob = random_linear_problem(
            rng, rng.randint(2, 3), rng.randint(3, 9),
            alpha_range=(0.1, 2.0), beta_range=(0.01, 0.5),
        )
        expected = brute_force_optimum(prob)
        assert solve_dp_basic(prob).makespan == pytest.approx(expected)
        assert solve_dp_basic_vectorized(prob).makespan == pytest.approx(expected)
        assert solve_dp_optimized(prob).makespan == pytest.approx(expected)

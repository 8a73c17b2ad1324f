"""Tests for the §3.3 LP heuristic and the Eq. 4 guarantee."""

from fractions import Fraction

import pytest

from repro.core import (
    Processor,
    ScatterProblem,
    guarantee_gap,
    relaxed_makespan,
    solve_dp_optimized,
    solve_heuristic,
    solve_lp_rational,
    solve_rational,
)
from repro.lp import build_scatter_lp, solve_with_scipy
from repro.workloads import random_affine_problem, random_linear_problem


class TestGuaranteeGap:
    def test_formula(self):
        prob = ScatterProblem(
            [
                Processor.linear("a", alpha=2.0, beta=0.5),
                Processor.linear("b", alpha=3.0, beta=0.25),
                Processor.linear("root", alpha=1.0, beta=0.0),
            ],
            10,
        )
        # sum Tcomm(j,1) = 0.5 + 0.25 + 0 ; max Tcomp(i,1) = 3.0
        assert guarantee_gap(prob) == Fraction(3, 4) + 3

    def test_affine_includes_intercepts(self):
        prob = ScatterProblem(
            [
                Processor.affine("a", 1.0, 0.5, comp_intercept=2.0, comm_intercept=1.0),
                Processor.linear("root", 1.0, 0.0),
            ],
            5,
        )
        # Tcomm(a,1) = 0.5+1.0 ; Tcomp max = max(1+2, 1) = 3
        assert guarantee_gap(prob) == Fraction(3, 2) + 3


class TestLpRational:
    def test_matches_closed_form_on_linear(self, rng):
        """For linear costs the LP optimum equals the Theorem 1/2 solution."""
        for _ in range(10):
            prob = random_linear_problem(rng, rng.randint(2, 6), rng.randint(5, 100))
            shares, t = solve_lp_rational(prob)
            rat = solve_rational(prob)
            assert t == rat.duration  # both exact rationals
            assert sum(shares) == prob.n

    def test_scipy_backend_agrees(self, rng):
        for _ in range(5):
            prob = random_linear_problem(rng, rng.randint(2, 5), rng.randint(5, 50))
            _, t_exact = solve_lp_rational(prob)
            t_scipy = solve_with_scipy(build_scatter_lp(prob))[prob.p]
            assert t_scipy == pytest.approx(float(t_exact), rel=1e-6)


class TestHeuristic:
    def test_equation4_linear(self, rng):
        """T_opt <= T' <= T_opt + gap against the true integer optimum."""
        for _ in range(10):
            prob = random_linear_problem(rng, rng.randint(2, 5), rng.randint(5, 60))
            h = solve_heuristic(prob)
            dp = solve_dp_optimized(prob)
            gap = float(guarantee_gap(prob))
            assert dp.makespan <= h.makespan + 1e-12
            assert h.makespan <= dp.makespan + gap + 1e-9

    def test_equation4_affine_relaxed(self, rng):
        """Under the affine (intercepts-always-paid) reading,
        T'(relaxed) <= T_rat + gap, checked internally; and the rational LP
        value lower-bounds the relaxed cost of the rounded solution."""
        for _ in range(8):
            prob = random_affine_problem(rng, rng.randint(2, 5), rng.randint(5, 60))
            h = solve_heuristic(prob)
            assert h.info["relaxed_T"] <= h.info["upper_bound"]
            assert h.info["rational_T"] <= h.info["relaxed_T"]

    def test_relative_error_within_gap(self, rng):
        """Relative error vs the rational optimum is bounded by gap/T_rat."""
        prob = random_linear_problem(rng, 6, 5000)
        h = solve_heuristic(prob)
        rational = float(h.info["rational_T"])
        bound = float(guarantee_gap(prob)) / rational
        assert (h.makespan - rational) / rational <= bound + 1e-12

    def test_relative_error_tiny_on_table1_scale(self):
        """Table 1 rates at n = 100,000: error well below 1e-4 (paper: 6e-6
        at n = 817,101)."""
        from repro.workloads import table1_problem

        prob = table1_problem(100_000)
        h = solve_heuristic(prob)
        rational = float(h.info["rational_T"])
        assert (h.makespan - rational) / rational < 1e-4

    def test_counts_near_rational(self, small_linear_problem):
        h = solve_heuristic(small_linear_problem)
        for c, s in zip(h.counts, h.info["rational_shares"]):
            assert abs(Fraction(c) - s) < 1

    def test_rejects_non_affine(self):
        from repro.core import TabulatedCost, ZeroCost

        prob = ScatterProblem(
            [
                Processor("t", ZeroCost(), TabulatedCost([0.0, 1.0, 2.0])),
                Processor.linear("root", 1.0, 0.0),
            ],
            2,
        )
        with pytest.raises(ValueError, match="affine"):
            solve_heuristic(prob)

    def test_n_zero(self, tiny_linear_problem):
        h = solve_heuristic(tiny_linear_problem.with_n(0))
        assert h.counts == (0, 0, 0)


class TestRelaxedMakespan:
    def test_equals_true_makespan_for_linear(self, rng):
        prob = random_linear_problem(rng, 4, 30)
        counts = prob.uniform_distribution()
        assert float(relaxed_makespan(prob, counts)) == pytest.approx(
            prob.makespan(counts)
        )

    def test_overestimates_with_zero_shares_and_intercepts(self):
        prob = ScatterProblem(
            [
                Processor.affine("a", 1.0, 0.1, comm_intercept=5.0),
                Processor.linear("root", 1.0, 0.0),
            ],
            4,
        )
        counts = (0, 4)
        # True model: zero share => no transfer => no 5s latency.
        assert prob.makespan(counts) == pytest.approx(4.0)
        assert float(relaxed_makespan(prob, counts)) == pytest.approx(9.0)

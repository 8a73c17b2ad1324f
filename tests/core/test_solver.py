"""Tests for the plan_scatter facade."""

import pytest

from repro.core import (
    ALGORITHMS,
    EXACT_THRESHOLD,
    Processor,
    ScatterProblem,
    TabulatedCost,
    ZeroCost,
    plan_scatter,
    route,
)
from repro.core import solver
from repro.core.costs import AffineCost


def linear_prob(n=100):
    return ScatterProblem(
        [
            Processor.linear("a", 0.01, 1e-4),
            Processor.linear("b", 0.02, 2e-4),
            Processor.linear("root", 0.01, 0.0),
        ],
        n,
    )


def affine_prob(n=100):
    return ScatterProblem(
        [
            Processor.affine("a", 0.01, 1e-4, comp_intercept=0.1),
            Processor.affine("b", 0.02, 2e-4, comm_intercept=0.05),
            Processor.linear("root", 0.01, 0.0),
        ],
        n,
    )


def tabulated_prob(n=20, monotone=True):
    vals = [0.0]
    for i in range(n):
        vals.append(vals[-1] + (0.1 if monotone or i % 5 else -0.02))
    t = TabulatedCost([max(v, 0.0) for v in vals])
    return ScatterProblem(
        [Processor("t", ZeroCost(), t), Processor.linear("root", 0.05, 0.0)], n
    )


class TestAutoSelection:
    def test_linear_uses_closed_form(self):
        res = plan_scatter(linear_prob())
        assert res.algorithm == "closed-form"

    def test_affine_uses_heuristic(self):
        res = plan_scatter(affine_prob())
        assert res.algorithm.startswith("lp-heuristic")

    def test_tabulated_monotone_uses_fast_kernel(self):
        res = plan_scatter(tabulated_prob(monotone=True))
        assert res.algorithm == "dp-fast"

    def test_tabulated_non_monotone_uses_dp_basic(self):
        res = plan_scatter(tabulated_prob(monotone=False))
        assert res.algorithm == "dp-basic"

    def test_large_increasing_instance_routed_to_fast_kernel(self):
        # Monotone costs never hit the EXACT_THRESHOLD guard, at any n.
        n = EXACT_THRESHOLD + 1
        res = plan_scatter(tabulated_prob(n))
        assert res.algorithm == "dp-fast"
        assert sum(res.counts) == n

    def test_large_non_monotonic_instance_refused(self, monkeypatch):
        def no_dp(problem):
            raise AssertionError("a DP ran before the route was refused")

        monkeypatch.setattr(solver, "solve_dp_basic", no_dp)
        prob = tabulated_prob(EXACT_THRESHOLD + 1, monotone=False)
        with pytest.raises(ValueError, match="non-monotonic"):
            plan_scatter(prob)


class TestRoute:
    def test_threshold_is_inclusive(self):
        at = tabulated_prob(EXACT_THRESHOLD, monotone=False)
        assert route(at) == "dp-basic"
        with pytest.raises(ValueError, match="non-monotonic"):
            route(tabulated_prob(EXACT_THRESHOLD + 1, monotone=False))

    def test_explicit_algorithm_routes_to_itself(self):
        for algo in ALGORITHMS:
            if algo == "auto":
                continue
            assert route(tabulated_prob(monotone=False), algo) == algo


class TestExplicitAlgorithms:
    @pytest.mark.parametrize(
        "algorithm",
        ["dp-basic", "dp-optimized", "dp-fast", "closed-form", "lp-heuristic"],
    )
    def test_all_algorithms_solve_linear(self, algorithm):
        res = plan_scatter(linear_prob(), algorithm=algorithm)
        assert sum(res.counts) == 100
        assert res.makespan > 0

    def test_uniform_distribution(self):
        res = plan_scatter(linear_prob(10), algorithm="uniform", order_policy=None)
        assert res.counts == (4, 3, 3)
        assert res.algorithm == "uniform"

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            plan_scatter(linear_prob(), algorithm="quantum")

    @pytest.mark.parametrize("algorithm", ["dp-basic-vectorized", "dp-monotone"])
    def test_cross_check_kernels_are_not_routes(self, algorithm):
        # They live in repro.verify.references, not in the solver surface.
        with pytest.raises(ValueError, match="unknown algorithm"):
            plan_scatter(linear_prob(), algorithm=algorithm)

    def test_registry_is_complete(self):
        for algo in ALGORITHMS:
            if algo == "auto":
                continue
            plan_scatter(linear_prob(20), algorithm=algo)


class TestOrderPolicyIntegration:
    def test_default_reorders_by_bandwidth(self):
        prob = ScatterProblem(
            [
                Processor.linear("slowlink", 0.01, 9e-4),
                Processor.linear("fastlink", 0.01, 1e-5),
                Processor.linear("root", 0.01, 0.0),
            ],
            50,
        )
        res = plan_scatter(prob)
        assert res.problem.names == ("fastlink", "slowlink", "root")

    def test_none_keeps_order(self):
        prob = linear_prob()
        res = plan_scatter(prob, order_policy=None)
        assert res.problem.names == prob.names

    def test_ordering_improves_or_ties(self):
        prob = ScatterProblem(
            [
                Processor.linear("slowlink", 0.01, 9e-4),
                Processor.linear("fastlink", 0.01, 1e-5),
                Processor.linear("root", 0.01, 0.0),
            ],
            200,
        )
        ordered = plan_scatter(prob, algorithm="lp-heuristic")
        unordered = plan_scatter(prob, algorithm="lp-heuristic", order_policy=None)
        assert ordered.makespan <= unordered.makespan + 1e-12

"""Unit tests for the oracle registry (repro.verify.oracles)."""

from fractions import Fraction

import pytest

from repro.core import IncrementalPlanner, Processor, ScatterProblem, plan_scatter
from repro.verify.oracles import (
    EXACT_DP_ALGORITHMS,
    ORACLES,
    applicable_algorithms,
    incremental_schedule,
    oracle_ids,
    run_oracles,
    solve_all,
)

F = Fraction


def report_map(problem, results, **kwargs):
    return {r.oracle_id: r for r in run_oracles(problem, results, **kwargs)}


@pytest.fixture
def linear_problem():
    return ScatterProblem(
        [
            Processor.linear("a", alpha=0.004, beta=1e-5),
            Processor.linear("b", alpha=0.009, beta=2e-5),
            Processor.linear("c", alpha=0.016, beta=5e-5),
            Processor.linear("root", alpha=0.009, beta=0.0),
        ],
        n=60,
    )


class TestRegistry:
    def test_all_ten_oracles_registered(self):
        assert set(oracle_ids()) == {
            "eq1-recompute",
            "dist-valid",
            "rounding-within-one",
            "exact-agree",
            "thm1-duration",
            "thm2-endings",
            "thm3-ordering",
            "eq4-lp-bound",
            "tree-lower-bound",
            "incremental-matches-cold",
        }

    def test_descriptions_are_nonempty(self):
        for oracle in ORACLES.values():
            assert oracle.description

    def test_unknown_only_raises(self, linear_problem):
        with pytest.raises(KeyError, match="no-such-oracle"):
            run_oracles(linear_problem, {}, only=["no-such-oracle"])

    def test_inapplicable_reports_flagged(self, linear_problem):
        # A non-affine instance: theorem oracles must say inapplicable.
        from repro.core.costs import TabulatedCost

        tab = TabulatedCost([F(0), F(1), F(3), F(7)])
        problem = ScatterProblem(
            [Processor("x", tab, tab), Processor("root", TabulatedCost([F(0)] * 4), tab)],
            n=3,
        )
        reports = report_map(problem, {})
        assert not reports["thm1-duration"].applicable
        assert not reports["eq4-lp-bound"].applicable
        assert reports["dist-valid"].applicable


class TestSolveAll:
    def test_applicable_algorithms_linear(self, linear_problem):
        algos = applicable_algorithms(linear_problem)
        assert "uniform" in algos
        assert "dp-basic" in algos
        assert "closed-form" in algos
        assert "lp-heuristic" in algos

    def test_dp_gate_respects_max_dp_n(self, linear_problem):
        algos = applicable_algorithms(linear_problem.with_n(10_000), max_dp_n=100)
        assert "dp-basic" not in algos
        assert "dp-fast" in algos

    def test_solve_all_produces_results_not_crashes(self, linear_problem):
        results, crashes = solve_all(linear_problem)
        assert crashes == {}
        assert set(results) == set(applicable_algorithms(linear_problem))

    def test_crash_recorded_not_raised(self, linear_problem):
        results, crashes = solve_all(
            linear_problem, algorithms=["closed-form", "no-such-algo"]
        )
        assert "closed-form" in results
        assert "no-such-algo" in crashes


class TestOraclesPassOnHonestSolvers:
    def test_clean_linear_instance(self, linear_problem):
        results, crashes = solve_all(linear_problem)
        assert crashes == {}
        for report in run_oracles(linear_problem, results):
            assert report.ok, (report.oracle_id, report.violations)


class TestOraclesCatchTampering:
    def test_eq1_catches_wrong_makespan(self, linear_problem):
        result = plan_scatter(linear_problem, algorithm="dp-basic", order_policy=None)
        object.__setattr__(result, "makespan", result.makespan * 2 + 1.0)
        reports = report_map(linear_problem, {"dp-basic": result})
        assert not reports["eq1-recompute"].ok

    def test_dist_valid_catches_bad_sum(self, linear_problem):
        result = plan_scatter(linear_problem, algorithm="dp-basic", order_policy=None)
        bad = (result.counts[0] + 1,) + result.counts[1:]
        object.__setattr__(result, "counts", bad)
        reports = report_map(linear_problem, {"dp-basic": result})
        assert any("sum" in v for v in reports["dist-valid"].violations)

    def test_dist_valid_catches_negative(self, linear_problem):
        result = plan_scatter(linear_problem, algorithm="dp-basic", order_policy=None)
        bad = (-1, result.counts[0] + result.counts[1] + 1) + result.counts[2:]
        object.__setattr__(result, "counts", bad)
        reports = report_map(linear_problem, {"dp-basic": result})
        assert any("negative" in v for v in reports["dist-valid"].violations)

    def test_rounding_catches_far_count(self, linear_problem):
        result = plan_scatter(
            linear_problem, algorithm="lp-heuristic", order_policy=None
        )
        assert "rational_shares" in result.info
        counts = list(result.counts)
        # Move 2 items between the first two ranks: breaks |n' - n| < 1
        # while keeping the sum intact.
        counts[0] += 2
        counts[1] -= 2
        object.__setattr__(result, "counts", tuple(counts))
        reports = report_map(linear_problem, {"lp-heuristic": result})
        assert not reports["rounding-within-one"].ok

    def test_exact_agree_catches_disagreement(self, linear_problem):
        a = plan_scatter(linear_problem, algorithm="dp-basic", order_policy=None)
        b = plan_scatter(linear_problem, algorithm="dp-fast", order_policy=None)
        # Force a suboptimal distribution onto one "exact" solver.
        from repro.core.distribution import uniform_counts

        worse = uniform_counts(linear_problem.n, linear_problem.p)
        if worse != a.counts:
            object.__setattr__(b, "counts", worse)
            reports = report_map(linear_problem, {"dp-basic": a, "dp-fast": b})
            assert not reports["exact-agree"].ok

    def test_thm3_catches_bad_claimed_order(self):
        # An instance ordered ascending-by-bandwidth: the oracle compares
        # the *bandwidth-desc* ordering against permutations of the given
        # problem, so it passes — it verifies the theorem, not the input
        # order.  Sanity-check it is exercised and ok here.
        problem = ScatterProblem(
            [
                Processor.linear("slow-link", alpha=0.01, beta=5e-3),
                Processor.linear("fast-link", alpha=0.01, beta=1e-5),
                Processor.linear("root", alpha=0.01, beta=0.0),
            ],
            n=40,
        )
        reports = report_map(problem, {})
        assert reports["thm3-ordering"].applicable
        assert reports["thm3-ordering"].ok

    def test_oracle_crash_is_reported_not_raised(self, linear_problem):
        class Boom:
            """A result-shaped object whose counts explode on access."""

            @property
            def counts(self):
                raise RuntimeError("boom")

            makespan = 0.0
            makespan_exact = None
            info = {}

        reports = report_map(linear_problem, {"dp-basic": Boom()})
        eq1 = reports["eq1-recompute"]
        assert not eq1.ok
        assert any("oracle crashed" in v for v in eq1.violations)


class TestIncrementalOracle:
    def test_schedule_covers_every_churn_kind(self, linear_problem):
        steps = incremental_schedule(linear_problem)
        kinds = [kind for kind, _ in steps]
        assert kinds[0] == "seed"
        assert {"remove-front", "shrink-n", "grow-n", "perturb-link"} <= set(kinds)
        for _, step in steps:
            step.check_valid()

    def test_passes_on_honest_planner(self, linear_problem):
        reports = report_map(linear_problem, {})
        report = reports["incremental-matches-cold"]
        assert report.applicable
        assert report.ok, report.violations

    def test_passes_on_dp_route(self):
        import random

        from repro.workloads import random_tabulated_problem

        problem = random_tabulated_problem(random.Random(17), 5, 30)
        report = report_map(problem, {})["incremental-matches-cold"]
        assert report.ok, report.violations

    def test_warm_crash_names_its_step(self, linear_problem, monkeypatch):
        # The oracle and the fuzzer's incremental mode share one step, so a
        # crashing planner is a solver crash here too, not an oracle crash.
        def crash(self, problem):
            raise RuntimeError("planted")

        monkeypatch.setattr(IncrementalPlanner, "plan", crash)
        report = report_map(linear_problem, {})["incremental-matches-cold"]
        labels = [label for label, _ in incremental_schedule(linear_problem)]
        assert report.violations == tuple(
            f"{label}: incremental: RuntimeError: planted" for label in labels
        )


class TestDegenerateInstances:
    @pytest.mark.parametrize(
        "p,n", [(1, 0), (1, 7), (3, 0), (4, 2)], ids=["p1n0", "p1n7", "p3n0", "n<p"]
    )
    def test_oracles_hold_on_edges(self, p, n):
        procs = [
            Processor.linear(f"P{i}", alpha=0.01 * (i + 1), beta=1e-4)
            for i in range(p - 1)
        ]
        procs.append(Processor.linear("root", alpha=0.01, beta=0.0))
        problem = ScatterProblem(procs, n)
        results, crashes = solve_all(problem)
        assert crashes == {}
        for report in run_oracles(problem, results):
            assert report.ok, (report.oracle_id, report.violations)

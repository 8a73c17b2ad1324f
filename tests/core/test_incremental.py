"""Unit tests for the incremental re-planning engine (repro.core.incremental).

The planner's contract is *byte-identity with the cold solve* — every test
here compares counts, float makespan, exact makespan, and chosen route
against an independent ``plan_scatter`` run, then checks the advertised
amount of state reuse.
"""

import random
from fractions import Fraction

import pytest

from repro.core import (
    EXACT_THRESHOLD,
    IncrementalPlanner,
    PiecewiseLinearCost,
    Processor,
    ScatterProblem,
    TabulatedCost,
    ZeroCost,
    plan_scatter,
    scale_cost,
)
from repro.workloads import random_tabulated_problem

F = Fraction


def assert_byte_match(warm, cold):
    assert warm.counts == cold.counts
    assert warm.makespan == cold.makespan
    assert warm.makespan_exact == cold.makespan_exact
    assert warm.algorithm == cold.algorithm


def assert_front_cascade(problem):
    """Kill the front processor until two are left: every re-plan warm-starts
    from the previous survivors' rows and byte-matches a cold solve."""
    planner = IncrementalPlanner()
    current = problem
    planner.plan(current)
    while current.p > 2:
        current = ScatterProblem(current.processors[1:], current.n)
        warm = planner.plan(current)
        assert_byte_match(warm, plan_scatter(current, order_policy=None))
        assert warm.info["incremental"]["warm_rows"] == current.p
    assert planner.stats()["warm_plans"] == problem.p - 2


def wide_knee_problem(p, n, seed=7):
    """Piecewise-linear links with one knee in the first third of [0, n]."""
    rng = random.Random(seed)

    def knee():
        x1 = rng.randint(1, max(1, n // 3))
        r1 = rng.uniform(1e-6, 5e-5)
        r2 = rng.uniform(1e-6, 5e-5)
        return PiecewiseLinearCost(
            [(0, 0), (x1, r1 * x1), (n, r1 * x1 + r2 * (n - x1))]
        )

    procs = [Processor(f"P{i + 1}", knee(), knee()) for i in range(p - 1)]
    procs.append(Processor(f"P{p}", ZeroCost(), knee()))
    return ScatterProblem(procs, n)


@pytest.fixture
def tab_problem():
    """Increasing tabulated costs: the auto route is dp-fast."""
    return random_tabulated_problem(random.Random(11), 6, 40)


@pytest.fixture
def knee_problem():
    """Increasing piecewise costs with a wide domain (resizable n)."""
    rng = random.Random(3)

    def knee():
        x1 = rng.randint(1, 40)
        r1 = rng.uniform(1e-4, 5e-2)
        r2 = rng.uniform(1e-4, 5e-2)
        return PiecewiseLinearCost(
            [(0, 0), (x1, r1 * x1), (500, r1 * x1 + r2 * (500 - x1))]
        )

    procs = [Processor(f"P{i + 1}", knee(), knee()) for i in range(4)]
    procs.append(Processor("root", ZeroCost(), knee()))
    return ScatterProblem(procs, 60)


class TestRemoval:
    def test_front_removal_reuses_every_row(self, tab_problem):
        planner = IncrementalPlanner()
        planner.plan(tab_problem)
        survivor = ScatterProblem(tab_problem.processors[1:], tab_problem.n)
        warm = planner.plan(survivor)
        assert_byte_match(warm, plan_scatter(survivor, order_policy=None))
        assert warm.info["incremental"]["warm_rows"] == survivor.p
        assert warm.info["incremental"]["rows_computed"] == 0

    @pytest.mark.parametrize("victim", [1, 3])
    def test_middle_removal_reuses_suffix(self, tab_problem, victim):
        planner = IncrementalPlanner()
        planner.plan(tab_problem)
        procs = (
            tab_problem.processors[:victim] + tab_problem.processors[victim + 1 :]
        )
        survivor = ScatterProblem(procs, tab_problem.n)
        warm = planner.plan(survivor)
        assert_byte_match(warm, plan_scatter(survivor, order_policy=None))
        assert warm.info["incremental"]["warm_rows"] == survivor.p - victim

    def test_cascade_warm_starts_from_previous_survivors(self, tab_problem):
        assert_front_cascade(tab_problem)

    @pytest.mark.parametrize("n", [
        10_000,
        pytest.param(100_000, marks=pytest.mark.slow),
    ])
    def test_cascade_on_wide_knee_platform(self, n):
        """p=8 bandwidth knees spanning [0, n], killed front-first."""
        assert_front_cascade(wide_knee_problem(8, n))

    def test_identical_replan_is_pure_reconstruction(self, tab_problem):
        planner = IncrementalPlanner()
        first = planner.plan(tab_problem)
        again = planner.plan(tab_problem)
        assert_byte_match(again, first)
        assert again.info["incremental"]["rows_computed"] == 0


class TestPerturbation:
    @pytest.mark.parametrize("idx", [0, 2])
    def test_perturbed_link_rebuilds_only_front_rows(self, tab_problem, idx):
        planner = IncrementalPlanner()
        planner.plan(tab_problem)
        proc = tab_problem.processors[idx]
        slower = Processor(proc.name, scale_cost(proc.comm, F(3, 2)), proc.comp)
        procs = (
            tab_problem.processors[:idx]
            + (slower,)
            + tab_problem.processors[idx + 1 :]
        )
        perturbed = ScatterProblem(procs, tab_problem.n)
        warm = planner.plan(perturbed)
        assert_byte_match(warm, plan_scatter(perturbed, order_policy=None))
        assert warm.info["incremental"]["warm_rows"] == perturbed.p - 1 - idx


class TestResize:
    def test_shrink_serves_prefix_views(self, knee_problem):
        planner = IncrementalPlanner()
        planner.plan(knee_problem)
        smaller = ScatterProblem(knee_problem.processors, knee_problem.n // 2)
        warm = planner.plan(smaller)
        assert_byte_match(warm, plan_scatter(smaller, order_policy=None))
        assert warm.info["incremental"]["warm_rows"] == smaller.p

    def test_grow_recomputes_rows_but_stays_correct(self, knee_problem):
        planner = IncrementalPlanner()
        planner.plan(knee_problem)
        bigger = ScatterProblem(knee_problem.processors, knee_problem.n * 2)
        warm = planner.plan(bigger)
        assert_byte_match(warm, plan_scatter(bigger, order_policy=None))
        # Row extension is not bit-stable, so growth must not warm-start.
        assert warm.info["incremental"]["warm_rows"] == 0
        # ...but the grown state becomes the new warm source.
        shrunk = ScatterProblem(knee_problem.processors, knee_problem.n)
        again = planner.plan(shrunk)
        assert again.info["incremental"]["warm_rows"] == shrunk.p


class TestStateManagement:
    def test_keep_states_bound_evicts_but_pins_largest(self, knee_problem):
        planner = IncrementalPlanner(keep_states=1)
        planner.plan(knee_problem)
        for victim in range(2):
            survivor = ScatterProblem(
                knee_problem.processors[victim + 1 :], knee_problem.n
            )
            planner.plan(survivor)
            assert planner.stats()["states"] == 1
        # The pinned (largest) state still warm-starts a nested kill set.
        nested = ScatterProblem(knee_problem.processors[3:], knee_problem.n)
        warm = planner.plan(nested)
        assert warm.info["incremental"]["warm_rows"] == nested.p

    def test_reset_drops_states(self, tab_problem):
        planner = IncrementalPlanner()
        planner.plan(tab_problem)
        assert planner.stats()["states"] == 1
        planner.reset()
        assert planner.stats()["states"] == 0
        replan = planner.plan(tab_problem)
        assert replan.info["incremental"]["warm_rows"] == 0

    def test_stats_ledger(self, tab_problem):
        planner = IncrementalPlanner()
        planner.plan(tab_problem)
        survivor = ScatterProblem(tab_problem.processors[1:], tab_problem.n)
        planner.plan(survivor)
        stats = planner.stats()
        assert stats["plans"] == 2
        assert stats["warm_plans"] == 1
        assert stats["rows_reused"] == survivor.p
        assert stats["rows_computed"] == tab_problem.p
        assert "warm" in repr(planner)


class TestDelegation:
    def test_linear_route_delegates_cold(self):
        problem = ScatterProblem(
            [
                Processor.linear("a", alpha=0.004, beta=1e-5),
                Processor.linear("b", alpha=0.009, beta=2e-5),
                Processor.linear("root", alpha=0.01, beta=0.0),
            ],
            n=50,
        )
        planner = IncrementalPlanner()
        warm = planner.plan(problem)
        assert_byte_match(warm, plan_scatter(problem, order_policy=None))
        assert warm.algorithm == "closed-form"
        assert planner.stats()["states"] == 0  # nothing to retain

    def test_callable_alias(self, tab_problem):
        planner = IncrementalPlanner()
        assert_byte_match(
            planner(tab_problem), plan_scatter(tab_problem, order_policy=None)
        )

    def test_unroutable_raises_like_plan_scatter(self):
        # Non-monotone past EXACT_THRESHOLD: no dp-fast and no dp-basic route.
        n = EXACT_THRESHOLD + 1
        tab = TabulatedCost([F(0)] + [F(5) if i % 2 else F(2) for i in range(n)])
        problem = ScatterProblem(
            [Processor("x", tab, tab), Processor("r", ZeroCost(), tab)], n=n
        )
        with pytest.raises(ValueError, match="non-monotonic") as cold:
            plan_scatter(problem, order_policy=None)
        planner = IncrementalPlanner()
        with pytest.raises(ValueError) as warm:
            planner.plan(problem)
        assert str(warm.value) == str(cold.value)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            IncrementalPlanner(algorithm="no-such-kernel")
        with pytest.raises(ValueError):
            IncrementalPlanner(keep_states=0)

    def test_order_policy_matches_cold_facade(self):
        problem = random_tabulated_problem(random.Random(5), 5, 30)
        planner = IncrementalPlanner(order_policy="bandwidth-desc")
        warm = planner.plan(problem)
        cold = plan_scatter(problem, order_policy="bandwidth-desc")
        assert_byte_match(warm, cold)

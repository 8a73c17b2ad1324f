"""Tests for the §4 closed form (Theorems 1 and 2)."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Processor,
    ScatterProblem,
    chain_rate,
    chain_rate_sum_form,
    simultaneous_endings_mask,
    solve_closed_form,
    solve_dp_optimized,
    solve_rational,
)
from repro.core.closed_form import RationalSolution
from repro.core.costs import AffineCost
from repro.verify.fuzz import generate_instance
from repro.workloads import random_linear_problem


def linear_problem(specs, n):
    procs = [Processor.linear(f"P{i}", a, b) for i, (a, b) in enumerate(specs)]
    return ScatterProblem(procs, n)


class TestChainRate:
    def test_single_processor(self):
        prob = linear_problem([(2.0, 0.5)], 1)
        assert chain_rate(prob.processors) == Fraction(5, 2)

    def test_recurrence_matches_sum_form(self, rng):
        for _ in range(20):
            prob = random_linear_problem(rng, rng.randint(1, 8), 10)
            d1 = chain_rate(prob.processors)
            d2 = chain_rate_sum_form(prob.processors)
            assert d1 == d2  # both exact: must be *identical*

    def test_two_identical_processors_halve_rate_without_comm(self):
        # With beta=0, two alpha=1 processors behave like rate 1/2.
        prob = linear_problem([(1.0, 0.0), (1.0, 0.0)], 1)
        assert chain_rate(prob.processors) == Fraction(1, 2)

    def test_rejects_non_linear(self):
        prob = ScatterProblem(
            [Processor("a", AffineCost(0.1, 0.0), AffineCost(1.0, 2.0))], 5
        )
        with pytest.raises(ValueError, match="linear"):
            chain_rate(prob.processors)


class TestTheorem1:
    def test_duration_formula(self, rng):
        """t = n * D and the shares of Eq. 8 end simultaneously."""
        for _ in range(10):
            prob = random_linear_problem(rng, rng.randint(2, 6), rng.randint(10, 500))
            rat = solve_rational(prob)
            if not all(rat.active):
                continue  # Theorem 1 needs everyone active
            assert rat.duration == prob.n * chain_rate(prob.processors)

    def test_simultaneous_endings(self, rng):
        """All active processors end exactly at t (rational arithmetic)."""
        for _ in range(10):
            prob = random_linear_problem(rng, rng.randint(2, 6), rng.randint(10, 200))
            rat = solve_rational(prob)
            # Evaluate Eq. 1 with rational shares.
            elapsed = Fraction(0)
            for proc, share, active in zip(prob.processors, rat.shares, rat.active):
                elapsed += proc.beta * share
                if active:
                    assert elapsed + proc.alpha * share == rat.duration

    def test_shares_sum_to_n(self, rng):
        for _ in range(10):
            prob = random_linear_problem(rng, rng.randint(2, 7), rng.randint(1, 300))
            rat = solve_rational(prob)
            assert sum(rat.shares) == prob.n


class TestTheorem2:
    def test_all_active_when_links_fast(self):
        prob = linear_problem([(1.0, 0.001), (2.0, 0.001), (1.5, 0.0)], 10)
        assert simultaneous_endings_mask(prob.processors) == [True, True, True]

    def test_bad_link_excluded(self):
        # beta so large that serving P0 delays the rest more than it helps.
        prob = linear_problem([(0.1, 100.0), (1.0, 0.0)], 10)
        mask = simultaneous_endings_mask(prob.processors)
        assert mask == [False, True]
        rat = solve_rational(prob)
        assert rat.shares[0] == 0
        assert rat.shares[1] == prob.n

    def test_root_always_active(self, rng):
        for _ in range(10):
            prob = random_linear_problem(rng, rng.randint(1, 6), 10)
            assert simultaneous_endings_mask(prob.processors)[-1]

    def test_threshold_condition_exact(self):
        # Two processors: P1 active iff beta_1 <= D(P2) = alpha_2 + beta_2.
        at_threshold = linear_problem([(1.0, 3.0), (2.0, 1.0)], 10)
        assert simultaneous_endings_mask(at_threshold.processors)[0]  # 3.0 <= 3.0
        above = linear_problem([(1.0, 3.0 + 1e-9), (2.0, 1.0)], 10)
        assert not simultaneous_endings_mask(above.processors)[0]

    def test_excluding_is_optimal(self):
        """The rational optimum with exclusion beats any forced inclusion."""
        prob = linear_problem([(0.1, 50.0), (1.0, 0.0)], 20)
        rat = solve_rational(prob)
        # Forcing one item onto the awful processor must be worse.
        forced = prob.makespan([1, 19])
        assert float(rat.duration) < forced


class TestClosedFormInteger:
    def test_matches_dp_up_to_guarantee(self, rng):
        from repro.core import guarantee_gap

        for _ in range(10):
            prob = random_linear_problem(rng, rng.randint(2, 5), rng.randint(5, 60))
            cf = solve_closed_form(prob)
            dp = solve_dp_optimized(prob)
            gap = float(guarantee_gap(prob))
            assert dp.makespan <= cf.makespan + 1e-12
            assert cf.makespan <= dp.makespan + gap + 1e-12

    def test_counts_valid_and_close_to_rational(self, small_linear_problem):
        cf = solve_closed_form(small_linear_problem)
        rat = cf.info["rational_shares"]
        assert sum(cf.counts) == small_linear_problem.n
        for c, s in zip(cf.counts, rat):
            assert abs(Fraction(c) - s) < 1

    def test_exact_makespan_populated(self, small_linear_problem):
        cf = solve_closed_form(small_linear_problem)
        assert cf.makespan_exact is not None
        assert float(cf.makespan_exact) == pytest.approx(cf.makespan)

    def test_rejects_affine(self):
        prob = ScatterProblem(
            [
                Processor.affine("a", 1.0, 0.1, comp_intercept=0.5),
                Processor.linear("root", 1.0, 0.0),
            ],
            10,
        )
        with pytest.raises(ValueError, match="linear"):
            solve_closed_form(prob)

    def test_n_zero(self, tiny_linear_problem):
        cf = solve_closed_form(tiny_linear_problem.with_n(0))
        assert cf.counts == (0, 0, 0)
        assert cf.makespan == 0.0


def _three_step_rational(problem):
    """Theorems 1–2 as three ``Fraction`` passes: the Theorem 2 mask,
    ``chain_rate`` over the active processors, then Eq. 8's shares."""
    procs = problem.processors
    active = simultaneous_endings_mask(procs)
    t = problem.n * chain_rate([proc for proc, a in zip(procs, active) if a])
    shares = [Fraction(0)] * problem.p
    prefix = Fraction(1)
    for i, proc in enumerate(procs):
        if not active[i]:
            continue
        denom = proc.alpha + proc.beta
        if denom == 0:
            shares[i] = problem.n - sum(shares, Fraction(0))
            prefix = Fraction(0)
            continue
        shares[i] = prefix / denom * t
        prefix *= proc.alpha / denom
    return RationalSolution(tuple(shares), t, tuple(active))


@st.composite
def linear_platforms(draw):
    """Linear instances with dropped processors and free (α+β=0) ones:
    the fuzzer's linear-family shapes plus chains up to p = 48."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    kind = draw(st.sampled_from(["linear", "adversarial", "degenerate", "chain"]))
    if kind == "chain":
        return random_linear_problem(
            rng, rng.randint(1, 48), rng.randint(0, 10**6), beta_range=(1e-6, 1e-1)
        )
    return generate_instance(kind, rng)


class TestOneIntegerPass:
    """``solve_rational``'s integer pass equals the three-step composition."""

    @given(linear_platforms())
    @settings(max_examples=200, deadline=None)
    def test_matches_three_step_composition(self, prob):
        assert solve_rational(prob) == _three_step_rational(prob)

    @pytest.mark.parametrize(
        "specs",
        [
            [(0.1, 100.0), (0.2, 0.001), (0.3, 50.0), (1.0, 0.0)],  # two dropped
            [(0.5, 0.01), (0.0, 0.0), (0.2, 0.02), (1.0, 0.0)],  # free, mid-chain
            [(0.5, 0.0), (0.0, 0.0), (0.0, 0.0), (1.0, 0.0)],  # two free
            [(0.5, 0.01), (0.3, 0.02), (0.0, 0.0)],  # free root
            [(1.0, 3.0), (2.0, 1.0)],  # β exactly at the Theorem 2 threshold
        ],
    )
    def test_drops_and_free_processors(self, specs):
        for n in (0, 1, 17, 1000):
            prob = linear_problem(specs, n)
            rat = solve_rational(prob)
            assert rat == _three_step_rational(prob)
            assert sum(rat.shares) == n

"""Fingerprint canonicalization: equal value ⟹ equal key (and only then)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.costs import (
    AffineCost,
    CallableCost,
    LinearCost,
    PiecewiseLinearCost,
    TabulatedCost,
    ZeroCost,
)
from repro.core.costs import cost_fingerprint as core_cost_fingerprint
from repro.core.distribution import Processor, ScatterProblem
from repro.core.ordering import apply_policy
from repro.serve.fingerprint import cost_fingerprint, problem_fingerprint


class TestCostFingerprint:
    def test_fraction_vs_equal_float(self):
        # 0.5 converts to exactly 1/2 — same value, one key.
        assert cost_fingerprint(LinearCost(Fraction(1, 2))) == cost_fingerprint(
            LinearCost(0.5)
        )
        assert cost_fingerprint(AffineCost(Fraction(3, 4), Fraction(1, 8))) == (
            cost_fingerprint(AffineCost(0.75, 0.125))
        )

    def test_inexact_float_stays_distinct(self):
        # Binary 0.1 is NOT 1/10; merging them would serve a plan whose
        # makespan_exact belongs to a different instance.
        assert cost_fingerprint(LinearCost(Fraction(1, 10))) != cost_fingerprint(
            LinearCost(0.1)
        )

    def test_affine_zero_intercept_is_linear(self):
        a = AffineCost(Fraction(1, 4), 0)
        assert cost_fingerprint(a) == cost_fingerprint(LinearCost(Fraction(1, 4)))
        # zero_is_free is unobservable at intercept 0.
        b = AffineCost(Fraction(1, 4), 0, zero_is_free=False)
        assert cost_fingerprint(b) == cost_fingerprint(a)

    def test_zero_rate_forms_collapse(self):
        keys = {
            cost_fingerprint(ZeroCost()),
            cost_fingerprint(LinearCost(0)),
            cost_fingerprint(AffineCost(0, 0)),
        }
        assert keys == {"zero"}

    def test_nonzero_intercept_keeps_zero_is_free(self):
        assert cost_fingerprint(AffineCost(1, 2)) != cost_fingerprint(
            AffineCost(1, 2, zero_is_free=False)
        )

    def test_piecewise_linear_does_not_merge_with_linear(self):
        # Same values on [0, n], but pwl routes dp-fast and linear routes
        # closed-form; the fingerprint must keep them apart.
        lin = LinearCost(Fraction(1, 4))
        pwl = PiecewiseLinearCost([(0, 0), (100, 25)])
        assert cost_fingerprint(lin) != cost_fingerprint(pwl)

    def test_tabulated_keys_by_exact_values(self):
        a = TabulatedCost([0, Fraction(1, 3), Fraction(2, 3)])
        b = TabulatedCost([0, 1 / 3, 2 / 3])  # float thirds: different values
        c = TabulatedCost([Fraction(0), Fraction(1, 3), Fraction(2, 3)])
        assert cost_fingerprint(a) != cost_fingerprint(b)
        assert cost_fingerprint(a) == cost_fingerprint(c)

    def test_callable_has_no_fingerprint(self):
        assert cost_fingerprint(CallableCost(lambda x: 0.1 * x)) is None

    def test_kinds_distinct(self):
        keys = {
            cost_fingerprint(ZeroCost()),
            cost_fingerprint(LinearCost(0.25)),
            cost_fingerprint(AffineCost(0.25, 1.5)),
            cost_fingerprint(TabulatedCost([0.0, 1.0, 2.5])),
            cost_fingerprint(PiecewiseLinearCost([(0, 0), (100, 25)])),
        }
        assert len(keys) == 5
        assert None not in keys

    def test_serve_reexports_the_core_cost_identity(self):
        # One cost identity: the plan cache keys and evicts by
        # repro.core.costs.cost_fingerprint.
        assert cost_fingerprint is core_cost_fingerprint


def _problem(costs, n=1000):
    procs = [
        Processor(f"P{i + 1}", comm, comp)
        for i, (comm, comp) in enumerate(costs[:-1])
    ]
    comm, comp = costs[-1]
    procs.append(Processor("root", comm, comp))
    return ScatterProblem(procs, n)


class TestProblemFingerprint:
    def test_names_ignored(self):
        a = ScatterProblem(
            [Processor.linear("alice", 0.01, 2e-5),
             Processor.linear("root", 0.02, 0.0)], 100)
        b = ScatterProblem(
            [Processor.linear("bob", 0.01, 2e-5),
             Processor.linear("r0", 0.02, 0.0)], 100)
        assert problem_fingerprint(a) == problem_fingerprint(b)

    def test_n_p_algorithm_distinguish(self):
        procs = [Processor.linear("P1", 0.01, 2e-5),
                 Processor.linear("root", 0.02, 0.0)]
        a = problem_fingerprint(ScatterProblem(procs, 100))
        b = problem_fingerprint(ScatterProblem(procs, 101))
        c = problem_fingerprint(ScatterProblem(procs, 100), algorithm="uniform")
        assert len({a.key, b.key, c.key}) == 3

    def test_threshold_ignored_for_increasing_costs(self):
        procs = [Processor.linear("P1", 0.01, 2e-5),
                 Processor.linear("root", 0.02, 0.0)]
        prob = ScatterProblem(procs, 100)
        assert ";thr=" not in problem_fingerprint(prob).canonical
        # EXACT_THRESHOLD is a constant, so even a request whose auto
        # route depends on it keys without a threshold clause.
        tab = TabulatedCost([0, 5, 2, 9])
        general = ScatterProblem(
            [Processor("x", tab, tab), Processor("r", ZeroCost(), tab)], 3
        )
        assert not general.is_increasing
        assert ";thr=" not in problem_fingerprint(general).canonical

    def test_normalized_permutations_share_a_key(self):
        procs = [Processor.linear(f"P{i}", 0.01 * (i + 1), 1e-5 * (i + 1))
                 for i in range(4)]
        procs.append(Processor.linear("root", 0.01, 0.0))
        a = ScatterProblem(procs, 500)
        b = ScatterProblem(procs[2::-1] + [procs[3], procs[4]], 500)
        ordered_a = apply_policy(a, "bandwidth-desc")
        ordered_b = apply_policy(b, "bandwidth-desc")
        assert problem_fingerprint(ordered_a) == problem_fingerprint(ordered_b)
        # Without normalization the order is semantic: keys differ.
        assert problem_fingerprint(a) != problem_fingerprint(b)

    def test_callable_cost_poisons_the_problem(self):
        prob = _problem(
            [(LinearCost(1e-5), CallableCost(lambda x: 0.01 * x)),
             (ZeroCost(), LinearCost(0.02))]
        )
        assert problem_fingerprint(prob) is None

    def test_cost_keys_cover_every_cost(self):
        prob = _problem(
            [(LinearCost(1e-5), LinearCost(0.01)),
             (ZeroCost(), AffineCost(0.02, 1.5))]
        )
        fp = problem_fingerprint(prob)
        assert cost_fingerprint(AffineCost(0.02, 1.5)) in fp.cost_keys
        assert cost_fingerprint(LinearCost(1e-5)) in fp.cost_keys
        assert "zero" in fp.cost_keys
        assert fp.cost_keys == tuple(sorted(set(fp.cost_keys)))

    def test_shared_cost_keys_are_one_string(self):
        """Cached plans of a drifting platform share each unchanged key."""
        knee = PiecewiseLinearCost([(0, 0), (7, Fraction(1, 3)), (50, 2)])
        a = problem_fingerprint(_problem([(knee, LinearCost(0.01)), (ZeroCost(), knee)]))
        b = problem_fingerprint(_problem([(knee, LinearCost(0.02)), (ZeroCost(), knee)]))
        key = cost_fingerprint(knee)
        shared_a = next(k for k in a.cost_keys if k == key)
        shared_b = next(k for k in b.cost_keys if k == key)
        assert shared_a is shared_b


# Strategy: exact rationals whose float form converts back exactly, plus
# genuinely inexact floats — both sides of the equal-value contract.
_rates = st.fractions(min_value=0, max_value=10)


class TestEqualValueEqualKeyProperties:
    @settings(max_examples=60, deadline=None)
    @given(rate=_rates)
    def test_linear_key_is_a_value_function(self, rate):
        assert cost_fingerprint(LinearCost(rate)) == cost_fingerprint(
            LinearCost(Fraction(rate))
        )

    @settings(max_examples=60, deadline=None)
    @given(rate=_rates, intercept=_rates)
    def test_affine_collapses_iff_intercept_zero(self, rate, intercept):
        aff = AffineCost(rate, intercept)
        lin_key = cost_fingerprint(LinearCost(rate)) if rate else "zero"
        if intercept == 0:
            assert cost_fingerprint(aff) == lin_key
        else:
            assert cost_fingerprint(aff) != lin_key

    @settings(max_examples=30, deadline=None)
    @given(
        alphas=st.lists(
            st.fractions(min_value=Fraction(1, 1000), max_value=1),
            min_size=2, max_size=5,
        ),
        n=st.integers(min_value=10, max_value=2000),
    )
    def test_equal_problems_equal_fingerprints(self, alphas, n):
        def build(names):
            procs = [
                Processor.linear(name, a, a / 100)
                for name, a in zip(names[:-1], alphas[:-1])
            ]
            procs.append(Processor.linear(names[-1], alphas[-1], 0))
            return ScatterProblem(procs, n)

        a = build([f"P{i}" for i in range(len(alphas))])
        b = build([f"Q{i}" for i in range(len(alphas))])
        fa, fb = problem_fingerprint(a), problem_fingerprint(b)
        assert fa == fb
        assert fa.canonical == fb.canonical

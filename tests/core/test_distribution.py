"""Unit tests for ScatterProblem and distribution evaluation (Eq. 1-2)."""

from fractions import Fraction

import pytest

from repro.core import (
    DistributionResult,
    LinearCost,
    Processor,
    ScatterProblem,
    ZeroCost,
    uniform_counts,
)
from repro.core.costs import AffineCost


def simple_problem(n=10):
    return ScatterProblem(
        [
            Processor.linear("w1", alpha=1.0, beta=0.1),
            Processor.linear("w2", alpha=2.0, beta=0.2),
            Processor.linear("root", alpha=1.0, beta=0.0),
        ],
        n,
    )


class TestProcessor:
    def test_linear_constructor(self):
        p = Processor.linear("x", 0.5, 0.1)
        assert p.alpha == Fraction(1, 2)
        assert p.beta == Fraction(0.1)
        assert p.is_linear and p.is_affine and p.is_increasing

    def test_linear_zero_beta_gives_zero_cost(self):
        p = Processor.linear("root", 0.5, 0)
        assert isinstance(p.comm, ZeroCost)

    def test_affine_constructor(self):
        p = Processor.affine("x", 0.5, 0.1, comp_intercept=1.0, comm_intercept=0.2)
        assert not p.is_linear
        assert p.is_affine
        assert p.comp.intercept == 1
        assert p.comm.intercept == Fraction(0.2)

    def test_affine_zero_comm_gives_zero_cost(self):
        p = Processor.affine("root", 0.5, 0)
        assert isinstance(p.comm, ZeroCost)


class TestScatterProblemConstruction:
    def test_basic_properties(self):
        prob = simple_problem()
        assert prob.p == 3
        assert prob.n == 10
        assert prob.root.name == "root"
        assert prob.names == ("w1", "w2", "root")
        assert prob.is_linear and prob.is_affine and prob.is_increasing

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ScatterProblem([], 10)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            simple_problem(-1)

    def test_n_zero_allowed(self):
        prob = simple_problem(0)
        assert prob.makespan([0, 0, 0]) == 0.0

    def test_mixed_cost_flags(self):
        prob = ScatterProblem(
            [
                Processor("a", LinearCost(0.1), AffineCost(1.0, 0.5)),
                Processor.linear("root", 1.0, 0.0),
            ],
            5,
        )
        assert not prob.is_linear
        assert prob.is_affine


class TestEvaluation:
    def test_finish_times_eq1(self):
        prob = simple_problem()
        # counts (2, 3, 5): T1 = 0.1*2 + 1*2 = 2.2
        # T2 = 0.2 + 0.6 + 2*3 = 6.8 ; T3 = 0.8 + 0 + 5 = 5.8
        times = prob.finish_times([2, 3, 5])
        assert times == pytest.approx([2.2, 6.8, 5.8])

    def test_makespan_is_max(self):
        prob = simple_problem()
        assert prob.makespan([2, 3, 5]) == pytest.approx(6.8)

    def test_exact_matches_float(self):
        prob = simple_problem()
        exact = prob.finish_times_exact([2, 3, 5])
        floats = prob.finish_times([2, 3, 5])
        for e, f in zip(exact, floats):
            assert float(e) == pytest.approx(f)

    def test_comm_end_times_stair(self):
        prob = simple_problem()
        ends = prob.comm_end_times([2, 3, 5])
        assert ends == pytest.approx([0.2, 0.8, 0.8])
        assert ends == sorted(ends)  # the stair is non-decreasing

    def test_empty_share_is_free(self):
        prob = simple_problem()
        times = prob.finish_times([0, 0, 10])
        assert times[0] == 0.0
        assert times[1] == 0.0
        assert times[2] == pytest.approx(10.0)

    def test_wrong_length_rejected(self):
        prob = simple_problem()
        with pytest.raises(ValueError):
            prob.finish_times([1, 2])

    def test_negative_count_rejected(self):
        prob = simple_problem()
        with pytest.raises(ValueError):
            prob.makespan([-1, 6, 5])

    def test_validate_checks_sum(self):
        prob = simple_problem()
        with pytest.raises(ValueError):
            prob.validate([1, 2, 3])
        assert prob.validate([2, 3, 5]) == (2, 3, 5)


class TestReordering:
    def test_with_order(self):
        prob = simple_problem()
        reordered = prob.with_order([1, 0, 2])
        assert reordered.names == ("w2", "w1", "root")
        assert reordered.n == prob.n

    def test_with_order_rejects_non_permutation(self):
        prob = simple_problem()
        with pytest.raises(ValueError):
            prob.with_order([0, 0, 2])

    def test_order_changes_makespan(self):
        prob = simple_problem()
        a = prob.makespan([2, 3, 5])
        b = prob.with_order([1, 0, 2]).makespan([3, 2, 5])
        # same shares per processor, different serving order
        assert a != pytest.approx(b)

    def test_with_n(self):
        assert simple_problem().with_n(42).n == 42


class TestUniformCounts:
    def test_divisible(self):
        assert uniform_counts(12, 4) == (3, 3, 3, 3)

    def test_remainder_to_front(self):
        assert uniform_counts(14, 4) == (4, 4, 3, 3)

    def test_n_smaller_than_p(self):
        assert uniform_counts(2, 4) == (1, 1, 0, 0)

    def test_zero(self):
        assert uniform_counts(0, 3) == (0, 0, 0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            uniform_counts(5, 0)
        with pytest.raises(ValueError):
            uniform_counts(-1, 3)

    def test_method_matches_function(self):
        prob = simple_problem(14)
        assert prob.uniform_distribution() == uniform_counts(14, 3)


class TestDistributionResult:
    def test_validation_on_construction(self):
        prob = simple_problem()
        with pytest.raises(ValueError):
            DistributionResult(prob, (1, 1, 1), 0.0, "x")

    def test_imbalance_ignores_idle(self):
        prob = simple_problem()
        res = DistributionResult(prob, (0, 0, 10), prob.makespan([0, 0, 10]), "x")
        assert res.imbalance == 0.0  # only the root worked

    def test_imbalance_range(self):
        prob = simple_problem()
        res = DistributionResult(prob, (2, 3, 5), prob.makespan([2, 3, 5]), "x")
        assert 0.0 <= res.imbalance <= 1.0

    def test_as_array(self):
        prob = simple_problem()
        res = DistributionResult(prob, (2, 3, 5), 0.0, "x")
        assert res.as_array().tolist() == [2, 3, 5]

    def test_int_tuple_counts_are_kept_not_copied(self):
        """A served result shares its cached plan's counts tuple."""
        prob = simple_problem()
        counts = tuple(int(c) for c in "235")
        assert DistributionResult(prob, counts, 0.0, "x").counts is counts
        converted = DistributionResult(prob, [2, 3, 5], 0.0, "x").counts
        assert converted == (2, 3, 5) and type(converted) is tuple
        with pytest.raises(ValueError):
            DistributionResult(prob, (2, 3, -5), 0.0, "x")

    def test_pickle_round_trip(self):
        import pickle

        prob = simple_problem()
        back = pickle.loads(pickle.dumps(prob))
        assert back == prob and back.names == prob.names
        assert pickle.loads(pickle.dumps(prob.processors[0])) == prob.processors[0]

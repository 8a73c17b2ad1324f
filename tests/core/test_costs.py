"""Unit tests for the cost-function model."""

from fractions import Fraction

import numpy as np
import pytest

from repro.core.costs import (
    AffineCost,
    CallableCost,
    LinearCost,
    PiecewiseLinearCost,
    TabulatedCost,
    ZeroCost,
    as_fraction,
    cost_fingerprint,
    fit_affine,
    fit_linear,
    scale_cost,
)


class TestAsFraction:
    def test_int_passthrough(self):
        assert as_fraction(3) == Fraction(3)

    def test_fraction_passthrough(self):
        f = Fraction(7, 3)
        assert as_fraction(f) is f or as_fraction(f) == f

    def test_float_exact_binary(self):
        assert as_fraction(0.5) == Fraction(1, 2)
        assert as_fraction(0.1) == Fraction(0.1)  # exact binary expansion

    def test_numpy_scalars(self):
        assert as_fraction(np.int64(5)) == Fraction(5)
        assert as_fraction(np.float64(0.25)) == Fraction(1, 4)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            as_fraction(float("nan"))

    def test_inf_rejected(self):
        with pytest.raises(ValueError):
            as_fraction(float("inf"))

    def test_unsupported_type(self):
        with pytest.raises(TypeError):
            as_fraction("0.5")  # type: ignore[arg-type]


class TestZeroCost:
    def test_always_zero(self):
        z = ZeroCost()
        assert z(0) == 0.0
        assert z(10**9) == 0.0
        assert z.exact(5) == 0

    def test_many_shape(self):
        z = ZeroCost()
        out = z.many(np.arange(12).reshape(3, 4))
        assert out.shape == (3, 4)
        assert (out == 0).all()

    def test_flags(self):
        z = ZeroCost()
        assert z.is_linear and z.is_affine and z.is_increasing
        assert z.rate == 0 and z.intercept == 0


class TestLinearCost:
    def test_evaluation(self):
        c = LinearCost(0.5)
        assert c(4) == 2.0
        assert c.exact(3) == Fraction(3, 2)

    def test_exact_keeps_fractions(self):
        c = LinearCost(Fraction(1, 3))
        assert c.exact(9) == 3

    def test_many_matches_scalar(self):
        c = LinearCost(0.007)
        xs = np.arange(50)
        np.testing.assert_allclose(c.many(xs), [c(int(x)) for x in xs])

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            LinearCost(-1e-9)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            LinearCost(1.0).exact(-1)

    def test_flags_and_accessors(self):
        c = LinearCost(2)
        assert c.is_linear and c.is_affine and c.is_increasing
        assert c.rate == 2 and c.intercept == 0

    def test_equality_and_hash(self):
        assert LinearCost(0.5) == LinearCost(Fraction(1, 2))
        assert hash(LinearCost(0.5)) == hash(LinearCost(Fraction(1, 2)))
        assert LinearCost(0.5) != LinearCost(0.25)

    def test_check_valid_noop(self):
        LinearCost(1.0).check_valid(100)  # no exception


class TestAffineCost:
    def test_zero_is_free_default(self):
        c = AffineCost(0.1, 3.0)
        assert c(0) == 0.0
        assert c.exact(0) == 0
        assert c(1) == pytest.approx(3.1)

    def test_pure_affine_mode(self):
        c = AffineCost(0.1, 3.0, zero_is_free=False)
        assert c(0) == 3.0
        assert c.exact(0) == 3

    def test_many_zero_handling(self):
        c = AffineCost(1.0, 5.0)
        out = c.many(np.array([0, 1, 2]))
        np.testing.assert_allclose(out, [0.0, 6.0, 7.0])

    def test_is_linear_iff_no_intercept(self):
        assert AffineCost(1.0, 0.0).is_linear
        assert not AffineCost(1.0, 0.5).is_linear

    def test_negative_coefficients_rejected(self):
        with pytest.raises(ValueError):
            AffineCost(-1.0, 0.0)
        with pytest.raises(ValueError):
            AffineCost(1.0, -0.5)

    def test_check_valid_rejects_non_null_zero(self):
        with pytest.raises(ValueError):
            AffineCost(1.0, 1.0, zero_is_free=False).check_valid(10)
        AffineCost(1.0, 1.0).check_valid(10)  # zero_is_free: fine

    def test_accessors(self):
        c = AffineCost(Fraction(1, 4), Fraction(2))
        assert c.rate == Fraction(1, 4)
        assert c.intercept == 2


class TestTabulatedCost:
    def test_lookup(self):
        c = TabulatedCost([0.0, 1.0, 1.5, 4.0])
        assert c(2) == 1.5
        assert c.exact(3) == 4

    def test_monotonicity_detection(self):
        assert TabulatedCost([0, 1, 2, 2, 3]).is_increasing
        assert not TabulatedCost([0, 2, 1]).is_increasing

    def test_out_of_range(self):
        c = TabulatedCost([0.0, 1.0])
        with pytest.raises(IndexError):
            c.exact(5)

    def test_check_valid_coverage(self):
        c = TabulatedCost([0.0, 1.0, 2.0])
        c.check_valid(2)
        with pytest.raises(ValueError):
            c.check_valid(3)

    def test_check_valid_null_at_zero(self):
        with pytest.raises(ValueError):
            TabulatedCost([1.0, 2.0]).check_valid(1)

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            TabulatedCost([0.0, -1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TabulatedCost([])

    def test_many(self):
        c = TabulatedCost([0.0, 2.0, 5.0])
        np.testing.assert_allclose(c.many(np.array([2, 0, 1])), [5.0, 0.0, 2.0])


class TestPiecewiseLinearCost:
    def test_interpolation(self):
        c = PiecewiseLinearCost([(0, 0), (10, 5), (20, 25)])
        assert c(5) == pytest.approx(2.5)
        assert c(15) == pytest.approx(15.0)
        assert c.exact(10) == 5

    def test_extrapolation_beyond_last(self):
        c = PiecewiseLinearCost([(0, 0), (10, 5)])
        assert c.exact(20) == 10  # final slope 0.5
        np.testing.assert_allclose(c.many(np.array([20, 30])), [10.0, 15.0])

    def test_must_start_at_origin(self):
        with pytest.raises(ValueError):
            PiecewiseLinearCost([(1, 0), (2, 1)])
        with pytest.raises(ValueError):
            PiecewiseLinearCost([(0, 1), (2, 2)])

    def test_strictly_increasing_x(self):
        with pytest.raises(ValueError):
            PiecewiseLinearCost([(0, 0), (5, 2), (5, 3)])

    def test_monotonicity_flag(self):
        assert PiecewiseLinearCost([(0, 0), (5, 2), (9, 2)]).is_increasing
        assert not PiecewiseLinearCost([(0, 0), (5, 2), (9, 1)]).is_increasing

    def test_exact_matches_float(self):
        c = PiecewiseLinearCost([(0, 0), (7, 3), (50, 20)])
        for x in [0, 3, 7, 20, 50, 80]:
            assert float(c.exact(x)) == pytest.approx(c(x))

    def test_scaled_cost_equals_one_built_from_scaled_breakpoints(self):
        pts = [(0, 0), (Fraction(7, 2), 0.3), (50, 2.0), (60, 2.0)]
        f = Fraction(1023, 1000)
        scaled = scale_cost(PiecewiseLinearCost(pts), f)
        built = PiecewiseLinearCost([(x, as_fraction(t) * f) for x, t in pts])
        assert cost_fingerprint(scaled) == cost_fingerprint(built)
        xs = np.arange(81)
        assert [scaled.exact(int(x)) for x in xs] == [built.exact(int(x)) for x in xs]
        assert np.array_equal(scaled.many(xs), built.many(xs))
        assert scaled(17) == built(17)
        assert scaled.is_increasing

    def test_scaled_cost_shares_x_breakpoints(self):
        base = PiecewiseLinearCost([(0, 0), (10, 5), (20, 25)])
        scaled = scale_cost(base, 2)
        assert scaled._xs is base._xs and scaled._xs_float is base._xs_float
        assert not base._xs_float.flags.writeable


class TestCallableCost:
    def test_wraps_function(self):
        c = CallableCost(lambda x: 0.5 * x * x, increasing=True)
        assert c(4) == 8.0
        assert c.exact(2) == 2
        assert c.is_increasing

    def test_default_not_increasing(self):
        assert not CallableCost(lambda x: x).is_increasing

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            CallableCost(lambda x: x).exact(-2)

    def test_many_via_default(self):
        c = CallableCost(lambda x: 2.0 * x)
        np.testing.assert_allclose(c.many(np.array([1, 2, 3])), [2.0, 4.0, 6.0])


class TestFits:
    def test_fit_linear_recovers_rate(self):
        xs = np.arange(1, 50)
        ts = 0.013 * xs
        fit = fit_linear(xs, ts)
        assert float(fit.rate) == pytest.approx(0.013)

    def test_fit_linear_noisy(self):
        rng = np.random.default_rng(1)
        xs = np.arange(1, 200)
        ts = 0.01 * xs + rng.normal(0, 1e-4, xs.size)
        assert float(fit_linear(xs, ts).rate) == pytest.approx(0.01, rel=1e-2)

    def test_fit_linear_rejects_empty(self):
        with pytest.raises(ValueError):
            fit_linear([], [])

    def test_fit_linear_rejects_all_zero_counts(self):
        with pytest.raises(ValueError):
            fit_linear([0, 0], [1.0, 2.0])

    def test_fit_affine_recovers_both(self):
        xs = np.arange(1, 100)
        ts = 0.02 * xs + 1.5
        fit = fit_affine(xs, ts)
        assert float(fit.rate) == pytest.approx(0.02)
        assert float(fit.intercept) == pytest.approx(1.5)

    def test_fit_affine_clamps_negative_intercept(self):
        xs = np.array([1.0, 2.0, 3.0])
        ts = 0.5 * xs - 0.2
        fit = fit_affine(xs, ts)
        assert float(fit.intercept) == 0.0

    def test_fit_affine_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_affine([1], [0.5])

"""Tests for the §3.3 rounding schemes."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import round_largest_remainder, round_paper, solve_rational
from repro.core.heuristic import solve_lp_rational
from repro.core.rounding import check_rounding
from repro.verify.fuzz import generate_instance
from repro.verify.references import round_paper_reference
from repro.workloads import random_affine_problem, random_linear_problem

F = Fraction


class TestRoundPaper:
    def test_already_integral(self):
        assert round_paper([F(3), F(4), F(5)], 12) == (3, 4, 5)

    def test_simple_halves(self):
        out = round_paper([F(3, 2), F(5, 2), F(6)], 10)
        assert sum(out) == 10
        assert out[2] == 6  # integral share untouched
        assert sorted(out[:2]) == [1, 3] or sorted(out[:2]) == [2, 2]

    def test_invariants_random(self):
        import random

        rng = random.Random(42)
        for _ in range(200):
            p = rng.randint(1, 8)
            n = rng.randint(0, 50)
            # Random rational split of n.
            weights = [F(rng.randint(1, 100)) for _ in range(p)]
            total = sum(weights)
            shares = [w * n / total for w in weights]
            # Fix the residue exactly on the last share.
            shares[-1] += n - sum(shares)
            if shares[-1] < 0:
                continue
            out = round_paper(shares, n)
            assert sum(out) == n
            assert all(c >= 0 for c in out)
            for c, s in zip(out, shares):
                assert abs(F(c) - s) < 1

    def test_single_share(self):
        assert round_paper([F(7)], 7) == (7,)

    def test_two_thirds_pair(self):
        out = round_paper([F(2, 3), F(1, 3)], 1)
        assert sum(out) == 1
        assert set(out) == {0, 1}

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            round_paper([F(1, 2), F(1, 2)], 2)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            round_paper([F(-1, 2), F(5, 2)], 2)

    def test_tiny_shares_never_go_negative(self):
        # Many shares just above zero: rounding must stay >= 0.
        shares = [F(1, 10)] * 10
        out = round_paper(shares, 1)
        assert sum(out) == 1
        assert all(c in (0, 1) for c in out)


class TestRoundPaperAdversarial:
    """Stress cases engineered against the §3.3 sweep: integer-adjacent
    ties, accumulated error crossing zero, and all-fractional inputs."""

    def test_integer_adjacent_ties(self):
        # Shares sitting epsilon away from integers on both sides: the
        # accumulated-error rule must still land within distance 1.
        eps = F(1, 10**9)
        shares = [F(3) - eps, F(2) + eps, F(5) - eps, F(2) + eps]
        n = 12
        shares[-1] += n - sum(shares)
        out = check_rounding(shares, round_paper(shares, n), n)
        assert sum(out) == n

    def test_accumulated_error_crosses_zero(self):
        # Alternating fractional parts push the running error e above and
        # below zero repeatedly — each step must still round to floor or
        # ceil of its own share.
        shares = [F(3, 4), F(1, 4), F(3, 4), F(1, 4), F(3, 4), F(5, 4)]
        n = 4
        assert sum(shares) == n
        out = check_rounding(shares, round_paper(shares, n), n)
        assert all(abs(F(c) - s) < 1 for c, s in zip(out, shares))

    def test_all_fractional_inputs(self):
        # No share is integral; everything must be decided by the error
        # accumulation alone.
        shares = [F(1, 2)] * 8
        out = check_rounding(shares, round_paper(shares, 4), 4)
        assert sorted(out) == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_non_integral_total_rejected(self):
        with pytest.raises(ValueError):
            round_paper([F(1, 2)] * 9, 4)

    def test_sevenths_cycle(self):
        # 1/7 has a 6-digit repeating expansion; ten of them force the
        # error to wander before the final share absorbs the residue.
        shares = [F(1, 7)] * 10
        n = 2
        shares[-1] += n - sum(shares)
        out = check_rounding(shares, round_paper(shares, n), n)
        assert sum(out) == n
        assert all(c >= 0 for c in out)

    def test_mixed_signs_of_error_drift(self):
        rng_shares = [F(9, 10), F(1, 10), F(9, 10), F(1, 10), F(10, 10)]
        n = 3
        out = check_rounding(rng_shares, round_paper(rng_shares, n), n)
        assert sum(out) == n

    def test_zero_items(self):
        assert round_paper([F(0), F(0)], 0) == (0, 0)


class TestRoundLargestRemainder:
    def test_classic_apportionment(self):
        out = round_largest_remainder([F(14, 10), F(13, 10), F(3, 10)], 3)
        assert sum(out) == 3
        assert out[2] == 0  # smallest remainder loses

    def test_invariants_random(self):
        import random

        rng = random.Random(7)
        for _ in range(100):
            p = rng.randint(1, 6)
            n = rng.randint(0, 30)
            weights = [F(rng.randint(1, 50)) for _ in range(p)]
            total = sum(weights)
            shares = [w * n / total for w in weights]
            shares[-1] += n - sum(shares)
            if shares[-1] < 0:
                continue
            out = round_largest_remainder(shares, n)
            assert sum(out) == n
            for c, s in zip(out, shares):
                assert abs(F(c) - s) < 1


@st.composite
def rational_solutions(draw):
    """A random LP-style solution: non-negative rational shares whose sum
    is the integer ``n`` — exactly what the §3.3 rounding step receives."""
    p = draw(st.integers(min_value=1, max_value=12))
    n = draw(st.integers(min_value=0, max_value=500))
    weights = draw(
        st.lists(
            st.fractions(
                min_value=F(0), max_value=F(10_000), max_denominator=10_000
            ),
            min_size=p,
            max_size=p,
        )
    )
    total = sum(weights, F(0))
    if total == 0:
        weights = [F(1)] * p
        total = F(p)
    shares = [w * n / total for w in weights]
    # Exact-arithmetic residue repair on the largest share keeps every
    # entry non-negative and the sum exactly n.
    biggest = max(range(p), key=lambda i: shares[i])
    shares[biggest] += n - sum(shares, F(0))
    return shares, n


class TestRoundingProperties:
    """Hypothesis: Eq. 4's hypothesis |n_i − n'_i| < 1 and Σ n'_i = n must
    hold for *every* rational solution, not just solver-shaped ones."""

    @given(rational_solutions())
    @settings(max_examples=200, deadline=None)
    def test_round_paper_invariants(self, case):
        shares, n = case
        out = round_paper(shares, n)
        assert sum(out) == n
        assert len(out) == len(shares)
        assert all(isinstance(c, int) and c >= 0 for c in out)
        for count, share in zip(out, shares):
            assert abs(F(count) - share) < 1

    @given(rational_solutions())
    @settings(max_examples=200, deadline=None)
    def test_round_largest_remainder_invariants(self, case):
        shares, n = case
        out = round_largest_remainder(shares, n)
        assert sum(out) == n
        assert all(isinstance(c, int) and c >= 0 for c in out)
        for count, share in zip(out, shares):
            assert abs(F(count) - share) < 1

    @given(rational_solutions())
    @settings(max_examples=100, deadline=None)
    def test_integral_shares_are_fixed_points(self, case):
        shares, n = case
        floored = [F(int(s)) for s in shares]
        m = int(sum(floored))
        assert round_paper(floored, m) == tuple(int(s) for s in floored)


class TestCheckRounding:
    def test_passes_valid(self):
        assert check_rounding([F(3, 2), F(5, 2)], (2, 2), 4) == (2, 2)

    def test_rejects_wrong_sum(self):
        with pytest.raises(AssertionError):
            check_rounding([F(3, 2), F(5, 2)], (2, 3), 4)

    def test_rejects_distance_one(self):
        with pytest.raises(AssertionError):
            check_rounding([F(1), F(3)], (0, 4), 4)

    def test_rejects_negative_count(self):
        with pytest.raises(AssertionError):
            check_rounding([F(1, 2), F(7, 2)], (-1, 5), 4)

    def test_rejects_length_mismatch(self):
        with pytest.raises(AssertionError):
            check_rounding([F(1)], (1, 0), 1)


def _largest_remainder_by_fraction_sort(shares, n):
    """Hamilton apportionment as one ``Fraction`` sort by (remainder, −i)."""
    vals = [F(s) for s in shares]
    out = [int(v // 1) for v in vals]
    order = sorted(range(len(vals)), key=lambda i: (vals[i] % 1, -i), reverse=True)
    for i in order[: n - sum(out)]:
        out[i] += 1
    return tuple(out)


@st.composite
def tie_heavy_shares(draw):
    """Shares over denominators 2–12 with exact halves, zeros and integers
    mixed in (n <= 50), so all three pick orders meet equal distances and
    the index tie-break decides."""
    part = st.one_of(
        st.integers(min_value=0, max_value=4).map(F),
        st.integers(min_value=0, max_value=3).map(lambda k: F(2 * k + 1, 2)),
        st.integers(min_value=2, max_value=12).flatmap(
            lambda d: st.integers(min_value=0, max_value=4 * d).map(lambda k: F(k, d))
        ),
    )
    shares = draw(st.lists(part, min_size=1, max_size=12))
    total = sum(shares, F(0))
    n = math.ceil(total)
    # The residue goes in at a drawn position, not always last.
    at = draw(st.integers(min_value=0, max_value=len(shares)))
    shares.insert(at, n - total)
    return shares, n


@st.composite
def solver_shares(draw):
    """Rational optima the closed form and the LP hand to the rounding:
    the fuzzer's linear-family and affine platforms, plus random linear
    chains up to p = 48 at n up to 10^6."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = random.Random(seed)
    kind = draw(st.sampled_from(
        ["linear", "adversarial", "degenerate", "affine", "chain", "lp-chain"]
    ))
    if kind == "chain":
        prob = random_linear_problem(rng, rng.randint(2, 48), rng.randint(0, 10**6))
    elif kind == "lp-chain":
        prob = random_affine_problem(rng, rng.randint(2, 12), rng.randint(1, 10**6))
    else:
        prob = generate_instance(kind, rng)
    if prob.is_linear and kind != "affine":
        return list(solve_rational(prob).shares), prob.n
    return solve_lp_rational(prob)[0], prob.n


class TestMatchesPaperLoop:
    """The common-denominator rounding returns exactly the counts of the
    paper's O(p²) ``Fraction`` loop (``round_paper_reference``), and the
    integer Hamilton sort those of the ``Fraction`` sort."""

    @given(tie_heavy_shares())
    @settings(max_examples=400, deadline=None)
    def test_tie_heavy_shares(self, case):
        shares, n = case
        assert round_paper(shares, n) == round_paper_reference(shares, n)
        assert round_largest_remainder(shares, n) == (
            _largest_remainder_by_fraction_sort(shares, n)
        )

    @given(solver_shares())
    @settings(max_examples=120, deadline=None)
    def test_solver_shares(self, case):
        shares, n = case
        assert round_paper(shares, n) == round_paper_reference(shares, n)
        assert round_largest_remainder(shares, n) == (
            _largest_remainder_by_fraction_sort(shares, n)
        )

    @given(rational_solutions())
    @settings(max_examples=200, deadline=None)
    def test_random_rational_solutions(self, case):
        shares, n = case
        assert round_paper(shares, n) == round_paper_reference(shares, n)

    def test_same_errors_as_paper_loop(self):
        for shares, n in (([F(-1, 2), F(5, 2)], 2), ([F(1, 2), F(1, 2)], 2)):
            with pytest.raises(ValueError) as ours:
                round_paper(shares, n)
            with pytest.raises(ValueError) as ref:
                round_paper_reference(shares, n)
            assert str(ours.value) == str(ref.value)

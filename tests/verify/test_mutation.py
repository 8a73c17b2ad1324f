"""The mutation smoke-check: the harness must catch a planted bug."""

from fractions import Fraction

from repro.verify.fuzz import (
    _MUTATION_MODE,
    _mutant_round_floor_dump,
    _replay,
    mutation_smoke_check,
    problem_from_dict,
)

F = Fraction


class TestMutantRounding:
    def test_mutant_preserves_sum_but_not_distance(self):
        shares = [F(5, 3), F(5, 3), F(5, 3)]
        out = _mutant_round_floor_dump(shares, 5)
        assert sum(out) == 5
        # All leftover lands on index 0: |3 - 5/3| >= 1.
        assert out == (3, 1, 1)
        assert abs(F(out[0]) - shares[0]) >= 1

    def test_mutant_is_honest_on_integral_shares(self):
        shares = [F(2), F(3), F(1)]
        assert _mutant_round_floor_dump(shares, 6) == (2, 3, 1)


class TestMutationSmokeCheck:
    def test_planted_bug_is_caught_and_shrunk(self):
        result = mutation_smoke_check()
        assert result.caught, "oracles failed to flag the planted rounding bug"
        ce = result.counterexample
        # Acceptance criterion: shrunk counterexample with p <= 3, n <= 20.
        assert ce.shrunk_p <= 3
        assert ce.shrunk_n <= 20
        assert ce.violations
        flagged = {oracle_id for oracle_id, _ in ce.violations}
        assert flagged & {"rounding-within-one", "eq4-lp-bound", "dist-valid"}

    def test_counterexample_reproduces(self):
        ce = mutation_smoke_check().counterexample
        assert ce is not None
        problem = problem_from_dict(ce.problem)
        replay = _replay(_MUTATION_MODE, problem, _MUTATION_MODE.oracles())
        assert replay
        assert tuple(replay) == ce.violations

    def test_deterministic(self):
        a = mutation_smoke_check()
        b = mutation_smoke_check()
        assert a.to_dict() == b.to_dict()

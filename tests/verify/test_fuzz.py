"""Tests for the differential fuzzer (repro.verify.fuzz)."""

import random

import pytest

from repro.core import IncrementalPlanner, PiecewiseLinearCost, ScatterProblem, plan_scatter
from repro.verify.fuzz import (
    FUZZ_MAX_DP_N,
    INCREMENTAL_OPS,
    SHAPE_SCHEDULE,
    SHAPES,
    _instance_rng,
    _mutate_problem,
    fuzz,
    fuzz_incremental,
    fuzz_tree,
    generate_instance,
    problem_from_dict,
    problem_to_dict,
    shrink,
)


class TestGenerators:
    def test_every_shape_generates_valid_problems(self):
        rng = random.Random(1234)
        for shape in SHAPES:
            for _ in range(5):
                problem = generate_instance(shape, rng)
                assert isinstance(problem, ScatterProblem)
                assert problem.p >= 1
                assert problem.n >= 0
                problem.check_valid()

    def test_unknown_shape_rejected(self):
        with pytest.raises(ValueError, match="unknown instance shape"):
            generate_instance("cubist", random.Random(0))

    def test_schedule_only_uses_known_shapes(self):
        assert set(SHAPE_SCHEDULE) <= set(SHAPES)

    def test_generation_is_seed_deterministic(self):
        a = generate_instance("affine", random.Random(99))
        b = generate_instance("affine", random.Random(99))
        assert problem_to_dict(a) == problem_to_dict(b)


class TestRoundTrip:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_problem_dict_round_trip(self, shape):
        rng = random.Random(7)
        for _ in range(3):
            problem = generate_instance(shape, rng)
            doc = problem_to_dict(problem)
            back = problem_from_dict(doc)
            assert back.n == problem.n
            assert back.p == problem.p
            assert problem_to_dict(back) == doc
            # Cost semantics survive: same makespan on a uniform split.
            from repro.core.distribution import uniform_counts

            counts = uniform_counts(problem.n, problem.p)
            assert problem.makespan_exact(counts) == back.makespan_exact(counts)


class TestFuzzLoop:
    def test_clean_on_shipped_tree(self):
        outcome = fuzz(40, base_seed=0)
        assert outcome.ok, [ce.to_dict() for ce in outcome.counterexamples]
        assert outcome.stats.instances == 40

    def test_deterministic_across_runs(self):
        a = fuzz(20, base_seed=5)
        b = fuzz(20, base_seed=5)
        assert a.stats.to_dict() == b.stats.to_dict()
        assert [ce.to_dict() for ce in a.counterexamples] == [
            ce.to_dict() for ce in b.counterexamples
        ]

    def test_oracle_filter_restricts_checks(self):
        outcome = fuzz(10, base_seed=0, only_oracles=["thm1-duration"])
        assert set(outcome.stats.oracle_checked) <= {"thm1-duration"}

    def test_unknown_oracle_raises(self):
        with pytest.raises(KeyError):
            fuzz(2, only_oracles=["nope"])

    def test_unknown_shape_raises(self):
        with pytest.raises(ValueError):
            fuzz(2, shapes=["nope"])

    def test_shape_override(self):
        outcome = fuzz(6, base_seed=1, shapes=["degenerate"])
        assert outcome.stats.shapes == {"degenerate": 6}


class TestGuidedMode:
    def test_guided_is_deterministic(self):
        a = fuzz(15, base_seed=9, guided=True)
        b = fuzz(15, base_seed=9, guided=True)
        assert a.stats.to_dict() == b.stats.to_dict()

    def test_guided_explores_every_shape_then_biases(self):
        outcome = fuzz(30, base_seed=3, guided=True)
        assert outcome.ok, [ce.to_dict() for ce in outcome.counterexamples]
        # The selector must draw every candidate shape (the default
        # rotation's; opt-in shapes stay out) at least once...
        assert set(outcome.stats.shapes) == set(SHAPE_SCHEDULE)
        # ...and then exploit: the distribution is not the uniform-ish
        # static rotation (some shape is drawn strictly more than others).
        counts = sorted(outcome.stats.shapes.values())
        assert counts[-1] > counts[0]

    def test_guided_respects_shape_subset(self):
        outcome = fuzz(10, base_seed=1, guided=True, shapes=["linear", "affine"])
        assert set(outcome.stats.shapes) <= {"linear", "affine"}


class TestIncrementalMode:
    def test_churn_schedules_byte_match_cold(self):
        outcome = fuzz_incremental(25, base_seed=0)
        assert outcome.ok, [ce.to_dict() for ce in outcome.counterexamples]
        assert outcome.stats.instances == 25
        # Every step ran both the warm and the cold solver.
        assert outcome.stats.solver_runs >= 2 * 25

    def test_deterministic_across_runs(self):
        a = fuzz_incremental(10, base_seed=21)
        b = fuzz_incremental(10, base_seed=21)
        assert a.to_dict() == b.to_dict()

    def test_ops_validated(self):
        with pytest.raises(ValueError, match="ops"):
            fuzz_incremental(1, ops=0)

    def test_unknown_shape_raises(self):
        with pytest.raises(ValueError):
            fuzz_incremental(2, shapes=["nope"])

    def test_mutations_preserve_validity(self):
        rng = random.Random(77)
        for shape in SHAPES:
            problem = generate_instance(shape, _instance_rng(0, 13))
            current = problem
            for _ in range(8):
                op, current = _mutate_problem(current, problem.n, rng)
                assert op in INCREMENTAL_OPS
                current.check_valid()
                assert current.p >= 1
                assert 0 <= current.n <= problem.n


class TestKneeShape:
    """The opt-in ``knee`` shape: many-piece links at dp-fast's sizes."""

    def test_knee_is_opt_in(self):
        assert "knee" in SHAPES
        assert "knee" not in SHAPE_SCHEDULE

    def test_knee_instances(self):
        rng = random.Random(3)
        problems = [generate_instance("knee", rng) for _ in range(30)]
        assert max(problem.n for problem in problems) > FUZZ_MAX_DP_N
        assert max(problem.p for problem in problems) >= 7
        pieces = set()
        for problem in problems:
            for proc in problem.processors:
                assert isinstance(proc.comp, PiecewiseLinearCost)
                pieces.add(len(proc.comp._xs) - 1)
        assert pieces == {1, 2, 3, 4, 5}

    def test_knee_fuzz_clean(self):
        outcome = fuzz(12, base_seed=2, shapes=("knee",))
        assert outcome.ok, [ce.to_dict() for ce in outcome.counterexamples]
        checked = outcome.stats.oracle_checked
        for oracle_id in ("exact-agree", "eq1-recompute", "incremental-matches-cold"):
            assert checked[oracle_id] == 12

    def test_knee_churn_byte_matches_cold(self):
        outcome = fuzz_incremental(8, base_seed=3, shapes=("knee",), ops=6)
        assert outcome.ok, [ce.to_dict() for ce in outcome.counterexamples]
        assert outcome.stats.shapes == {"knee": 8}

    def test_knee_n_shrink_reuses_every_row(self):
        drawn = (generate_instance("knee", _instance_rng(0, seed)) for seed in range(50))
        problem = next(problem for problem in drawn if problem.n > 1_000)
        planner = IncrementalPlanner()
        planner.plan(problem)
        for n in (problem.n // 2, problem.n // 7):
            shrunk = problem.with_n(n)
            warm = planner.plan(shrunk)
            cold = plan_scatter(shrunk, order_policy=None)
            assert warm.info["incremental"]["warm_rows"] == problem.p
            assert warm.counts == cold.counts
            assert warm.makespan == cold.makespan


class TestTreeMode:
    def test_tree_corpus_clean(self):
        outcome = fuzz_tree(25, base_seed=0)
        assert outcome.ok, [ce.to_dict() for ce in outcome.counterexamples]
        assert outcome.stats.instances == 25
        # Every instance ran both the flat and the tree planner.
        assert outcome.stats.solver_runs >= 2 * 25

    def test_tree_lower_bound_oracle_exercised(self):
        outcome = fuzz_tree(20, base_seed=1)
        assert outcome.ok, [ce.to_dict() for ce in outcome.counterexamples]
        assert outcome.stats.oracle_checked.get("tree-lower-bound", 0) >= 20
        # The warm-vs-cold differential oracle is the one check that does
        # not apply to the tree sweep (it re-plans flat schedules).
        assert "incremental-matches-cold" not in outcome.stats.oracle_checked

    def test_deterministic_across_runs(self):
        a = fuzz_tree(10, base_seed=21)
        b = fuzz_tree(10, base_seed=21)
        assert a.to_dict() == b.to_dict()

    def test_unknown_shape_raises(self):
        with pytest.raises(ValueError):
            fuzz_tree(2, shapes=["nope"])

    def test_shape_subset_respected(self):
        outcome = fuzz_tree(8, base_seed=4, shapes=["affine"])
        assert set(outcome.stats.shapes) == {"affine"}


class TestShrink:
    def test_shrinks_processor_count_and_n(self):
        rng = random.Random(42)
        problem = generate_instance("linear", rng)
        # Predicate independent of the instance detail: "has >= 2 procs".
        shrunk = shrink(problem, lambda cand: cand.p >= 2)
        assert shrunk.p == 2
        assert shrunk.n == 0

    def test_keeps_failure_reproducible(self):
        rng = random.Random(43)
        problem = generate_instance("affine", rng)

        def fails(cand):
            return cand.n >= 10

        shrunk = shrink(problem, fails)
        if problem.n >= 10:
            assert fails(shrunk)
            assert shrunk.n == 10

    def test_crashing_predicate_counts_as_failing(self):
        rng = random.Random(44)
        problem = generate_instance("linear", rng)

        def explodes(cand):
            raise RuntimeError("predicate bug")

        shrunk = shrink(problem, explodes)
        assert shrunk.p == 1  # everything was droppable


@pytest.mark.slow
class TestDeepFuzz:
    """The acceptance-criteria tier: >= 100 instances per theorem oracle."""

    def test_deep_fuzz_clean_and_covered(self):
        outcome = fuzz(350, base_seed=0)
        assert outcome.ok, [ce.to_dict() for ce in outcome.counterexamples]
        checked = outcome.stats.oracle_checked
        for oracle_id in (
            "thm1-duration",
            "thm2-endings",
            "thm3-ordering",
            "eq4-lp-bound",
        ):
            assert checked.get(oracle_id, 0) >= 100, (oracle_id, checked)

    def test_second_base_seed_also_clean(self):
        outcome = fuzz(150, base_seed=0xA5A5)
        assert outcome.ok, [ce.to_dict() for ce in outcome.counterexamples]

    def test_incremental_differential_500_schedules(self):
        # Acceptance tier: every warm re-plan byte-matches the cold solve
        # across >= 500 seeded kill/perturb/resize schedules.
        outcome = fuzz_incremental(500, base_seed=0)
        assert outcome.ok, [ce.to_dict() for ce in outcome.counterexamples]
        assert outcome.stats.instances == 500

    def test_tree_differential_500_seeds(self):
        # Acceptance tier: the tree planner dominates flat and satisfies
        # every applicable oracle (tree-lower-bound included) on >= 500
        # fuzzed instances.
        outcome = fuzz_tree(500, base_seed=0)
        assert outcome.ok, [ce.to_dict() for ce in outcome.counterexamples]
        assert outcome.stats.instances == 500
        assert outcome.stats.oracle_checked.get("tree-lower-bound", 0) >= 500

"""Tests for the differential fuzzer (repro.verify.fuzz)."""

import dataclasses
import random

import pytest

import repro.core.solver
import repro.core.trees
import repro.verify.oracles
from repro.core import IncrementalPlanner, PiecewiseLinearCost, ScatterProblem, plan_scatter
from repro.verify.fuzz import (
    FUZZ_MAX_DP_N,
    INCREMENTAL_OPS,
    MODES,
    SHAPE_SCHEDULE,
    SHAPES,
    _instance_rng,
    _mutate_problem,
    _replay,
    fuzz,
    generate_instance,
    problem_from_dict,
    problem_to_dict,
    shrink,
)
from repro.verify.oracles import ORACLES, register_oracle


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

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError, match="unknown fuzz mode"):
            fuzz(1, mode="nope")

    @pytest.mark.parametrize("mode", ["incremental", "tree"])
    def test_oracle_filter_restricts_every_mode(self, mode):
        outcome = fuzz(3, mode=mode, only_oracles=["dist-valid"])
        assert set(outcome.stats.oracle_checked) == {"dist-valid"}

    @pytest.mark.parametrize("mode", ["incremental", "tree"])
    def test_exact_agree_only_where_exact_dps_run(self, mode):
        """The differential modes key their results cold/incremental and
        flat/tree, so exact-agree would compare nothing there."""
        assert "exact-agree" not in MODES[mode].oracles()
        assert "exact-agree" not in fuzz(3, mode=mode).stats.oracle_checked
        assert fuzz(3).stats.oracle_checked["exact-agree"] == 3


class TestRegisteredOracle:
    """An oracle registered after import runs in every mode."""

    @pytest.fixture
    def probe(self):
        register_oracle("probe", "flags any n above 4", applies=lambda problem: True)(
            lambda problem, results: ["n above 4"] if problem.n > 4 else []
        )
        try:
            yield "probe"
        finally:
            del ORACLES["probe"]

    @pytest.mark.parametrize("mode", ["oracles", "incremental", "tree"])
    def test_checked_and_reported(self, probe, mode):
        outcome = fuzz(3, mode=mode, base_seed=0)
        checked = outcome.stats.oracle_checked
        # dist-valid applies everywhere too, so the counts must agree.
        assert checked[probe] == checked["dist-valid"] > 0
        assert outcome.counterexamples
        for ce in outcome.counterexamples:
            assert probe in {oid for oid, _ in ce.violations}
            assert ce.shrunk_n == 5

    def test_guided_counts_it(self, probe):
        # The probe applies everywhere, so it never becomes the coverage
        # hole: the selector draws what it draws for the stock registry.
        stock = [oid for oid in ORACLES if oid != probe]
        with_probe = fuzz(12, base_seed=0, guided=True)
        without = fuzz(12, base_seed=0, guided=True, only_oracles=stock)
        assert with_probe.stats.oracle_checked[probe] == 12
        assert with_probe.stats.shapes == without.stats.shapes


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
        outcome = fuzz(25, mode="incremental", base_seed=0)
        assert outcome.ok, [ce.to_dict() for ce in outcome.counterexamples]
        assert outcome.stats.instances == 25
        # Every step ran both the warm and the cold solver.
        assert outcome.stats.solver_runs >= 2 * 25

    def test_deterministic_across_runs(self):
        a = fuzz(10, mode="incremental", base_seed=21)
        b = fuzz(10, mode="incremental", base_seed=21)
        assert a.to_dict() == b.to_dict()

    def test_unknown_shape_raises(self):
        with pytest.raises(ValueError):
            fuzz(2, mode="incremental", shapes=["nope"])

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
        outcome = fuzz(10, mode="incremental", base_seed=3, shapes=("knee",))
        assert outcome.ok, [ce.to_dict() for ce in outcome.counterexamples]
        assert outcome.stats.shapes == {"knee": 10}

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
        outcome = fuzz(25, mode="tree", base_seed=0)
        assert outcome.ok, [ce.to_dict() for ce in outcome.counterexamples]
        assert outcome.stats.instances == 25
        # Every instance ran both the flat and the tree planner.
        assert outcome.stats.solver_runs >= 2 * 25

    def test_tree_lower_bound_oracle_exercised(self):
        outcome = fuzz(20, mode="tree", base_seed=1)
        assert outcome.ok, [ce.to_dict() for ce in outcome.counterexamples]
        assert outcome.stats.oracle_checked.get("tree-lower-bound", 0) >= 20
        # The warm-vs-cold differential oracle is the one check that does
        # not apply to the tree sweep (it re-plans flat schedules).
        assert "incremental-matches-cold" not in outcome.stats.oracle_checked

    def test_deterministic_across_runs(self):
        a = fuzz(10, mode="tree", base_seed=21)
        b = fuzz(10, mode="tree", base_seed=21)
        assert a.to_dict() == b.to_dict()

    def test_unknown_shape_raises(self):
        with pytest.raises(ValueError):
            fuzz(2, mode="tree", shapes=["nope"])

    def test_shape_subset_respected(self):
        outcome = fuzz(8, mode="tree", base_seed=4, shapes=["affine"])
        assert set(outcome.stats.shapes) == {"affine"}


def _shift_one_unit(result):
    """Move one unit from the last processor to the first, and re-evaluate
    the makespan so that only the paper's oracles can tell."""
    counts = list(result.counts)
    if len(counts) > 1 and counts[-1] > 0:
        counts[-1] -= 1
        counts[0] += 1
    exact = result.problem.makespan_exact(counts)
    return dataclasses.replace(
        result, counts=tuple(counts), makespan=float(exact), makespan_exact=exact
    )


def _scale_makespan(result, factor=1, offset=0):
    exact = result.makespan_exact
    return dataclasses.replace(
        result,
        makespan=factor * result.makespan + offset,
        makespan_exact=None if exact is None else factor * exact + offset,
    )


class TestFailurePaths:
    """One planted bug per mode: found, shrunk, and stored as its replay."""

    @staticmethod
    def _check(outcome, mode, violation_id):
        assert not outcome.ok
        for ce in outcome.counterexamples:
            assert violation_id in {oid for oid, _ in ce.violations}, ce.to_dict()
            assert ce.shrunk_p <= ce.original_p
            assert ce.shrunk_n <= ce.original_n
            replay = _replay(MODES[mode], problem_from_dict(ce.problem), MODES[mode].oracles())
            assert ce.violations == tuple(replay)
        return outcome.counterexamples

    def test_closed_form_off_by_one(self, monkeypatch):
        real = repro.core.solver.solve_closed_form
        monkeypatch.setattr(
            repro.core.solver,
            "solve_closed_form",
            lambda problem: _shift_one_unit(real(problem)),
        )
        outcome = fuzz(4, base_seed=0, shapes=("linear",))
        ces = self._check(outcome, "oracles", "rounding-within-one")
        assert [ce.seed for ce in ces] == [1, 2, 3]

    def test_doubled_tree_makespan(self, monkeypatch):
        real = repro.core.trees.plan_scatter_tree
        monkeypatch.setattr(
            repro.core.trees,
            "plan_scatter_tree",
            lambda *args, **kwargs: _scale_makespan(real(*args, **kwargs), factor=2),
        )
        outcome = fuzz(3, mode="tree", base_seed=0)
        ces = self._check(outcome, "tree", "tree-dominance")
        assert [(ce.shrunk_p, ce.shrunk_n) for ce in ces] == [(1, 1)] * 3

    def test_warm_counts_shifted(self, monkeypatch):
        real = IncrementalPlanner.plan
        monkeypatch.setattr(
            IncrementalPlanner,
            "plan",
            lambda self, problem: _shift_one_unit(real(self, problem)),
        )
        outcome = fuzz(3, mode="incremental", base_seed=0)
        self._check(outcome, "incremental", "incremental-differential")

    def test_eq1_error_on_both_sides_shrinks(self, monkeypatch):
        real_warm, real_cold = IncrementalPlanner.plan, repro.verify.oracles.plan_scatter
        monkeypatch.setattr(
            IncrementalPlanner,
            "plan",
            lambda self, problem: _scale_makespan(real_warm(self, problem), offset=1),
        )
        monkeypatch.setattr(
            repro.verify.oracles,
            "plan_scatter",
            lambda *args, **kwargs: _scale_makespan(real_cold(*args, **kwargs), offset=1),
        )
        outcome = fuzz(3, mode="incremental", base_seed=0)
        # Both sides agree, so only the oracles see the bug.
        ces = self._check(outcome, "incremental", "eq1-recompute")
        for ce in ces:
            assert "incremental-differential" not in {oid for oid, _ in ce.violations}
            assert (ce.shrunk_p, ce.shrunk_n) < (ce.original_p, ce.original_n)

    @pytest.mark.parametrize("error", [ValueError, RuntimeError])
    def test_warm_crash_is_a_finding(self, monkeypatch, error):
        def crash(self, problem):
            raise error("planted")

        monkeypatch.setattr(IncrementalPlanner, "plan", crash)
        outcome = fuzz(2, mode="incremental", base_seed=0)
        ces = self._check(outcome, "incremental", "solver-crash")
        assert ces[0].violations[0] == (
            "solver-crash",
            f"[seed] incremental: {error.__name__}: planted",
        )
        # The crashed warm solve counts as a run next to its cold solve.
        assert outcome.stats.solver_runs == 2 * len(ces)


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
        outcome = fuzz(500, mode="incremental", base_seed=0)
        assert outcome.ok, [ce.to_dict() for ce in outcome.counterexamples]
        assert outcome.stats.instances == 500

    def test_tree_differential_500_seeds(self):
        # Acceptance tier: the tree planner dominates flat and satisfies
        # every applicable oracle (tree-lower-bound included) on >= 500
        # fuzzed instances.
        outcome = fuzz(500, mode="tree", base_seed=0)
        assert outcome.ok, [ce.to_dict() for ce in outcome.counterexamples]
        assert outcome.stats.instances == 500
        assert outcome.stats.oracle_checked.get("tree-lower-bound", 0) >= 500

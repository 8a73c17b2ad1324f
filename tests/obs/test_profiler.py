"""Tests for solver profiling hooks (repro.obs.profiler)."""

import pytest

from repro.obs import StageProfile, profiling_enabled, set_profiling, stage_profile


@pytest.fixture
def profiling_on():
    old = set_profiling(True)
    yield
    set_profiling(old)


@pytest.fixture
def profiling_off():
    old = set_profiling(False)
    yield
    set_profiling(old)


class TestStageProfile:
    def test_accumulates_stage_times(self):
        prof = StageProfile()
        with prof.stage("a"):
            pass
        with prof.stage("a"):
            pass
        with prof.stage("b"):
            pass
        assert set(prof.stages) == {"a", "b"}
        assert prof.stages["a"] >= 0.0
        assert prof.total() == pytest.approx(sum(prof.stages.values()))

    def test_notes_land_in_info(self):
        prof = StageProfile()
        with prof.stage("rows"):
            pass
        prof.note(table_entries=42)
        info = prof.as_info()
        assert info["table_entries"] == 42
        assert "rows" in info["stages_s"]
        assert info["total_s"] == prof.total()

    def test_disabled_profile_is_inert(self):
        prof = StageProfile(enabled=False)
        with prof.stage("a"):
            pass
        prof.note(x=1)
        assert prof.stages == {} and prof.notes == {}
        assert prof.as_info() is None

    def test_exception_still_records(self):
        prof = StageProfile()
        with pytest.raises(RuntimeError):
            with prof.stage("boom"):
                raise RuntimeError("x")
        assert "boom" in prof.stages


class TestGlobalToggle:
    def test_stage_profile_respects_toggle(self, profiling_off):
        assert not profiling_enabled()
        prof = stage_profile()
        assert prof.as_info() is None
        # the shared null object is reused — zero allocation when disabled
        assert stage_profile() is prof

    def test_set_profiling_returns_old(self, profiling_on):
        assert set_profiling(False) is True
        assert set_profiling(True) is False


class TestSolverIntegration:
    def problem(self):
        from repro.core.distribution import Processor, ScatterProblem

        return ScatterProblem(
            [
                Processor.linear("w1", alpha=0.02, beta=2e-4),
                Processor.linear("w2", alpha=0.05, beta=1e-4),
                Processor.linear("root", alpha=0.03, beta=0.0),
            ],
            200,
        )

    @pytest.mark.parametrize("solver_name", ["basic", "optimized", "fast"])
    def test_solvers_attach_profile(self, profiling_on, solver_name):
        from repro.core.dp_basic import solve_dp_basic
        from repro.core.dp_fast import solve_dp_fast
        from repro.core.dp_optimized import solve_dp_optimized

        solver = {
            "basic": solve_dp_basic,
            "optimized": solve_dp_optimized,
            "fast": solve_dp_fast,
        }[solver_name]
        result = solver(self.problem())
        profile = result.info["profile"]
        if solver_name == "fast":
            # dp-fast evaluates its cost rows inside its row and walk stages.
            assert set(profile["stages_s"]) == {"dp_rows", "reconstruct"}
        else:
            assert set(profile["stages_s"]) >= {"cost_tables", "dp_rows", "reconstruct"}
        assert profile["total_s"] >= 0.0
        assert profile["table_entries"] > 0

    def test_disabled_removes_profile_but_not_result(self, profiling_off):
        from repro.core.dp_fast import solve_dp_fast

        result = solve_dp_fast(self.problem())
        assert "profile" not in (result.info or {})
        assert result.makespan > 0

    def test_profile_does_not_change_solution(self):
        from repro.core.dp_fast import solve_dp_fast

        old = set_profiling(True)
        try:
            with_prof = solve_dp_fast(self.problem())
            set_profiling(False)
            without = solve_dp_fast(self.problem())
        finally:
            set_profiling(old)
        assert with_prof.counts == without.counts
        assert with_prof.makespan == without.makespan


class TestAllSolversCarryProfile:
    """The con-result-profile contract: every result carries stage timings."""

    def problem(self):
        from repro.core.distribution import Processor, ScatterProblem

        return ScatterProblem(
            [
                Processor.linear("w1", alpha=0.02, beta=2e-4),
                Processor.linear("w2", alpha=0.05, beta=1e-4),
                Processor.linear("root", alpha=0.03, beta=0.0),
            ],
            200,
        )

    def weighted_problem(self):
        import numpy as np

        from repro.core.distribution import Processor
        from repro.core.weighted import WeightedScatterProblem

        procs = [
            Processor.linear("w1", alpha=0.02, beta=2e-4),
            Processor.linear("w2", alpha=0.05, beta=1e-4),
            Processor.linear("root", alpha=0.03, beta=0.0),
        ]
        return WeightedScatterProblem(procs, np.ones(60), comm_mode="count")

    def test_closed_form_stages(self, profiling_on):
        from repro.core.closed_form import solve_closed_form

        profile = solve_closed_form(self.problem()).info["profile"]
        assert set(profile["stages_s"]) == {"rational_solve", "rounding", "evaluate"}

    def test_lp_heuristic_stages(self, profiling_on):
        from repro.core.heuristic import solve_heuristic

        profile = solve_heuristic(self.problem()).info["profile"]
        assert set(profile["stages_s"]) == {"lp_solve", "rounding", "evaluate"}

    def test_uniform_stages(self, profiling_on):
        from repro.core.solver import solve_uniform

        profile = solve_uniform(self.problem()).info["profile"]
        assert set(profile["stages_s"]) == {"evaluate"}

    def test_weighted_dp_stages(self, profiling_on):
        from repro.core.weighted import solve_weighted_dp

        profile = solve_weighted_dp(self.weighted_problem()).info["profile"]
        assert set(profile["stages_s"]) == {"dp_rows", "reconstruct"}

    def test_weighted_heuristic_stages(self, profiling_on):
        from repro.core.weighted import solve_weighted_heuristic

        profile = solve_weighted_heuristic(self.weighted_problem()).info["profile"]
        assert set(profile["stages_s"]) == {"rational_solve", "snap_cuts", "evaluate"}

    def test_disabled_strips_profile_everywhere(self, profiling_off):
        from repro.core.closed_form import solve_closed_form
        from repro.core.heuristic import solve_heuristic
        from repro.core.solver import solve_uniform
        from repro.core.weighted import solve_weighted_dp, solve_weighted_heuristic

        for result in (
            solve_closed_form(self.problem()),
            solve_heuristic(self.problem()),
            solve_uniform(self.problem()),
            solve_weighted_dp(self.weighted_problem()),
            solve_weighted_heuristic(self.weighted_problem()),
        ):
            assert "profile" not in (result.info or {}), result.algorithm

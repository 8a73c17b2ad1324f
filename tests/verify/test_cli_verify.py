"""CLI tests for ``repro-scatter verify``."""

import json

import pytest

import repro.verify
from repro.cli import main
from repro.core import IncrementalPlanner
from repro.verify.fuzz import Counterexample, FuzzOutcome, FuzzStats


class TestVerifyCli:
    def test_small_clean_run_exits_zero(self, capsys):
        code = main(["verify", "--seeds", "8", "--skip-golden"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verify: OK" in out
        assert "mutation: planted rounding bug caught" in out

    def test_list_oracles(self, capsys):
        assert main(["verify", "--list-oracles"]) == 0
        out = capsys.readouterr().out
        assert "thm1-duration" in out
        assert "eq4-lp-bound" in out

    def test_unknown_oracle_is_usage_error(self, capsys):
        assert main(["verify", "--seeds", "2", "--oracle", "nope"]) == 2
        assert "unknown oracle" in capsys.readouterr().err

    def test_oracle_filter_skips_mutation_and_golden(self, capsys):
        code = main(["verify", "--seeds", "4", "--oracle", "dist-valid"])
        out = capsys.readouterr().out
        assert code == 0
        assert "mutation" not in out
        assert "golden" not in out

    def test_json_report(self, capsys):
        code = main(
            ["verify", "--seeds", "4", "--skip-golden", "--skip-mutation", "--json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert doc["fuzz"]["stats"]["instances"] == 4
        assert doc["mutation"] is None

    def test_golden_check_runs_in_default_mode(self, capsys):
        code = main(["verify", "--seeds", "2", "--skip-mutation"])
        out = capsys.readouterr().out
        assert code == 0
        assert "golden: all snapshots byte-identical" in out

    def test_tree_mode_clean_run_exits_zero(self, capsys):
        code = main(["verify", "--mode", "tree", "--seeds", "6"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verify: OK" in out
        # Focused differential sweep: no mutation or golden legs.
        assert "mutation" not in out
        assert "golden" not in out

    def test_tree_mode_json_report(self, capsys):
        code = main(["verify", "--mode", "tree", "--seeds", "4", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert doc["fuzz"]["stats"]["instances"] == 4
        assert doc["fuzz"]["stats"]["oracle_checked"]["tree-lower-bound"] >= 4

    @pytest.mark.parametrize("mode", ["oracles", "incremental"])
    def test_shape_filter(self, mode, capsys):
        code = main(["verify", "--mode", mode, "--shape", "knee", "--seeds", "3", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert doc["fuzz"]["stats"]["shapes"] == {"knee": 3}
        # A shape-focused run skips the mutation and golden legs.
        assert doc["mutation"] is None
        assert doc["golden_drift"] == []

    @pytest.mark.parametrize(
        "mode, unit", [("incremental", "churn step(s)"), ("tree", "instance(s)")]
    )
    def test_coverage_counts_name_their_unit(self, mode, unit, capsys):
        """A churn mode counts one check per churn step (the seed instance
        plus its churn events), so its coverage lines say so."""
        assert main(["verify", "--mode", mode, "--seeds", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith(f"fuzz[{mode}]: 3 instances")
        checked = [line for line in lines if ": checked on " in line]
        assert checked and all(line.endswith(f" {unit}") for line in checked)
        dist = next(line for line in checked if "dist-valid" in line)
        steps = 3 * 6 if mode == "incremental" else 3
        assert dist == f"  dist-valid: checked on {steps} {unit}"

    def test_unknown_shape_is_usage_error(self, capsys):
        assert main(["verify", "--seeds", "2", "--shape", "cubist"]) == 2
        assert "unknown instance shape" in capsys.readouterr().err

    def test_tree_mode_rejects_oracle_filter(self, capsys):
        code = main(["verify", "--mode", "tree", "--oracle", "dist-valid"])
        assert code == 2
        assert "--oracle cannot be combined" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["incremental", "tree"])
    def test_differential_modes_reject_guided(self, mode, capsys):
        code = main(["verify", "--mode", mode, "--guided", "--seeds", "2"])
        assert code == 2
        assert f"--guided cannot be combined with --mode {mode}" in (
            capsys.readouterr().err
        )


class TestVerifyCliFailurePath:
    @pytest.fixture
    def failing_fuzz(self, monkeypatch):
        ce = Counterexample(
            seed=3,
            shape="linear",
            violations=(("thm1-duration", "synthetic violation"),),
            problem={"n": 1, "processors": []},
            original_p=4,
            original_n=50,
            shrunk_p=2,
            shrunk_n=3,
        )
        stats = FuzzStats(instances=5, solver_runs=10, shapes={"linear": 5})

        def fake_fuzz(seeds, **kwargs):
            return FuzzOutcome(stats=stats, counterexamples=(ce,))

        monkeypatch.setattr(repro.verify, "fuzz", fake_fuzz)
        return ce

    def test_counterexample_exits_one(self, failing_fuzz, capsys):
        code = main(["verify", "--seeds", "5", "--skip-golden", "--skip-mutation"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL seed=3" in out
        assert "synthetic violation" in out
        assert "verify: FAIL" in out

    def test_counterexample_artifact_written(self, failing_fuzz, capsys, tmp_path):
        artifact = tmp_path / "ce.json"
        code = main(
            [
                "verify",
                "--seeds",
                "5",
                "--skip-golden",
                "--skip-mutation",
                "--counterexamples",
                str(artifact),
            ]
        )
        assert code == 1
        doc = json.loads(artifact.read_text())
        assert doc["ok"] is False
        assert doc["fuzz"]["counterexamples"][0]["seed"] == 3

    def test_incremental_planner_crash_is_a_finding(self, monkeypatch, capsys):
        # A warm planner that raises is a counterexample (exit 1), not a
        # usage error (exit 2).
        def crash(self, problem):
            raise ValueError("planted")

        monkeypatch.setattr(IncrementalPlanner, "plan", crash)
        code = main(["verify", "--mode", "incremental", "--seeds", "2", "--json"])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["fuzz"]["counterexamples"]
        for ce in doc["fuzz"]["counterexamples"]:
            assert "solver-crash" in {oid for oid, _ in ce["violations"]}

    def test_no_artifact_on_success(self, capsys, tmp_path):
        artifact = tmp_path / "ce.json"
        code = main(
            [
                "verify",
                "--seeds",
                "2",
                "--skip-golden",
                "--skip-mutation",
                "--counterexamples",
                str(artifact),
            ]
        )
        assert code == 0
        assert not artifact.exists()


class TestUpdateGolden:
    def test_update_golden_no_op_on_clean_tree(self, capsys):
        # The shipped snapshots are current, so rebaselining changes nothing
        # (and must not dirty the checked-in files).
        code = main(["verify", "--update-golden"])
        out = capsys.readouterr().out
        assert code == 0
        assert "already current" in out

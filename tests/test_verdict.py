"""The parent-vs-change verdict runner (``benchmarks/verdict.py``).

The verdict rules run on synthetic perfbench records; orchestration runs
in a throwaway git repository with a fake one-pass runner, so no test
starts a perfbench run.
"""

import importlib.util
import json
import os
import shutil
import subprocess

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
VERDICT = os.path.join(ROOT, "benchmarks", "verdict.py")


def load_verdict(path=VERDICT):
    spec = importlib.util.spec_from_file_location("verdict_under_test", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


verdict = load_verdict()

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    DECLARED = json.load(fh)

PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 102.0, 98.0, 100.0, 101.0]


def judged(change, parent=PARENT, better="lower", bound=0.2):
    return verdict.judge_metric(parent, change, better, bound)


class TestVerdictRules:
    def test_better(self):
        row = judged([v * 0.5 for v in PARENT])
        assert row["verdict"] == "better"
        assert row["wins"] == 10
        assert row["delta"] == pytest.approx(-0.5)

    def test_better_needs_nine_wins(self):
        change = [v * 0.5 for v in PARENT[:8]] + [v * 1.01 for v in PARENT[8:]]
        assert judged(change)["wins"] == 8
        assert judged(change)["verdict"] == "flat"

    def test_better_needs_a_gap_wider_than_the_parent_iqr(self):
        row = judged([v - 0.01 for v in PARENT])
        assert row["wins"] == 10
        assert row["parent_iqr"] > 0.01
        assert row["verdict"] == "flat"

    def test_worse(self):
        row = judged([v * 1.3 for v in PARENT])
        assert row["verdict"] == "worse"
        assert row["wins"] == 0

    def test_worse_respects_direction(self):
        assert judged([v * 0.7 for v in PARENT], better="higher")["verdict"] == "worse"
        assert judged([v * 1.3 for v in PARENT], better="higher")["verdict"] == "better"

    def test_unresolved_when_parent_spread_exceeds_bound(self):
        parent = [50.0, 150.0] * 5
        row = judged([100.0] * 10, parent=parent, bound=0.1)
        assert row["parent_iqr"] > 0.1 * row["parent_median"]
        assert row["verdict"] == "unresolved"

    def test_wide_spread_resolved_when_every_change_run_beats_every_parent_run(self):
        parent = [50.0, 150.0] * 5
        row = judged([40.0, 45.0] * 5, parent=parent, bound=0.1)
        assert row["wins"] == 10
        assert row["parent_median"] - row["change_median"] < row["parent_iqr"]
        assert row["verdict"] == "flat"

    def test_flat(self):
        row = judged([v * 1.05 for v in PARENT])
        assert row["verdict"] == "flat"

    def test_ties_count_for_neither_side(self):
        row = judged(list(PARENT))
        assert row["wins"] == 0
        assert row["delta"] == 0
        assert row["verdict"] == "flat"
        half = [v if i % 2 else v * 0.5 for i, v in enumerate(PARENT)]
        assert judged(half)["wins"] == 5


def record(scale=1.0, failed=0, attempted=100):
    """One synthetic ``--workload all`` run, every metric at ``scale``."""
    metrics = {m["name"]: {"value": 10.0 * scale, "unit": m["unit"]}
               for m in DECLARED["end_to_end"]}
    return {w["name"]: {"attempted": attempted, "failed": failed, "metrics": metrics}
            for w in DECLARED["workloads"]}


class TestJudge:
    def test_every_workload_and_metric_judged(self):
        runs = [record() for _ in range(10)]
        result = verdict.judge(runs, runs, DECLARED)
        assert result["ok"]
        assert set(result["workloads"]) == {w["name"] for w in DECLARED["workloads"]}
        for w in result["workloads"].values():
            assert set(w["metrics"]) == {m["name"] for m in DECLARED["end_to_end"]}
            assert {r["verdict"] for r in w["metrics"].values()} == {"flat"}

    def test_worse_metric_fails(self):
        result = verdict.judge([record()] * 10, [record(1.5)] * 10, DECLARED)
        assert not result["ok"]
        rows = result["workloads"]["cold-1e6"]["metrics"]
        assert rows["latency_p50_ms"]["verdict"] == "worse"
        assert rows["ops_per_s"]["verdict"] == "better"

    def test_larger_failed_share_fails(self):
        parent = [record(failed=1, attempted=100)] * 10
        same = verdict.judge(parent, [record(failed=2, attempted=200)] * 10, DECLARED)
        assert same["ok"]
        more = verdict.judge(parent, [record(failed=2, attempted=100)] * 10, DECLARED)
        assert not more["ok"]
        shares = more["workloads"]["serve-hot"]
        assert not shares["failed_ok"]
        assert shares["failed"]["change"] == {"failed": 20, "attempted": 1000, "share": 0.02}

    def test_crashed_run_fails_but_the_rest_is_judged(self):
        change = [record() for _ in range(9)] + [None]
        result = verdict.judge([record()] * 10, change, DECLARED)
        assert not result["ok"]
        assert result["completed"] == {"parent": 10, "change": 9}
        row = result["workloads"]["sim-chaos"]["metrics"]["ops_per_s"]
        assert row["verdict"] == "flat" and row["change_median"] == 10.0

    def test_render_has_one_table_per_workload(self):
        runs = [record() for _ in range(10)]
        text = verdict.render(verdict.judge(runs, runs, DECLARED))
        for w in DECLARED["workloads"]:
            assert f"== {w['name']}" in text
        assert "0/10" in text and "flat" in text


def git(cwd, *args):
    subprocess.run(["git", "-c", "user.name=verdict", "-c", "user.email=v@example.com",
                    "-c", "commit.gpgsign=false", *args],
                   cwd=cwd, check=True, capture_output=True)


@pytest.fixture
def sandbox(tmp_path):
    """A one-commit repository holding the runner, BENCHMARK.json and a
    stand-in perfbench; returns the runner loaded from there."""
    if shutil.which("git") is None or shutil.which("tar") is None:
        pytest.skip("needs git and tar")
    os.makedirs(tmp_path / "benchmarks")
    os.makedirs(tmp_path / "perfbench")
    shutil.copy(VERDICT, tmp_path / "benchmarks" / "verdict.py")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    (tmp_path / "perfbench" / "run.py").write_text("raise SystemExit(3)\n")
    git(tmp_path, "init", "-q")
    git(tmp_path, "add", "-A")
    git(tmp_path, "commit", "-q", "-m", "parent")
    return load_verdict(str(tmp_path / "benchmarks" / "verdict.py"))


class TestOrchestration:
    def test_alternating_pairs_and_json_last_line(self, sandbox, capsys):
        calls = []

        def fake_run(tree, seconds):
            calls.append((tree == sandbox.ROOT, seconds,
                          os.path.isfile(os.path.join(tree, "perfbench", "run.py"))))
            return record()

        assert sandbox.main(["HEAD"], run=fake_run) == 0
        assert len(calls) == 2 * sandbox.PAIRS
        change_first = [calls[2 * i][0] for i in range(sandbox.PAIRS)]
        assert change_first == [i % 2 == 1 for i in range(sandbox.PAIRS)]
        assert all(seconds == DECLARED["run_seconds"] and exported
                   for _, seconds, exported in calls)
        last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert last["ok"] and last["rev"] == "HEAD" and last["seed"] == 1

    def test_crashed_run_exits_1(self, sandbox, capsys):
        runs = iter([None] + [record()] * (2 * sandbox.PAIRS - 1))
        assert sandbox.main(["HEAD"], run=lambda tree, seconds: next(runs)) == 1
        last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert last["completed"] == {"parent": 9, "change": 10}

    def test_refuses_a_different_measuring_stick(self, sandbox, capsys):
        with open(os.path.join(sandbox.ROOT, "perfbench", "run.py"), "a") as fh:
            fh.write("# edited\n")
        assert sandbox.main(["HEAD"], run=pytest.fail) == 2
        assert "same stick" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [[], ["HEAD", "HEAD~1"], ["--pairs"], ["no-such-rev"]])
    def test_usage_errors_exit_2(self, sandbox, argv):
        assert sandbox.main(argv, run=pytest.fail) == 2

"""The JSONL request loop and the ``repro-scatter serve`` subcommand."""

import json

import pytest

from repro.cli import main
from repro.core import plan_scatter
from repro.serve import PlanService
from repro.serve.jsonl import parse_request, serve_jsonl
from repro.workloads.table1 import table1_problem


def _lines(docs):
    return [json.dumps(d) for d in docs]


class TestParseRequest:
    def test_table1_platform(self):
        req_id, problem = parse_request('{"id": 1, "n": 5000}')
        assert req_id == 1
        assert problem.n == 5000
        assert problem.p == table1_problem(5000).p

    def test_explicit_processors_root_last(self):
        req_id, problem = parse_request(json.dumps({
            "id": "x", "n": 100,
            "processors": [
                {"name": "a", "alpha": 0.01, "beta": 2e-5},
                {"name": "b", "alpha": 0.02, "beta": 1e-5,
                 "comp_intercept": 0.5},
                {"name": "r", "alpha": 0.01, "beta": 0.0},
            ],
        }))
        assert problem.p == 3
        assert problem.processors[-1].name == "r"
        assert not problem.is_linear  # the intercept made b affine

    @pytest.mark.parametrize("line", [
        "not json",
        "[1, 2]",
        '{"id": 1}',
        '{"id": 1, "n": 0}',
        '{"id": 1, "n": true}',
        '{"id": 1, "n": 10, "platform": "marsnet"}',
        '{"id": 1, "n": 10, "processors": []}',
        '{"id": 1, "n": 10, "processors": [{"beta": 1}, {"alpha": 1}]}',
        '{"id": 1, "n": 10, "algorithm": "dp-fast"}',
    ])
    def test_malformed(self, line):
        with pytest.raises(ValueError):
            parse_request(line)


class TestServeJsonl:
    def test_responses_in_input_order_with_errors_inline(self):
        lines = _lines([
            {"id": "a", "n": 1000},
            {"id": "b", "n": 1000},
            {"id": "c", "n": 2000},
        ])
        lines.insert(2, "garbage")
        with PlanService() as svc:
            responses = list(serve_jsonl(lines, svc, window=4))
        assert [r["id"] for r in responses] == ["a", "b", None, "c"]
        assert [r["ok"] for r in responses] == [True, True, False, True]
        cold = plan_scatter(table1_problem(1000))
        assert responses[0]["counts"] == list(cold.counts)
        assert responses[0]["makespan"] == cold.makespan
        assert not responses[0]["cached"] and responses[1]["cached"]

    def test_error_responses_echo_the_request_id(self):
        lines = [
            '{"id": "r7", "n": -1}',
            '{"id": "r8", "n": 1000, "algorithm": "no-such-solver"}',
            '{"id": "r9", "n": 10, "processors": [{"alpha": "x"}, {"alpha": 1}]}',
            "not json",
        ]
        with PlanService() as svc:
            responses = list(serve_jsonl(lines, svc))
        assert [r["id"] for r in responses] == ["r7", "r8", "r9", None]
        assert not any(r["ok"] for r in responses)
        assert "its own --algorithm" in responses[1]["error"]

    def test_window_batches_submissions(self):
        lines = _lines([{"id": i, "n": 1000} for i in range(5)])
        with PlanService() as svc:
            out = list(serve_jsonl(iter(lines), svc, window=2))
        assert len(out) == 5
        assert all(r["ok"] for r in out)

    def test_identical_requests_coalesce_on_thread_backend(self):
        lines = _lines([{"id": i, "n": 4000} for i in range(8)])
        with PlanService(backend="thread", workers=2) as svc:
            out = list(serve_jsonl(lines, svc, window=8))
        assert all(r["ok"] for r in out)
        served_twice = [r for r in out if r["cached"] or r["coalesced"]]
        assert len(served_twice) == 7  # one solve for the whole window

    def test_blank_lines_skipped_and_window_validated(self):
        with PlanService() as svc:
            assert list(serve_jsonl(["", "  "], svc)) == []
            with pytest.raises(ValueError):
                list(serve_jsonl([], svc, window=0))


class TestServeCli:
    def test_cli_round_trip(self, tmp_path, capsys):
        req = tmp_path / "req.jsonl"
        req.write_text("\n".join(_lines([
            {"id": 0, "n": 1000},
            {"id": 1, "n": 1000},
            {"id": 2, "n": 815000},
        ])))
        rc = main(["serve", "--input", str(req), "--stats"])
        assert rc == 0
        out = capsys.readouterr()
        responses = [json.loads(line) for line in out.out.splitlines()]
        assert [r["id"] for r in responses] == [0, 1, 2]
        assert all(r["ok"] for r in responses)
        assert responses[1]["cached"]
        assert "served 3 requests" in out.err

    def test_cli_metrics_flag(self, tmp_path, capsys):
        req = tmp_path / "req.jsonl"
        req.write_text(_lines([{"id": 0, "n": 500}])[0])
        rc = main(["serve", "--input", str(req), "--metrics"])
        assert rc == 0
        out = capsys.readouterr()
        assert "serve.latency_s" in out.err

    def test_cli_cache_disabled(self, tmp_path, capsys):
        req = tmp_path / "req.jsonl"
        req.write_text("\n".join(_lines([{"id": i, "n": 700} for i in range(2)])))
        rc = main(["serve", "--input", str(req), "--cache-size", "0",
                   "--window", "1"])
        assert rc == 0
        responses = [json.loads(line)
                     for line in capsys.readouterr().out.splitlines()]
        assert all(not r["cached"] for r in responses)

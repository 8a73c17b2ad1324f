"""Smoke tests for the command-line interface."""

import pytest

from repro.cli import main


class TestTable1Command:
    def test_prints_all_machines(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        for machine in ("dinadan", "pellinore", "caseb", "sekhmet", "merlin", "seven", "leda"):
            assert machine in out


class TestPlanCommand:
    def test_default_table1(self, capsys):
        assert main(["plan", "--n", "5000"]) == 0
        out = capsys.readouterr().out
        assert "closed-form" in out
        assert "dinadan" in out

    def test_algorithm_choice(self, capsys):
        assert main(["plan", "--n", "2000", "--algorithm", "lp-heuristic"]) == 0
        assert "lp-heuristic" in capsys.readouterr().out

    def test_platform_file(self, tmp_path, capsys):
        from repro.workloads import random_star_platform
        import random

        plat = random_star_platform(random.Random(0), 4)
        path = tmp_path / "plat.json"
        plat.save(str(path))
        assert main(["plan", "--platform", str(path), "--n", "100"]) == 0
        assert "h0" in capsys.readouterr().out

    def test_platform_file_with_root(self, tmp_path, capsys):
        from repro.workloads import random_star_platform
        import random

        plat = random_star_platform(random.Random(0), 4)
        path = tmp_path / "plat.json"
        plat.save(str(path))
        assert main(["plan", "--platform", str(path), "--root", "h2", "--n", "50"]) == 0


class TestSimulateCommand:
    def test_uniform(self, capsys):
        assert main(["simulate", "--n", "2000", "--algorithm", "uniform"]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "caseb" in out

    def test_balanced_ascending(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--n",
                    "2000",
                    "--order",
                    "bandwidth-asc",
                    "--algorithm",
                    "lp-heuristic",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert out.splitlines()[1].lstrip().startswith("merlin")


class TestFiguresCommand:
    def test_all_three_figures(self, capsys):
        assert main(["figures", "--n", "3000"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 2" in out and "Fig. 3" in out and "Fig. 4" in out
        assert "Imbalance" in out


class TestChaosCommand:
    def test_sweep_with_json_output(self, tmp_path, capsys):
        import json
        import random

        from repro.workloads import random_star_platform

        plat = random_star_platform(random.Random(0), 5)
        path = tmp_path / "plat.json"
        plat.save(str(path))
        out_json = tmp_path / "chaos.json"
        assert main([
            "chaos", "--platform", str(path), "--n", "800",
            "--rates", "0,0.5", "--seed", "1", "--json", str(out_json),
        ]) == 0
        out = capsys.readouterr().out
        assert "degradation" in out
        assert "1.000x" in out  # the rate-0 row replays the baseline
        payload = json.loads(out_json.read_text())
        assert payload["baseline_makespan"] > 0
        assert [pt["rate"] for pt in payload["points"]] == [0.0, 0.5]

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError, match="failure rate"):
            main(["chaos", "--n", "100", "--rates", "2.0"])


class TestTraceCommand:
    def test_smoke(self, capsys):
        assert main(["trace", "--n", "1500", "--algorithm", "uniform"]) == 0
        out = capsys.readouterr().out
        assert "Traced run" in out
        assert "events:" in out
        assert "span totals" in out
        assert "compute.begin" in out

    def test_exports_and_determinism(self, tmp_path, capsys):
        import json

        a_jsonl = tmp_path / "a.jsonl"
        b_jsonl = tmp_path / "b.jsonl"
        chrome = tmp_path / "trace.json"
        argv = ["trace", "--n", "1500", "--jsonl", str(a_jsonl), "--chrome", str(chrome)]
        assert main(argv) == 0
        assert main(["trace", "--n", "1500", "--jsonl", str(b_jsonl)]) == 0
        capsys.readouterr()
        # the seeded-determinism contract: byte-identical event exports
        assert a_jsonl.read_bytes() == b_jsonl.read_bytes()

        from repro.obs import validate_chrome_trace

        doc = json.loads(chrome.read_text(encoding="utf-8"))
        assert validate_chrome_trace(doc) > 0

    def test_metrics_flag(self, capsys):
        assert main(["trace", "--n", "800", "--metrics"]) == 0
        assert "metrics:" in capsys.readouterr().out


class TestParser:
    def test_missing_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_bad_algorithm(self):
        with pytest.raises(SystemExit):
            main(["plan", "--algorithm", "nonsense"])


class TestRewriteCommand:
    SOURCE = (
        "#include <mpi.h>\n"
        "void run(float *a, float *b, int n) {\n"
        "    MPI_Scatter(a, n/16, MPI_FLOAT, b, n/16, MPI_FLOAT, 0, MPI_COMM_WORLD);\n"
        "}\n"
    )

    def test_static_rewrite_to_stdout(self, tmp_path, capsys):
        src = tmp_path / "app.c"
        src.write_text(self.SOURCE)
        assert main(["rewrite", str(src), "--n", "1600"]) == 0
        out = capsys.readouterr().out
        assert "MPI_Scatterv(a" in out
        assert "repro_counts_" in out

    def test_runtime_rewrite_to_file(self, tmp_path, capsys):
        src = tmp_path / "app.c"
        src.write_text(self.SOURCE)
        dst = tmp_path / "app_balanced.c"
        assert main(["rewrite", str(src), "--runtime", "--output", str(dst)]) == 0
        text = dst.read_text()
        assert "repro_compute_distribution" in text
        assert "MPI_Scatterv(a" in text


class TestSimulateSvg:
    def test_svg_outputs(self, tmp_path, capsys):
        svg = tmp_path / "fig.svg"
        gantt = tmp_path / "gantt.svg"
        assert (
            main(
                [
                    "simulate", "--n", "1000",
                    "--svg", str(svg), "--gantt", str(gantt),
                ]
            )
            == 0
        )
        import xml.etree.ElementTree as ET

        ET.parse(str(svg))
        ET.parse(str(gantt))


class TestSweepCommand:
    def test_heterogeneity(self, capsys):
        assert main(["sweep", "heterogeneity", "--p", "6", "--n", "5000"]) == 0
        out = capsys.readouterr().out
        assert "speed spread" in out and "gain" in out

    def test_comm_ratio(self, capsys):
        assert main(["sweep", "comm-ratio", "--p", "6", "--n", "5000"]) == 0
        assert "comm/comp" in capsys.readouterr().out

    def test_bad_dimension(self):
        with pytest.raises(SystemExit):
            main(["sweep", "latency"])

    @pytest.mark.parametrize("argv", [
        ["sweep", "heterogeneity", "--p", "4", "--n", "100", "--workers", "2"],
        ["serve", "--workers", "2"],
    ])
    def test_workers_without_pool_backend_is_usage_error(self, argv, capsys):
        assert main(argv) == 2
        assert "workers needs a pool backend" in capsys.readouterr().err

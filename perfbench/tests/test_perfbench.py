"""Self-tests of the benchmark harness (not of the program it measures).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

from repro.verify.fuzz import problem_to_dict  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
RUN = os.path.join(BENCH, "run.py")


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _stream_bytes(name: str, seed: int, count: int = 40) -> bytes:
    """The first ``count`` inputs of a workload's stream, serialized exactly."""
    inputs = WORKLOADS[name](seed, tiny=True).inputs()
    items = list(inputs.warmup) + [next(inputs) for _ in range(count)]

    def encode(item):
        if isinstance(item, tuple):
            return [encode(part) for part in item]
        if hasattr(item, "processors"):
            return problem_to_dict(item)
        return item

    return json.dumps([encode(item) for item in items], sort_keys=True).encode()


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, RUN, *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_fixed_seed_gives_identical_stream(name):
    assert _stream_bytes(name, 7) == _stream_bytes(name, 7)
    assert _stream_bytes(name, 7) != _stream_bytes(name, 8)


def test_declared_names_are_wellformed_and_unique():
    doc = _declared()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in doc[key]]
    names += [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) and len(n) <= 64 for n in names)
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in doc["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in doc["end_to_end"])}]


def test_doc_maps_every_layer_metric():
    with open(os.path.join(BENCH, "README.md")) as f:
        doc = f.read()
    for metric in _declared()["per_layer"]:
        assert f"`{metric['name']}`" in doc, metric["name"]


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_emits_every_declared_metric(name, trace):
    proc = _run("--workload", name, "--seed", "3", "--seconds", "0.4",
                "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    report_line, result_line = proc.stdout.strip().splitlines()[-2:]
    report = json.loads(report_line)["report"]
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    key = "per_layer" if trace == "1" else "end_to_end"
    declared = {m["name"]: m["unit"] for m in _declared()[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(NAME.match(k) for k in result["metrics"])
    assert report["workload"] == name and report["error_rate"] == 0
    assert {"python", "numpy", "scipy", "nproc", "cpu_model", "commit",
            "profiling_enabled"} <= set(report["environment"])


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-hot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

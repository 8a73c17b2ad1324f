"""Incremental re-planning benchmark — the ``BENCH_incremental.json`` emitter.

Measures what the :class:`repro.core.incremental.IncrementalPlanner` buys
under membership churn: at each workload size, a seed plan is solved cold,
then processors are killed one front-survivor at a time and every re-plan
is timed twice — warm (through the planner's retained DP state) and cold
(an independent :func:`plan_scatter` on the survivor problem).  The warm
plan must byte-match the cold one; the speedup column is the whole point
of the engine (O(change) instead of O(p·n) per fault).

The instance family is increasing piecewise-linear knees (TCP-slow-start
shaped), so the auto route is ``dp-fast`` — the kernel whose suffix rows
the planner reuses.  Front-of-chain victims maximise suffix reuse and
model the ft_scatterv cascade where the planner warm-starts every round
from the previous survivor state; the victim index is recorded per row.

Two entry points:

* ``python benchmarks/bench_incremental.py [--sizes N,N,...]`` — standalone;
* ``pytest benchmarks/bench_incremental.py`` — the emitter as a ``slow``
  benchmark with the ≥ 5× single-death re-plan assertion at n=1e5, plus a
  ``bench``-marked nightly gate failing on >2× regression vs the
  committed JSON.

JSON layout (``schema: bench-incremental/v1``)::

    points[].n                    workload size
    points[].cold_seed_s          first (state-building) solve
    points[].deaths[].killed_total  cumulative processor deaths so far
    points[].deaths[].victim      index of the processor removed
    points[].deaths[].replan_s    warm re-plan through the planner
    points[].deaths[].cold_s      independent cold solve, same survivors
    points[].deaths[].speedup     cold_s / replan_s
    points[].deaths[].warm_rows   DP rows reused from the retained state
    points[].deaths[].byte_match  warm counts/makespans == cold (must hold)

Lower is better for the seconds columns; ``byte_match`` must be ``true``
on every row (the same guarantee the ``incremental-matches-cold`` oracle
and ``fuzz_incremental`` enforce instance-by-instance).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import time
from typing import List, Optional, Sequence

import pytest

from repro.core import (
    IncrementalPlanner,
    PiecewiseLinearCost,
    Processor,
    ScatterProblem,
    ZeroCost,
    plan_scatter,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_PATH = os.path.join(REPO_ROOT, "BENCH_incremental.json")

#: Workload sizes for the churn ladder.  Larger rungs (1e6+) are
#: reachable standalone via ``--sizes``; the default ladder keeps the
#: slow-tier emitter short.
SIZES = (10_000, 100_000)

#: Cumulative death counts measured at each size.
DEATH_COUNTS = (1, 2, 4)


def _knee_problem(rng: random.Random, p: int, n: int) -> ScatterProblem:
    """Increasing piecewise-linear costs (bandwidth knees) over [0, n]."""

    def knee() -> PiecewiseLinearCost:
        x1 = rng.randint(1, max(1, n // 3))
        r1 = rng.uniform(1e-6, 5e-5)
        r2 = rng.uniform(1e-6, 5e-5)
        return PiecewiseLinearCost(
            [(0, 0), (x1, r1 * x1), (n, r1 * x1 + r2 * (n - x1))]
        )

    procs = [Processor(f"P{i + 1}", knee(), knee()) for i in range(p - 1)]
    procs.append(Processor(f"P{p}", ZeroCost(), knee()))
    return ScatterProblem(procs, n)


def run_churn_point(n: int, *, p: int = 8, seed: int = 7,
                    death_counts: Sequence[int] = DEATH_COUNTS) -> dict:
    """Seed solve + cumulative front-victim deaths at one workload size."""
    problem = _knee_problem(random.Random(seed), p, n)
    planner = IncrementalPlanner()

    t0 = time.perf_counter()
    seed_plan = planner.plan(problem)
    cold_seed_s = time.perf_counter() - t0

    deaths: List[dict] = []
    current = problem
    killed = 0
    for target in death_counts:
        while killed < target:
            current = ScatterProblem(current.processors[1:], current.n)
            killed += 1
        t0 = time.perf_counter()
        warm = planner.plan(current)
        replan_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        cold = plan_scatter(current, order_policy=None)
        cold_s = time.perf_counter() - t0
        byte_match = (
            warm.counts == cold.counts
            and warm.makespan == cold.makespan
            and warm.makespan_exact == cold.makespan_exact
            and warm.algorithm == cold.algorithm
        )
        deaths.append(
            {
                "killed_total": killed,
                "victim": 0,
                "replan_s": round(replan_s, 6),
                "cold_s": round(cold_s, 6),
                "speedup": round(cold_s / max(replan_s, 1e-9), 1),
                "warm_rows": warm.info.get("incremental", {}).get("warm_rows", 0),
                "byte_match": byte_match,
            }
        )
    return {
        "n": n,
        "cold_seed_s": round(cold_seed_s, 6),
        "seed_algorithm": seed_plan.algorithm,
        "deaths": deaths,
    }


def run_incremental_bench(*, p: int = 8, seed: int = 7, sizes: Sequence[int] = SIZES,
                          death_counts: Sequence[int] = DEATH_COUNTS,
                          path: Optional[str] = BENCH_PATH) -> dict:
    """Run the churn ladder and (optionally) write ``BENCH_incremental.json``."""
    payload = {
        "schema": "bench-incremental/v1",
        "generated_by": "benchmarks/bench_incremental.py",
        "instance": {"kind": "piecewise-knee", "seed": seed, "p": p},
        "points": [
            run_churn_point(n, p=p, seed=seed, death_counts=death_counts)
            for n in sizes
        ],
    }
    if path:
        with open(path, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")
    return payload


def _render(payload: dict) -> str:
    lines = []
    for point in payload["points"]:
        lines.append(
            f"n={point['n']:>9,}  seed solve {point['cold_seed_s']:8.3f}s "
            f"({point['seed_algorithm']})"
        )
        for row in point["deaths"]:
            lines.append(
                f"  deaths={row['killed_total']}  "
                f"replan {row['replan_s']:8.4f}s  cold {row['cold_s']:8.3f}s  "
                f"{row['speedup']:>8.1f}x  warm-rows {row['warm_rows']}  "
                f"byte-match {row['byte_match']}"
            )
    return "\n".join(lines)


@pytest.mark.slow
def bench_incremental(report):
    """Emitter benchmark: byte-match everywhere + the ≥ 5× re-plan gate."""
    payload = run_incremental_bench()

    for point in payload["points"]:
        for row in point["deaths"]:
            assert row["byte_match"], (point["n"], row)

    by_n = {point["n"]: point for point in payload["points"]}
    single_death = by_n[100_000]["deaths"][0]
    assert single_death["killed_total"] == 1
    assert single_death["speedup"] >= 5.0, single_death

    report("incremental", _render(payload) + f"\nwrote {BENCH_PATH}")


@pytest.mark.bench
def bench_incremental_regression(report):
    """Nightly bench-smoke: n=1e4 churn point, fail on >2x regression.

    Compares the warm re-plan and cold survivor solve against the
    *committed* ``BENCH_incremental.json``; the fresh payload is written
    to ``benchmarks/out/bench_incremental_smoke.json`` for upload.
    """
    with open(BENCH_PATH) as f:
        committed = json.load(f)

    fresh = run_incremental_bench(sizes=(10_000,), path=None)
    out_path = os.path.join(
        os.path.dirname(__file__), "out", "bench_incremental_smoke.json"
    )
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w") as f:
        json.dump(fresh, f, indent=2, sort_keys=True)
        f.write("\n")

    fresh_pt = fresh["points"][0]
    for row in fresh_pt["deaths"]:
        assert row["byte_match"], row
    committed_pts = {point["n"]: point for point in committed["points"]}
    base_pt = committed_pts.get(fresh_pt["n"])
    if base_pt is not None:
        base_rows = {row["killed_total"]: row for row in base_pt["deaths"]}
        for row in fresh_pt["deaths"]:
            base_row = base_rows.get(row["killed_total"])
            if base_row is None:
                continue
            # Absolute floors keep the 2x ratio gate from tripping on
            # timer noise: the committed replan_s is sub-millisecond and
            # the cold solve sub-second, both jittery on shared runners.
            assert row["replan_s"] <= max(
                2.0 * base_row["replan_s"], 0.01
            ), (row, base_row)
            assert row["cold_s"] <= max(
                2.0 * base_row["cold_s"], 1.0
            ), (row, base_row)

    report(
        "bench_incremental_smoke",
        _render(fresh) + f"\nwrote {out_path}",
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--p", type=int, default=8)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--sizes", default=",".join(str(n) for n in SIZES),
        help="comma-separated workload sizes",
    )
    parser.add_argument("--out", default=BENCH_PATH)
    args = parser.parse_args(argv)
    sizes = tuple(int(s) for s in args.sizes.split(","))
    payload = run_incremental_bench(p=args.p, seed=args.seed, sizes=sizes,
                                    path=args.out)
    print(_render(payload))
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

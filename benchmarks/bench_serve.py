"""Serve-layer throughput benchmark — the ``BENCH_serve.json`` emitter.

Measures sustained plans/sec through :class:`repro.serve.PlanService`
under request streams with 0% / 50% / 95% fingerprint-repeat mixes, and
compares each against a *cold no-cache* baseline (every request solved by
an independent :func:`plan_scatter`, cache disabled).

The workload models the multi-tenant churn the serve layer exists for: a
piecewise-knee platform (dp-fast route — the expensive case) where a
"repeat" request re-submits the current platform (a fingerprint cache
hit) and a "churn" request perturbs one front processor's compute cost
(a new fingerprint).  Churn misses re-solve through the service's
:class:`~repro.core.incremental.IncrementalPlanner`, which warm-starts
from the DP rows behind the change — so even the 0%-repeat mix beats the
cold baseline, and the 95% mix is dominated by O(1) cache hits.

Two entry points:

* ``python benchmarks/bench_serve.py [--requests N]`` — standalone;
* ``pytest benchmarks/bench_serve.py`` — the emitter as a ``slow``
  benchmark asserting that the 95% mix serves ≥ 5× the plans/sec of the
  0% mix in the same run (what the plan cache buys, independent of how
  fast the solver behind it is), plus a ``bench``-marked nightly gate
  failing on >2× regression vs the committed JSON.

JSON layout (``schema: bench-serve/v1``)::

    mixes[].repeat_fraction     fraction of requests repeating the
                                current platform fingerprint
    mixes[].requests            stream length for the cached run
    mixes[].cached_plans_per_s  sustained rate through the service
    mixes[].cold_requests       stream-prefix length for the baseline
    mixes[].cold_plans_per_s    cache-disabled, cold-solver rate
    mixes[].speedup             cached / cold rate ratio
    mixes[].hit_rate            plan-cache hit rate over the stream
    mixes[].p50_s / p99_s       per-request latency percentiles
    mixes[].byte_match          every served plan == cold plan_scatter

Higher is better for the rate columns; ``byte_match`` must be ``true``
on every row (the serve layer's correctness contract).
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
    PiecewiseLinearCost,
    Processor,
    ScatterProblem,
    ZeroCost,
    plan_scatter,
)
from repro.serve import PlanService

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_PATH = os.path.join(REPO_ROOT, "BENCH_serve.json")

#: Fingerprint-repeat fractions measured (the tentpole's 0/50/95 mixes).
MIXES = (0.0, 0.5, 0.95)

#: Default stream length per mix (cached run) and baseline prefix length.
REQUESTS = 600
COLD_REQUESTS = 12


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


def _perturb_front_comp(problem: ScatterProblem, step: int) -> ScatterProblem:
    """Scale the front processor's compute cost: one churn event.

    Produces a brand-new cost object (new fingerprint, conservative
    planner invalidation) while leaving every other processor — and
    therefore the DP rows behind the front — untouched.
    """
    front = problem.processors[0]
    factor = 1 + (step % 37 + 1) / 1000
    old = front.comp
    scaled = PiecewiseLinearCost(
        list(zip(old._xs, [t * factor for t in old._ts]))
    )
    procs = [Processor(front.name, front.comm, scaled)]
    procs.extend(problem.processors[1:])
    return ScatterProblem(procs, problem.n)


def build_stream(
    mix: float, count: int, *, p: int = 8, n: int = 4_000, seed: int = 7
) -> List[ScatterProblem]:
    """Deterministic request stream with a ``mix`` repeat fraction."""
    rng = random.Random(seed)
    current = _knee_problem(rng, p, n)
    stream = []
    for i in range(count):
        if stream and rng.random() < mix:
            stream.append(current)
        else:
            current = _perturb_front_comp(current, i)
            stream.append(current)
    return stream


def _quantile(sorted_samples: Sequence[float], q: float) -> float:
    idx = min(int(q * len(sorted_samples)), len(sorted_samples) - 1)
    return sorted_samples[idx]


def run_mix(
    mix: float,
    *,
    requests: int = REQUESTS,
    cold_requests: int = COLD_REQUESTS,
    p: int = 8,
    n: int = 4_000,
    seed: int = 7,
    check_bytes: bool = True,
) -> dict:
    """Measure one repeat mix: cached service vs cold no-cache baseline."""
    stream = build_stream(mix, requests, p=p, n=n, seed=seed)

    latencies: List[float] = []
    results = []
    with PlanService(order_policy=None) as svc:
        t_start = time.perf_counter()
        for problem in stream:
            t0 = time.perf_counter()
            results.append(svc.plan(problem))
            latencies.append(time.perf_counter() - t0)
        cached_elapsed = time.perf_counter() - t_start
        hit_rate = svc.stats()["hit_rate"]

    byte_match = True
    if check_bytes:
        # Every *distinct* problem in the stream must match its cold solve.
        seen = set()
        for problem, result in zip(stream, results):
            if id(problem) in seen:
                continue
            seen.add(id(problem))
            cold = plan_scatter(problem, order_policy=None)
            byte_match = byte_match and (
                result.counts == cold.counts
                and result.makespan == cold.makespan
                and result.makespan_exact == cold.makespan_exact
                and result.algorithm == cold.algorithm
            )

    class _ColdPlanner:
        @staticmethod
        def plan(problem):
            return plan_scatter(problem, order_policy=None)

    with PlanService(order_policy=None, cache_size=0,
                     planner=_ColdPlanner()) as baseline:
        t_start = time.perf_counter()
        for problem in stream[:cold_requests]:
            baseline.plan(problem)
        cold_elapsed = time.perf_counter() - t_start

    latencies.sort()
    cached_rate = requests / max(cached_elapsed, 1e-9)
    cold_rate = cold_requests / max(cold_elapsed, 1e-9)
    return {
        "repeat_fraction": mix,
        "requests": requests,
        "cached_plans_per_s": round(cached_rate, 2),
        "cold_requests": cold_requests,
        "cold_plans_per_s": round(cold_rate, 2),
        "speedup": round(cached_rate / max(cold_rate, 1e-9), 1),
        "hit_rate": round(hit_rate, 4),
        "p50_s": round(_quantile(latencies, 0.50), 6),
        "p99_s": round(_quantile(latencies, 0.99), 6),
        "byte_match": byte_match,
    }


def run_serve_bench(
    *,
    mixes: Sequence[float] = MIXES,
    requests: int = REQUESTS,
    cold_requests: int = COLD_REQUESTS,
    p: int = 8,
    n: int = 4_000,
    seed: int = 7,
    path: Optional[str] = BENCH_PATH,
) -> dict:
    """Run every mix and (optionally) write ``BENCH_serve.json``."""
    payload = {
        "schema": "bench-serve/v1",
        "generated_by": "benchmarks/bench_serve.py",
        "instance": {"kind": "piecewise-knee", "p": p, "n": n, "seed": seed},
        "mixes": [
            run_mix(mix, requests=requests, cold_requests=cold_requests,
                    p=p, n=n, seed=seed)
            for mix in mixes
        ],
    }
    if path:
        with open(path, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")
    return payload


def _render(payload: dict) -> str:
    inst = payload["instance"]
    lines = [f"piecewise-knee p={inst['p']} n={inst['n']}"]
    for row in payload["mixes"]:
        lines.append(
            f"  mix={row['repeat_fraction']:.0%}  "
            f"cached {row['cached_plans_per_s']:>9.1f}/s  "
            f"cold {row['cold_plans_per_s']:>7.2f}/s  "
            f"{row['speedup']:>8.1f}x  hit-rate {row['hit_rate']:.0%}  "
            f"p50 {row['p50_s'] * 1e3:.2f}ms  p99 {row['p99_s'] * 1e3:.2f}ms  "
            f"byte-match {row['byte_match']}"
        )
    return "\n".join(lines)


@pytest.mark.slow
def bench_serve(report):
    """Emitter benchmark: byte-match everywhere + the 95%-vs-0% mix gate.

    The gate compares served rates within one run: the 95% mix must
    serve ≥ 5× the plans/sec of the 0% mix.  (The speedup over cold
    solves is recorded but not gated: it shrinks whenever the solver
    itself gets faster.)
    """
    payload = run_serve_bench()

    for row in payload["mixes"]:
        assert row["byte_match"], row

    by_mix = {row["repeat_fraction"]: row for row in payload["mixes"]}
    hot, churn = by_mix[0.95], by_mix[0.0]
    assert hot["cached_plans_per_s"] >= 5.0 * churn["cached_plans_per_s"], (hot, churn)

    report("serve", _render(payload) + f"\nwrote {BENCH_PATH}")


@pytest.mark.bench
def bench_serve_regression(report):
    """Nightly bench-smoke: 95% mix, fail on >2x regression vs committed.

    The fresh payload is written to ``benchmarks/out/bench_serve_smoke.json``
    for upload.
    """
    with open(BENCH_PATH) as f:
        committed = json.load(f)

    fresh = run_serve_bench(mixes=(0.95,), requests=120, cold_requests=5,
                            path=None)
    out_path = os.path.join(
        os.path.dirname(__file__), "out", "bench_serve_smoke.json"
    )
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w") as f:
        json.dump(fresh, f, indent=2, sort_keys=True)
        f.write("\n")

    fresh_row = fresh["mixes"][0]
    assert fresh_row["byte_match"], fresh_row
    committed_rows = {
        row["repeat_fraction"]: row for row in committed["mixes"]
    }
    base_row = committed_rows.get(0.95)
    if base_row is not None:
        # The ratio gate with an absolute floor: the committed cached
        # rate is hundreds of plans/sec; shared-runner jitter must not
        # trip the gate when the absolute rate is still comfortable.
        assert fresh_row["cached_plans_per_s"] >= min(
            base_row["cached_plans_per_s"] / 2.0, 50.0
        ), (fresh_row, base_row)
        assert fresh_row["speedup"] >= min(
            base_row["speedup"] / 2.0, 25.0
        ), (fresh_row, base_row)

    report("bench_serve_smoke", _render(fresh) + f"\nwrote {out_path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--p", type=int, default=8)
    parser.add_argument("--n", type=int, default=4_000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--requests", type=int, default=REQUESTS)
    parser.add_argument("--cold-requests", type=int, default=COLD_REQUESTS)
    parser.add_argument(
        "--mixes", default=",".join(str(m) for m in MIXES),
        help="comma-separated repeat fractions",
    )
    parser.add_argument("--out", default=BENCH_PATH)
    args = parser.parse_args(argv)
    mixes = tuple(float(m) for m in args.mixes.split(","))
    payload = run_serve_bench(
        mixes=mixes, requests=args.requests, cold_requests=args.cold_requests,
        p=args.p, n=args.n, seed=args.seed, path=args.out,
    )
    print(_render(payload))
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

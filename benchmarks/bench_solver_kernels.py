"""Solver-kernel smoke benchmark — the ``BENCH_solvers.json`` emitter.

Times every DP kernel on a common increasing-cost instance and writes the
per-algorithm wall-clock to ``BENCH_solvers.json`` at the repo root, so the
solver backbone's performance trajectory is measurable across PRs.  The
whole run stays under a minute.

Two entry points:

* ``python benchmarks/bench_solver_kernels.py [--n N] [--p P]`` — standalone;
* ``pytest benchmarks/bench_solver_kernels.py`` — the same run as a smoke
  benchmark with the ≥ 5× kernel-speedup assertion (marked ``slow``).

JSON layout (``schema: bench-solvers/v3``)::

    headline.instance                 the n=20k, p=16 affine instance
    headline.results.<algorithm>      {"seconds", "makespan"}
    headline.speedup_vs_dp_optimized  wall-clock ratios for the new kernels
    ladder.results.<algorithm>        the full ladder at a DP-friendly n
    scaling.points[]                  dp-fast at n ∈ {1e5, 5e5, 1e6}:
                                      cold seconds + peak-RSS (MiB)

Each ``scaling`` point runs in a forked child so its ``ru_maxrss`` is that
solve's own high-water mark, not the parent's accumulated footprint.

Lower is better for ``seconds``; ``makespan`` values of the exact kernels
must agree to float precision (that is the equivalence guarantee, enforced
here and in ``tests/core/test_dp_equivalence.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import time
from typing import Callable, Dict, Optional

import pytest

from repro.core import (
    CostTableCache,
    solve_dp_fast,
    solve_dp_optimized,
    solve_heuristic,
)
from repro.verify.references import solve_dp_basic_vectorized, solve_dp_monotone
from repro.workloads import random_affine_problem

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_PATH = os.path.join(REPO_ROOT, "BENCH_solvers.json")

#: Exact DP kernels.  The table-driven ones get a fresh cost-table cache
#: per solve, so every row is a cold build; dp-fast keeps no tables.
_KERNELS: Dict[str, Callable] = {
    "dp-optimized": lambda prob: solve_dp_optimized(prob, cache=CostTableCache()),
    "dp-fast": solve_dp_fast,
    "dp-monotone": lambda prob: solve_dp_monotone(prob, cache=CostTableCache()),
}


def _timed(solver: Callable, problem, **kwargs) -> Dict[str, float]:
    t0 = time.perf_counter()
    result = solver(problem, **kwargs)
    seconds = time.perf_counter() - t0
    return {"seconds": round(seconds, 6), "makespan": result.makespan}


#: n values for the million-item dp-fast scaling section.
SCALING_NS = (100_000, 500_000, 1_000_000)


def _cold_point(n: int, p: int, seed: int, conn) -> None:
    """Forked child: one cold dp-fast solve and its peak RSS."""
    import resource

    problem = random_affine_problem(random.Random(seed), p, n)
    t0 = time.perf_counter()
    result = solve_dp_fast(problem)
    cold_s = time.perf_counter() - t0
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    conn.send(
        {
            "cold_s": round(cold_s, 6),
            "makespan": result.makespan,
            "peak_rss_mib": round(peak_kib / 1024.0, 1),
        }
    )
    conn.close()


def _in_child(ctx, target, args) -> dict:
    """Run ``target`` in a forked child; return what it sends back."""
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=target, args=args + (child_conn,))
    proc.start()
    child_conn.close()
    try:
        return parent_conn.recv()
    except EOFError:
        raise RuntimeError(f"scaling child {target.__name__} died") from None
    finally:
        proc.join()
        parent_conn.close()


def run_scaling_ladder(*, p: int = 16, seed: int = 7, sizes=SCALING_NS) -> list:
    """dp-fast cold timings at each n, each solve in its own forked child
    so ``ru_maxrss`` is that solve's own high-water mark."""
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    points = []
    for n in sizes:
        cold = _in_child(ctx, _cold_point, (n, p, seed))
        points.append({"n": n, **cold})
    return points


def run_solver_bench(
    *,
    n: int = 20_000,
    p: int = 16,
    ladder_n: int = 2_000,
    seed: int = 7,
    scaling_sizes=SCALING_NS,
    path: Optional[str] = BENCH_PATH,
) -> dict:
    """Run the kernel benchmark and (optionally) write ``BENCH_solvers.json``."""
    problem = random_affine_problem(random.Random(seed), p, n)

    headline: Dict[str, Dict[str, float]] = {}
    for name, solver in _KERNELS.items():
        headline[name] = _timed(solver, problem)
    headline["lp-heuristic"] = _timed(solve_heuristic, problem)

    base = headline["dp-optimized"]["seconds"]
    speedups = {
        name: round(base / max(headline[name]["seconds"], 1e-9), 2)
        for name in ("dp-fast", "dp-monotone")
    }

    ladder_problem = random_affine_problem(random.Random(seed + 1), p, ladder_n)
    ladder: Dict[str, Dict[str, float]] = {}
    for name, solver in _KERNELS.items():
        ladder[name] = _timed(solver, ladder_problem)
    ladder["dp-basic-vectorized"] = _timed(solve_dp_basic_vectorized, ladder_problem,
                                           cache=CostTableCache())
    ladder["lp-heuristic"] = _timed(solve_heuristic, ladder_problem)

    payload = {
        "schema": "bench-solvers/v3",
        "generated_by": "benchmarks/bench_solver_kernels.py",
        "headline": {
            "instance": {"kind": "random-affine", "seed": seed, "n": n, "p": p},
            "results": headline,
            "speedup_vs_dp_optimized": speedups,
        },
        "ladder": {
            "instance": {"kind": "random-affine", "seed": seed + 1,
                         "n": ladder_n, "p": p},
            "results": ladder,
        },
    }
    if scaling_sizes:
        payload["scaling"] = {
            "instance": {"kind": "random-affine", "seed": seed, "p": p,
                         "solver": "dp-fast"},
            "points": run_scaling_ladder(p=p, seed=seed, sizes=scaling_sizes),
        }
    if path:
        with open(path, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")
    return payload


@pytest.mark.slow
def bench_solver_kernels(report):
    """Smoke benchmark: kernel agreement + the ≥ 5× speedup gate."""
    payload = run_solver_bench()
    results = payload["headline"]["results"]

    # All exact kernels agree on the optimum at the headline size.
    ref = results["dp-optimized"]["makespan"]
    assert results["dp-fast"]["makespan"] == pytest.approx(ref, rel=1e-9)
    assert results["dp-monotone"]["makespan"] == pytest.approx(ref, rel=1e-9)

    speedups = payload["headline"]["speedup_vs_dp_optimized"]
    assert speedups["dp-fast"] >= 5.0, speedups

    lines = [f"wrote {BENCH_PATH}"]
    for name, row in results.items():
        lines.append(f"{name:22s} {row['seconds']:9.3f}s  T={row['makespan']:.6f}")
    lines.append(f"speedups vs dp-optimized: {speedups}")
    report("solver_kernels", "\n".join(lines))


@pytest.mark.bench
def bench_smoke_regression(report):
    """Nightly bench-smoke: reduced ladder, fail on >2x regression.

    Reruns the headline instance plus the n=1e5 scaling point and compares
    against the *committed* ``BENCH_solvers.json``; a >2x slowdown on
    either dp-fast number fails the job.  The fresh payload is written to
    ``benchmarks/out/bench_smoke.json`` for upload as a CI artifact.
    """
    with open(BENCH_PATH) as f:
        committed = json.load(f)

    fresh = run_solver_bench(scaling_sizes=(100_000,), path=None)
    out_path = os.path.join(os.path.dirname(__file__), "out", "bench_smoke.json")
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w") as f:
        json.dump(fresh, f, indent=2, sort_keys=True)
        f.write("\n")

    base_head = committed["headline"]["results"]["dp-fast"]["seconds"]
    fresh_head = fresh["headline"]["results"]["dp-fast"]["seconds"]
    assert fresh_head <= 2.0 * base_head, (
        f"dp-fast headline regressed: {fresh_head:.3f}s vs committed "
        f"{base_head:.3f}s (gate: 2x)"
    )

    committed_pts = {
        pt["n"]: pt for pt in committed.get("scaling", {}).get("points", [])
    }
    fresh_pt = fresh["scaling"]["points"][0]
    base_pt = committed_pts.get(fresh_pt["n"])
    if base_pt is not None:
        assert fresh_pt["cold_s"] <= 2.0 * base_pt["cold_s"], (fresh_pt, base_pt)

    report(
        "bench_smoke",
        "\n".join(
            [
                f"headline dp-fast: {fresh_head:.3f}s (committed {base_head:.3f}s)",
                f"n=1e5 cold {fresh_pt['cold_s']:.3f}s "
                f"peak-RSS {fresh_pt['peak_rss_mib']:.0f} MiB",
                f"wrote {out_path}",
            ]
        ),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=20_000)
    parser.add_argument("--p", type=int, default=16)
    parser.add_argument("--ladder-n", type=int, default=2_000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--no-scaling",
        action="store_true",
        help="skip the forked n up to 1e6 scaling ladder",
    )
    parser.add_argument("--out", default=BENCH_PATH)
    args = parser.parse_args(argv)
    payload = run_solver_bench(
        n=args.n,
        p=args.p,
        ladder_n=args.ladder_n,
        seed=args.seed,
        scaling_sizes=() if args.no_scaling else SCALING_NS,
        path=args.out,
    )
    print(json.dumps(payload, indent=2, sort_keys=True))
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

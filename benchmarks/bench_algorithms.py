"""§5.2 — algorithm runtimes and heuristic quality.

Paper's report for n = 817,101, p = 16 (on a PIII/933, C implementations):

* Algorithm 1: interrupted after **more than two days**;
* Algorithm 2: **6 minutes**;
* LP heuristic (pipMP): **instantaneous**, relative error < 6·10⁻⁶.

Python constants differ, but the *scaling* is what the paper's comparison
rests on: Algorithm 1 grows ~n², Algorithm 2 ~n·log n on this workload,
the heuristic is O(p³)-ish (independent of n).  The report prints measured
times over a doubling ladder of n plus each algorithm's fitted growth
exponent, and extrapolates to the paper's n.
"""

import time

import numpy as np
import pytest

from repro.analysis import render_table
from repro.core import (
    solve_dp_basic,
    solve_dp_optimized,
    solve_heuristic,
    solve_lp_rational,
)
from repro.verify.references import solve_dp_basic_vectorized
from repro.workloads import PAPER_RAY_COUNT, table1_problem

LADDER = [100, 200, 400, 800]

SOLVERS = [
    ("Algorithm 1 (dp-basic)", solve_dp_basic, LADDER),
    ("Algorithm 1 (vectorized)", solve_dp_basic_vectorized, [n * 4 for n in LADDER]),
    ("Algorithm 2 (dp-optimized)", solve_dp_optimized, [n * 4 for n in LADDER]),
    ("LP heuristic (exact simplex)", solve_heuristic, [n * 100 for n in LADDER]),
]


def _measure(solver, ns):
    times = []
    for n in ns:
        prob = table1_problem(n)
        t0 = time.perf_counter()
        solver(prob)
        times.append(time.perf_counter() - t0)
    return times


def _growth_exponent(ns, times):
    """Least-squares slope of log(time) vs log(n)."""
    return float(np.polyfit(np.log(ns), np.log(np.maximum(times, 1e-9)), 1)[0])


def bench_algorithm_scaling(report, benchmark):
    rows = []
    measured = {}
    for label, solver, ns in SOLVERS:
        times = _measure(solver, ns)
        measured[label] = (ns, times)
        exp = _growth_exponent(ns, times)
        # Extrapolate the largest measurement to the paper's n.
        scale = (PAPER_RAY_COUNT / ns[-1]) ** exp
        extrapolated = times[-1] * scale
        rows.append(
            (
                label,
                f"n={ns[-1]}",
                f"{times[-1]:.4f}s",
                f"{exp:.2f}",
                f"{extrapolated:,.0f}s",
            )
        )

    # Shape assertions mirroring the paper's findings.
    exp_basic = _growth_exponent(*measured["Algorithm 1 (dp-basic)"])
    exp_opt = _growth_exponent(*measured["Algorithm 2 (dp-optimized)"])
    exp_lp = _growth_exponent(*measured["LP heuristic (exact simplex)"])
    assert exp_basic > 1.6  # ~quadratic
    assert exp_opt < exp_basic  # the paper's "far more efficient"
    assert exp_lp < 0.6  # ~independent of n
    # Algorithm 2 beats Algorithm 1 outright at equal n.
    t_basic_800 = measured["Algorithm 1 (dp-basic)"][1][-1]
    t_opt_800 = _measure(solve_dp_optimized, [800])[0]
    assert t_opt_800 < t_basic_800

    benchmark(lambda: solve_dp_optimized(table1_problem(400)))

    report(
        "algorithm_runtimes",
        render_table(
            ["algorithm", "largest run", "time", "exponent", f"extrapolated to n={PAPER_RAY_COUNT:,}"],
            rows,
            title=(
                "Section 5.2 algorithm comparison (paper: Alg.1 > 2 days, "
                "Alg.2 = 6 min, heuristic instantaneous)"
            ),
        ),
    )


def bench_heuristic_quality(report, benchmark):
    """The < 6e-6 relative error claim, at the paper's exact n."""
    prob = table1_problem(PAPER_RAY_COUNT)

    result = benchmark(lambda: solve_heuristic(prob))

    _, t_rational = solve_lp_rational(prob)
    rel_error = (result.makespan - float(t_rational)) / float(t_rational)
    assert 0 <= rel_error < 6e-6  # the paper's bound, verbatim

    report(
        "heuristic_quality",
        render_table(
            ["quantity", "value"],
            [
                ("n", f"{PAPER_RAY_COUNT:,}"),
                ("rational optimum T", f"{float(t_rational):.6f} s"),
                ("rounded integer T'", f"{result.makespan:.6f} s"),
                ("relative error", f"{rel_error:.2e}"),
                ("paper's bound", "6e-6"),
            ],
            title="Heuristic quality at the paper's problem size",
        ),
    )


def bench_dp_quality_vs_heuristic_small(report, benchmark):
    """At DP-tractable sizes: how close is the heuristic to optimal?"""
    rows = []
    for n in [200, 500, 1000, 2000]:
        prob = table1_problem(n)
        dp = solve_dp_optimized(prob)
        h = solve_heuristic(prob)
        gap = h.makespan - dp.makespan
        rows.append((n, f"{dp.makespan:.6f}", f"{h.makespan:.6f}", f"{gap:.2e}"))
        assert gap >= -1e-12

    benchmark(lambda: solve_heuristic(table1_problem(2000)))
    report(
        "heuristic_vs_dp",
        render_table(
            ["n", "DP optimum (s)", "heuristic (s)", "gap (s)"],
            rows,
            title="Heuristic vs exact DP on Table 1 (Eq. 4 in action)",
        ),
    )

"""repro — reproduction of *Load-Balancing Scatter Operations for Grid
Computing* (Genaud, Giersch, Vivien; IPPS 2003 / INRIA RR-4770).

The library computes load-balanced data distributions for scatter
operations on heterogeneous grids, exactly as the paper describes, and
ships every substrate needed to reproduce its evaluation:

* :mod:`repro.core` — the algorithms (DP, closed form, LP heuristic,
  ordering policy, root selection);
* :mod:`repro.lp` — exact rational simplex (replaces pipMP);
* :mod:`repro.simgrid` — discrete-event grid simulator (replaces the
  two-site Globus/MPICH-G2 testbed);
* :mod:`repro.mpi` — simulated message-passing layer with scatter/scatterv
  collectives;
* :mod:`repro.tomo` — the seismic-tomography application (ray tracing
  through a layered Earth model) used as the paper's workload;
* :mod:`repro.workloads` — the Table 1 platform and synthetic generators;
* :mod:`repro.analysis` — imbalance metrics and report rendering.

Quickstart::

    from repro import Processor, ScatterProblem, plan_scatter

    procs = [
        Processor.linear("fast-pc", alpha=0.004, beta=1e-5),
        Processor.linear("slow-pc", alpha=0.016, beta=2e-5),
        Processor.linear("root",    alpha=0.009, beta=0.0),
    ]
    result = plan_scatter(ScatterProblem(procs, n=10_000))
    print(result.counts, result.makespan)
"""

from .core import (
    ALGORITHMS,
    AffineCost,
    CallableCost,
    CostFunction,
    CostTableCache,
    DistributionResult,
    IncrementalPlanner,
    LinearCost,
    PiecewiseLinearCost,
    Processor,
    ScatterProblem,
    TabulatedCost,
    ZeroCost,
    apply_policy,
    brute_force_best_order,
    choose_root,
    chain_rate,
    fit_affine,
    fit_linear,
    guarantee_gap,
    plan_scatter,
    solve_closed_form,
    solve_dp_basic,
    solve_dp_fast,
    solve_dp_optimized,
    solve_heuristic,
    solve_rational,
    uniform_counts,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ALGORITHMS",
    "AffineCost",
    "CallableCost",
    "CostFunction",
    "CostTableCache",
    "DistributionResult",
    "IncrementalPlanner",
    "LinearCost",
    "PiecewiseLinearCost",
    "Processor",
    "ScatterProblem",
    "TabulatedCost",
    "ZeroCost",
    "apply_policy",
    "brute_force_best_order",
    "choose_root",
    "chain_rate",
    "fit_affine",
    "fit_linear",
    "guarantee_gap",
    "plan_scatter",
    "solve_closed_form",
    "solve_dp_basic",
    "solve_dp_fast",
    "solve_dp_optimized",
    "solve_heuristic",
    "solve_rational",
    "uniform_counts",
]

"""Core of the reproduction: the paper's load-balancing algorithms.

Public surface:

* cost models — :class:`LinearCost`, :class:`AffineCost`,
  :class:`TabulatedCost`, :class:`PiecewiseLinearCost`, :class:`ZeroCost`,
  calibration fits;
* problem statement — :class:`Processor`, :class:`ScatterProblem`,
  :class:`DistributionResult` (Eq. 1–2 evaluation);
* solvers — :func:`solve_dp_basic` (Algorithm 1), :func:`solve_dp_optimized`
  (Algorithm 2), :func:`solve_dp_fast` (Algorithm 2, vectorized),
  :func:`solve_closed_form` (§4 Theorems 1–2), :func:`solve_heuristic`
  (§3.3 LP heuristic), :func:`plan_scatter` facade and its :func:`route`;
* policies — :func:`apply_policy` / Theorem 3 ordering,
  :func:`choose_root` (§3.4), rounding schemes (§3.3).
"""

from .closed_form import (
    RationalSolution,
    chain_rate,
    chain_rate_sum_form,
    simultaneous_endings_mask,
    solve_closed_form,
    solve_rational,
)
from .costs import (
    DEFAULT_COST_CACHE,
    get_default_cost_cache,
    AffineCost,
    CallableCost,
    CostFunction,
    CostTableCache,
    LinearCost,
    PiecewiseLinearCost,
    TabulatedCost,
    ZeroCost,
    as_fraction,
    cost_fingerprint,
    cost_tables,
    fit_affine,
    fit_linear,
    scale_cost,
)
from .distribution import (
    DistributionResult,
    Processor,
    ScatterProblem,
    uniform_counts,
)
from .dp_basic import solve_dp_basic
from .dp_fast import solve_dp_fast
from .dp_optimized import solve_dp_optimized
from .heuristic import (
    guarantee_gap,
    relaxed_makespan,
    solve_heuristic,
    solve_lp_rational,
)
from .ordering import (
    POLICIES,
    apply_policy,
    brute_force_best_order,
    is_bandwidth_sorted,
    order_ascending_bandwidth,
    order_descending_bandwidth,
    ordering_permutation,
)
from .gather import (
    GatherPlan,
    fifo_order,
    gather_finish_times,
    gather_makespan,
    solve_gather,
)
from .root_selection import RootChoice, build_problem_for_root, choose_root
from .weighted import (
    WeightedDistribution,
    WeightedScatterProblem,
    solve_weighted_dp,
    solve_weighted_heuristic,
)
from .rounding import check_rounding, round_largest_remainder, round_paper
from .solver import ALGORITHMS, EXACT_THRESHOLD, TOPOLOGIES, plan_scatter, route
from .incremental import IncrementalPlanner
from .trees import (
    TREE_CONSTRUCTIONS,
    ScatterTree,
    binomial_tree,
    build_tree,
    flat_tree,
    optimal_tree,
    plan_scatter_tree,
    practical_tree,
    subtree_items,
    tree_depth,
    tree_finish_times,
    tree_finish_times_exact,
    tree_lower_bound,
    tree_makespan,
    tree_makespan_exact,
    tree_send_events,
)

__all__ = [
    # costs
    "CostFunction",
    "ZeroCost",
    "LinearCost",
    "AffineCost",
    "TabulatedCost",
    "PiecewiseLinearCost",
    "CallableCost",
    "CostTableCache",
    "DEFAULT_COST_CACHE",
    "get_default_cost_cache",
    "cost_fingerprint",
    "cost_tables",
    "fit_linear",
    "fit_affine",
    "as_fraction",
    "scale_cost",
    # problem
    "Processor",
    "ScatterProblem",
    "DistributionResult",
    "uniform_counts",
    # solvers
    "solve_dp_basic",
    "solve_dp_optimized",
    "solve_dp_fast",
    "solve_closed_form",
    "solve_rational",
    "solve_heuristic",
    "solve_lp_rational",
    "plan_scatter",
    "route",
    "ALGORITHMS",
    "EXACT_THRESHOLD",
    "TOPOLOGIES",
    "IncrementalPlanner",
    # scatter trees
    "ScatterTree",
    "TREE_CONSTRUCTIONS",
    "flat_tree",
    "binomial_tree",
    "practical_tree",
    "optimal_tree",
    "build_tree",
    "subtree_items",
    "tree_send_events",
    "tree_finish_times",
    "tree_finish_times_exact",
    "tree_makespan",
    "tree_makespan_exact",
    "tree_depth",
    "tree_lower_bound",
    "plan_scatter_tree",
    # closed form internals
    "RationalSolution",
    "chain_rate",
    "chain_rate_sum_form",
    "simultaneous_endings_mask",
    # guarantees
    "guarantee_gap",
    "relaxed_makespan",
    # ordering
    "POLICIES",
    "apply_policy",
    "ordering_permutation",
    "order_descending_bandwidth",
    "order_ascending_bandwidth",
    "is_bandwidth_sorted",
    "brute_force_best_order",
    # root selection
    "RootChoice",
    "choose_root",
    "build_problem_for_root",
    # rounding
    "round_paper",
    "round_largest_remainder",
    "check_rounding",
    # weighted extension
    "WeightedScatterProblem",
    "WeightedDistribution",
    "solve_weighted_dp",
    "solve_weighted_heuristic",
    # gather duality
    "GatherPlan",
    "solve_gather",
    "gather_finish_times",
    "gather_makespan",
    "fifo_order",
]

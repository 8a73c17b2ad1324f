"""Unified solver facade: pick the right algorithm for the cost model.

The paper offers a toolbox — exact DP for arbitrary costs, optimized DP for
increasing costs, closed form + rounding for linear costs, LP heuristic for
affine costs — with a two-day / six-minute / instantaneous quality-speed
trade-off.  :func:`route` is the one place that selection is made;
:func:`plan_scatter`, the recommended entry point of the library, runs it.
"""

from __future__ import annotations

from typing import Optional

from ..obs.profiler import stage_profile
from .closed_form import solve_closed_form
from .distribution import DistributionResult, ScatterProblem
from .dp_basic import solve_dp_basic
from .dp_fast import solve_dp_fast
from .dp_optimized import solve_dp_optimized
from .heuristic import solve_heuristic
from .ordering import apply_policy

__all__ = [
    "plan_scatter",
    "route",
    "solve_uniform",
    "ALGORITHMS",
    "EXACT_THRESHOLD",
    "TOPOLOGIES",
]

#: Algorithm names accepted by :func:`plan_scatter`.
ALGORITHMS = (
    "auto",
    "dp-basic",
    "dp-optimized",
    "dp-fast",
    "closed-form",
    "lp-heuristic",
    "uniform",
)

#: Schedule topologies accepted by :func:`plan_scatter`.
TOPOLOGIES = ("flat", "tree")

#: Largest ``n`` for which ``"auto"`` runs Algorithm 1 on non-monotonic
#: costs (the paper's Algorithm 1 ran two days on n = 817,101).
EXACT_THRESHOLD = 5_000


def route(problem: ScatterProblem, algorithm: str = "auto") -> str:
    """The solver :func:`plan_scatter` runs for ``problem``.

    An explicit ``algorithm`` routes to itself.  ``"auto"`` picks:

    * ``closed-form`` when every cost is linear (exact rational optimum,
      instantaneous — the configuration of the paper's experiments);
    * ``lp-heuristic`` when every cost is affine (guaranteed within the
      Eq. 4 gap);
    * ``dp-fast`` for general increasing costs at *any* ``n`` — the
      vectorized exact kernel of :mod:`repro.core.dp_fast` makes the exact
      optimum affordable where Algorithm 2's interpreted scan was not;
    * ``dp-basic`` for non-monotonic costs with ``n <=``
      :data:`EXACT_THRESHOLD`;
    * otherwise raises ``ValueError`` — only truly non-monotonic instances
      that large still need an explicit algorithm choice.

    Every cost-model test is order-invariant, so the route is the same
    before and after an ordering policy is applied.
    """
    if algorithm != "auto":
        return algorithm
    if problem.is_linear:
        return "closed-form"
    if problem.is_affine:
        return "lp-heuristic"
    if problem.is_increasing:
        return "dp-fast"
    if problem.n <= EXACT_THRESHOLD:
        return "dp-basic"
    raise ValueError(
        f"no automatic algorithm for non-monotonic costs with "
        f"n={problem.n} (> EXACT_THRESHOLD={EXACT_THRESHOLD}); "
        f"pass algorithm= explicitly"
    )


def plan_scatter(
    problem: ScatterProblem,
    *,
    algorithm: str = "auto",
    order_policy: Optional[str] = "bandwidth-desc",
    topology: str = "flat",
) -> DistributionResult:
    """Compute a load-balanced scatter distribution.

    Parameters
    ----------
    problem:
        The instance (root last).
    algorithm:
        One of :data:`ALGORITHMS`; :func:`route` resolves ``"auto"``.
    order_policy:
        Ordering applied before solving (default: Theorem 3's descending
        bandwidth).  ``None`` keeps the given order — note the distribution
        is tied to the *returned* result's problem, whose processor order
        may then differ from the input's.
    topology:
        ``"flat"`` (default) produces the paper's rank-ordered single-port
        schedule.  ``"tree"`` delegates to
        :func:`repro.core.trees.plan_scatter_tree`, which co-optimizes the
        distribution and a Träff scatter tree; the returned makespan is
        then the *tree* schedule's and ``info["tree"]`` carries the tree.

    Returns
    -------
    DistributionResult
        The result's ``problem`` attribute is the (possibly reordered)
        problem actually solved.
    """
    if topology not in TOPOLOGIES:
        raise ValueError(f"unknown topology {topology!r}; know {TOPOLOGIES}")
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; know {ALGORITHMS}")
    if topology == "tree":
        from .trees import plan_scatter_tree  # deferred: trees imports this module

        return plan_scatter_tree(
            problem,
            algorithm=algorithm,
            order_policy=order_policy,
        )
    # Base hypotheses (§3.1): every cost must be non-negative and null at
    # zero — the closed form, the DPs and the LP all silently mis-solve
    # instances that violate them, so the facade rejects them up front.
    problem.check_valid()
    if order_policy is not None:
        problem = apply_policy(problem, order_policy)

    algorithm = route(problem, algorithm)
    if algorithm == "dp-basic":
        return solve_dp_basic(problem)
    if algorithm == "dp-optimized":
        return solve_dp_optimized(problem)
    if algorithm == "dp-fast":
        return solve_dp_fast(problem)
    if algorithm == "closed-form":
        return solve_closed_form(problem)
    if algorithm == "lp-heuristic":
        return solve_heuristic(problem)
    if algorithm == "uniform":
        return solve_uniform(problem)
    raise AssertionError(f"unhandled algorithm {algorithm!r}")


def solve_uniform(problem: ScatterProblem) -> DistributionResult:
    """The original program's ``⌊n/p⌋`` distribution, evaluated (§2.2)."""
    prof = stage_profile()
    with prof.stage("evaluate"):
        counts = problem.uniform_distribution()
        span = problem.makespan(counts)
    info: dict = {}
    profile = prof.as_info()
    if profile is not None:
        info["profile"] = profile
    return DistributionResult(
        problem=problem,
        counts=counts,
        makespan=span,
        algorithm="uniform",
        info=info,
    )

"""The guaranteed LP heuristic for affine costs (paper §3.3).

Pipeline: encode system (3) as a linear program, solve it **exactly in the
rationals** (our from-scratch simplex replaces the paper's PIP/pipMP),
round the rational shares with the §3.3 scheme, and report the Eq. 4
guarantee:

    T_opt  <=  T'  <=  T_opt + Σ_j Tcomm(j, 1) + max_i Tcomp(i, 1)

where ``T'`` is the rounded distribution's duration and ``T_opt`` the best
*integer* duration.  (The bounds are stated for the affine cost model used
by the LP — i.e. intercepts are paid regardless of the share; for the
paper's linear experimental model the two readings coincide.  See
:func:`relaxed_makespan`.)

The paper reports this heuristic as "instantaneous" with relative error
below 6·10⁻⁶ on the 817,101-ray instance, versus 6 minutes for Algorithm 2;
the benchmark harness reproduces that comparison.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, List, Sequence, Tuple

from ..lp.model import affine_coefficients, build_scatter_lp
from ..lp.simplex import solve_simplex
from ..obs.profiler import stage_profile
from .distribution import DistributionResult, ScatterProblem
from .rounding import round_paper

__all__ = [
    "guarantee_gap",
    "relaxed_makespan",
    "solve_lp_rational",
    "solve_heuristic",
]

RoundingFn = Callable[[Sequence[Fraction], int], Tuple[int, ...]]


def guarantee_gap(problem: ScatterProblem) -> Fraction:
    """The additive term of Eq. 4: ``Σ_j Tcomm(j, 1) + max_i Tcomp(i, 1)``."""
    comm_sum = sum((proc.comm.exact(1) for proc in problem.processors), Fraction(0))
    comp_max = max(proc.comp.exact(1) for proc in problem.processors)
    return comm_sum + comp_max


def relaxed_makespan(problem: ScatterProblem, counts: Sequence[int]) -> Fraction:
    """Makespan under the LP's affine reading (intercepts always paid).

    For affine costs with ``T(0) = 0`` semantics this *over*-estimates the
    true duration of distributions containing zero shares; for linear costs
    it equals :meth:`ScatterProblem.makespan_exact`.  The Eq. 4 guarantee is
    asserted against this quantity.
    """
    alphas, a_icpt, betas, b_icpt = affine_coefficients(problem)
    counts = problem.validate(counts)
    best = Fraction(0)
    elapsed = Fraction(0)
    for i, c in enumerate(counts):
        elapsed += betas[i] * c + b_icpt[i]
        best = max(best, elapsed + alphas[i] * c + a_icpt[i])
    return best


def solve_lp_rational(problem: ScatterProblem) -> Tuple[List[Fraction], Fraction]:
    """Solve system (3) with the rational simplex (the paper's exact pipMP
    resolution); returns ``(shares, T)`` with ``Σ shares = n`` exact."""
    res = solve_simplex(build_scatter_lp(problem))
    return list(res.x[: problem.p]), res.x[problem.p]


def solve_heuristic(
    problem: ScatterProblem,
    *,
    rounding: RoundingFn = round_paper,
) -> DistributionResult:
    """LP heuristic: exact rational LP + §3.3 rounding + Eq. 4 bound.

    Returns a :class:`DistributionResult` whose ``info`` carries:

    * ``rational_T`` — the exact LP optimum (a lower bound on any integer
      distribution's duration under the affine reading),
    * ``guarantee_gap`` — the additive term of Eq. 4,
    * ``upper_bound`` — ``rational_T + guarantee_gap``,
    * ``relaxed_T`` — the rounded distribution's duration under the affine
      reading (the quantity Eq. 4 bounds; asserted ``<= upper_bound``),
    * ``profile`` — per-stage wall times (``lp_solve`` / ``rounding`` /
      ``evaluate``), matching the DP kernels' stage timings.
    """
    prof = stage_profile()
    with prof.stage("lp_solve"):
        shares, t_rat = solve_lp_rational(problem)
    with prof.stage("rounding"):
        counts = rounding(shares, problem.n)
    with prof.stage("evaluate"):
        gap = guarantee_gap(problem)
        relaxed = relaxed_makespan(problem, counts)
        if relaxed > t_rat + gap:
            raise AssertionError(
                f"Eq. 4 violated: T'={float(relaxed):.9g} > "
                f"{float(t_rat):.9g} + {float(gap):.9g}"
            )
        exact_makespan = problem.makespan_exact(counts)
    prof.note(p=problem.p, n=problem.n)
    info = {
        "rational_T": t_rat,
        "rational_shares": tuple(shares),
        "guarantee_gap": gap,
        "upper_bound": t_rat + gap,
        "relaxed_T": relaxed,
    }
    profile = prof.as_info()
    if profile is not None:
        info["profile"] = profile
    return DistributionResult(
        problem=problem,
        counts=counts,
        makespan=float(exact_makespan),
        algorithm="lp-heuristic[exact]",
        makespan_exact=exact_makespan,
        info=info,
    )

"""Closed-form rational solution for linear costs (paper §4, Theorems 1–2).

When every cost is linear — ``Tcomp(i, x) = α_i·x``, ``Tcomm(i, x) = β_i·x``
— the optimal *rational* distribution has a closed form.  Writing

    D(P_1..P_p) = 1 / Σ_i [ 1/(α_i+β_i) · Π_{j<i} α_j/(α_j+β_j) ]

Theorem 1 gives the duration ``t = n · D(P_1..P_p)`` and the shares

    n_i = t / (α_i+β_i) · Π_{j<i} α_j/(α_j+β_j)

*provided* every processor works and all end simultaneously, which
Theorem 2 characterizes: ``β_i <= D(P_{i+1}..P_p)`` for every non-root
``P_i``.  A processor violating the condition (its link is so slow that
serving it delays everyone behind it more than it helps) receives **zero**
items and is dropped; the proof of Theorem 2 shows the greedy right-to-left
filter below is exactly the induction that establishes the theorem.

``D`` also satisfies the recurrence used throughout the proofs (and here):

    D(P_p)        = α_p + β_p
    D(P_i, S)     = (α_i + β_i) · k / (α_i + k)     with  k = D(S)

Everything in this module is exact.  :func:`solve_rational` runs in one
integer pass: α and β scaled to integers over their common denominator,
Theorem 2's filter and ``D`` carried as one integer pair, the shares built
from running prefix products, one ``Fraction`` each at the end.  The
``Fraction`` forms (:func:`simultaneous_endings_mask`, :func:`chain_rate`,
:func:`chain_rate_sum_form`) stay as the independent checks the Theorem
1/2 oracles and tests use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from ..obs.profiler import stage_profile
from .costs import as_fraction
from .distribution import DistributionResult, Processor, ScatterProblem
from .rounding import round_paper

__all__ = [
    "chain_rate",
    "chain_rate_sum_form",
    "RationalSolution",
    "solve_rational",
    "solve_closed_form",
    "simultaneous_endings_mask",
]


def _linear_coeffs(procs: Sequence[Processor]) -> Tuple[List[Fraction], List[Fraction]]:
    alphas, betas = [], []
    for proc in procs:
        if not (proc.comm.is_linear and proc.comp.is_linear):
            raise ValueError(
                f"closed form requires linear costs; {proc.name!r} has "
                f"comm={proc.comm!r}, comp={proc.comp!r}"
            )
        alphas.append(as_fraction(proc.comp.rate))
        betas.append(as_fraction(proc.comm.rate))
    return alphas, betas


def chain_rate(processors: Sequence[Processor]) -> Fraction:
    """``D(P_1..P_p)`` via the two-term recurrence (exact).

    ``D`` is the duration per data item of the whole ordered chain when all
    processors work and end together: ``t = n · D``.  A degenerate chain
    where some ``α_i + β_i = 0`` (a free, infinitely fast processor) has
    ``D = 0``.
    """
    alphas, betas = _linear_coeffs(processors)
    d: Fraction = alphas[-1] + betas[-1]
    for alpha, beta in zip(reversed(alphas[:-1]), reversed(betas[:-1])):
        if alpha + d == 0:
            # Both this processor's compute rate and the tail are free.
            d = Fraction(0)
            continue
        d = (alpha + beta) * d / (alpha + d)
    return d


def chain_rate_sum_form(processors: Sequence[Processor]) -> Fraction:
    """``D(P_1..P_p)`` via the paper's explicit sum (Theorem 1); exact.

    Kept as an independent implementation for cross-validation against
    :func:`chain_rate` — the two must agree on every instance.
    """
    alphas, betas = _linear_coeffs(processors)
    total = Fraction(0)
    prefix = Fraction(1)
    for alpha, beta in zip(alphas, betas):
        if alpha + beta == 0:
            raise ZeroDivisionError("processor with alpha + beta = 0 (free processor)")
        total += prefix / (alpha + beta)
        prefix *= alpha / (alpha + beta)
    return 1 / total


def simultaneous_endings_mask(processors: Sequence[Processor]) -> List[bool]:
    """Theorem 2 filter: which processors receive a non-empty share.

    Walks right-to-left keeping the chain rate ``D`` of the *active* suffix;
    processor ``P_i`` is active iff ``β_i <= D(active suffix)``.  The root
    (last processor) is always active.  Returns a per-processor boolean
    mask in the original order.
    """
    alphas, betas = _linear_coeffs(processors)
    p = len(processors)
    active = [False] * p
    active[p - 1] = True
    d: Fraction = alphas[-1] + betas[-1]
    for i in range(p - 2, -1, -1):
        if betas[i] <= d:
            active[i] = True
            if alphas[i] + d == 0:
                d = Fraction(0)
            else:
                d = (alphas[i] + betas[i]) * d / (alphas[i] + d)
    return active


@dataclass(frozen=True)
class RationalSolution:
    """Exact rational optimum for a linear-cost instance.

    ``shares[i]`` is the (possibly zero) rational share of ``P_i``;
    ``duration`` is the common ending time ``t = n · D`` of the active
    processors; ``active[i]`` is the Theorem 2 mask.
    """

    shares: Tuple[Fraction, ...]
    duration: Fraction
    active: Tuple[bool, ...]

    @property
    def n(self) -> Fraction:
        return sum(self.shares, Fraction(0))


def solve_rational(problem: ScatterProblem) -> RationalSolution:
    """Optimal rational distribution for linear costs (Theorems 1 + 2).

    One pass in integers: α and β are scaled by ``L``, the lcm of their
    denominators, to ``a_i`` and ``b_i``, and Theorem 2's right-to-left
    filter carries ``L·D(active suffix)`` as the pair ``N/M`` — processor
    ``i`` is active iff ``b_i·M <= N``, and joining it maps ``(N, M)`` to
    ``((a_i+b_i)·N, a_i·M + N)``, the chain-rate recurrence.  The final
    pair is ``L·D`` of the active chain, so Eq. 8's shares are

        n_i = n·N·Π_{j<i} a_j / (M·Π_{j<=i} (a_j+b_j))      (active j only)

    built from running integer prefix products, one ``Fraction`` each.
    :func:`simultaneous_endings_mask` and :func:`chain_rate` compute the
    same mask and ``D`` in ``Fraction`` arithmetic; the oracles use them
    as the independent check.
    """
    procs = problem.processors
    alphas, betas = _linear_coeffs(procs)
    n, p = problem.n, problem.p
    scale = math.lcm(*[x.denominator for x in alphas + betas])
    a = [x.numerator * (scale // x.denominator) for x in alphas]
    b = [x.numerator * (scale // x.denominator) for x in betas]

    active = [False] * p
    active[p - 1] = True
    num, den = a[-1] + b[-1], 1
    for i in range(p - 2, -1, -1):
        if b[i] * den <= num:
            active[i] = True
            if a[i] * den + num == 0:
                # Both this processor's compute rate and the tail are free.
                num, den = 0, 1
            else:
                num, den = (a[i] + b[i]) * num, a[i] * den + num
    t = Fraction(n * num, den * scale)

    shares = [Fraction(0)] * p
    free = [i for i in range(p) if active[i] and a[i] + b[i] == 0]
    if free:
        # A free processor makes the chain rate 0: the first one absorbs
        # all items instantly and everyone else gets none.
        shares[free[0]] = Fraction(n)
    else:
        # Σ shares kept as total / (M·Π (a_j+b_j)) for the Σ = n check.
        prefix_num, prefix_den, total = 1, den, 0
        for i in range(p):
            if active[i]:
                rate = a[i] + b[i]
                prefix_den *= rate
                share_num = n * num * prefix_num
                shares[i] = Fraction(share_num, prefix_den)  # Eq. 8
                total = total * rate + share_num
                prefix_num *= a[i]
        if total != n * prefix_den:
            raise AssertionError(
                f"rational shares sum to {Fraction(total, prefix_den)} != n={n}; "
                "chain-rate recurrence is inconsistent"
            )
    return RationalSolution(tuple(shares), t, tuple(active))


def solve_closed_form(problem: ScatterProblem) -> DistributionResult:
    """Integer distribution from the closed form + §3.3 rounding.

    Valid for linear costs only.  The rounded distribution obeys the Eq. 4
    guarantee relative to the rational optimum (cf. §4.4:
    ``T_int_opt <= T' <= T_int_opt + Σ_j Tcomm(j,1) + max_i Tcomp(i,1)``).
    """
    prof = stage_profile()
    with prof.stage("rational_solve"):
        rat = solve_rational(problem)
    with prof.stage("rounding"):
        counts = round_paper(rat.shares, problem.n)
    with prof.stage("evaluate"):
        exact_makespan = problem.makespan_exact(counts)
    prof.note(p=problem.p, n=problem.n)
    info = {
        "rational_duration": rat.duration,
        "active": rat.active,
        "rational_shares": rat.shares,
    }
    profile = prof.as_info()
    if profile is not None:
        info["profile"] = profile
    return DistributionResult(
        problem=problem,
        counts=counts,
        makespan=float(exact_makespan),
        algorithm="closed-form",
        makespan_exact=exact_makespan,
        info=info,
    )

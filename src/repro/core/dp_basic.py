"""Algorithm 1 — exact optimal distribution by dynamic programming (§3.2).

The recurrence behind the paper's Algorithm 1: the time to process ``d``
items on processors ``P_i .. P_p`` is

    cost[d, i] = min_{0 <= e <= d}  Tcomm(i, e)
                 + max( Tcomp(i, e), cost[d - e, i + 1] )

with the base row ``cost[d, p] = Tcomm(p, d) + Tcomp(p, d)`` (the root is
last and computes after every send completes).  The only hypotheses are that
the cost functions are non-negative and null at 0, so this solver accepts
*any* :class:`~repro.core.costs.CostFunction` — including tabulated
measurements with cache cliffs.

Complexity is ``O(p · n²)`` time and ``O(p · n)`` memory.
:func:`solve_dp_basic` is a faithful transcription of the paper's pseudo
code (optionally in exact rational arithmetic).  The NumPy-reduction variant
of the same recurrence lives in :mod:`repro.verify.references` as a
cross-check.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Tuple

import numpy as np

from ..obs.profiler import stage_profile
from .costs import CostTableCache, cost_tables, get_default_cost_cache
from .distribution import DistributionResult, ScatterProblem

__all__ = ["solve_dp_basic"]


def _reconstruct(choice: List[np.ndarray], n: int, p: int) -> Tuple[int, ...]:
    """Walk the choice table front-to-back to recover ``n_1 .. n_p``."""
    counts = []
    d = n
    for i in range(p - 1):
        c = int(choice[i][d])
        counts.append(c)
        d -= c
    counts.append(d)  # the root takes whatever remains
    return tuple(counts)


def solve_dp_basic(
    problem: ScatterProblem,
    *,
    exact: bool = False,
    cache: Optional[CostTableCache] = None,
) -> DistributionResult:
    """Optimal integer distribution via the paper's Algorithm 1.

    Parameters
    ----------
    problem:
        The instance; the last processor is the root.
    exact:
        When True, run the whole DP in :class:`~fractions.Fraction`
        arithmetic (slow; use for small instances and for validating the
        float path).  When False, evaluate costs as floats.

    Returns
    -------
    DistributionResult
        With ``algorithm="dp-basic"`` and, in exact mode, the exact optimal
        makespan in ``makespan_exact``.
    """
    p, n = problem.p, problem.n
    procs = problem.processors
    prof = stage_profile()

    cache_delta = None
    with prof.stage("cost_tables"):
        if exact:
            comm = [[proc.comm.exact(x) for x in range(n + 1)] for proc in procs]
            comp = [[proc.comp.exact(x) for x in range(n + 1)] for proc in procs]
            zero = Fraction(0)
        else:
            # Float path: the cached NumPy tables are used as-is — no
            # ``.tolist()`` round-trip, no per-call retabulation.
            cc = get_default_cost_cache() if cache is None else cache
            before = cc.stats()
            comm, comp = cost_tables(procs, n, cache=cc)
            after = cc.stats()
            cache_delta = {
                "hits": after["hits"] - before["hits"],
                "misses": after["misses"] - before["misses"],
            }
            zero = 0.0

    # Base row: the root processor P_p alone.
    prev = [comm[p - 1][d] + comp[p - 1][d] for d in range(n + 1)]
    choice: List[np.ndarray] = [np.zeros(n + 1, dtype=np.int64) for _ in range(p - 1)]

    with prof.stage("dp_rows"):
        for i in range(p - 2, -1, -1):  # P_{p-1} down to P_1 (0-based: i)
            comm_i, comp_i = comm[i], comp[i]
            cur = [zero] * (n + 1)
            ch = choice[i]
            for d in range(1, n + 1):
                best_sol, best = 0, prev[d]  # e = 0: P_i takes nothing
                for e in range(1, d + 1):
                    rest = prev[d - e]
                    ce = comp_i[e]
                    m = comm_i[e] + (ce if ce > rest else rest)
                    if m < best:
                        best_sol, best = e, m
                ch[d] = best_sol
                cur[d] = best
            prev = cur

    with prof.stage("reconstruct"):
        counts = _reconstruct(choice, n, p)
    prof.note(table_entries=2 * p * (n + 1))
    opt = prev[n]
    info: dict = {"exact": exact}
    if cache_delta is not None:
        info["cost_cache"] = cache_delta
    profile = prof.as_info()
    if profile is not None:
        info["profile"] = profile
    return DistributionResult(
        problem=problem,
        counts=counts,
        makespan=float(opt),
        algorithm="dp-basic",
        makespan_exact=opt if exact else None,
        info=info,
    )


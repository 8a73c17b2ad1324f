"""Cross-check references: exact DP kernels that are not solver routes.

Two exact kernels exist only to check the production ones, so they live
here rather than in :data:`repro.core.solver.ALGORITHMS`:

* ``dp-basic-vectorized`` — Algorithm 1's recurrence with the inner
  ``e``-loop as a NumPy reduction.  Same ``O(p · n²)`` arithmetic as
  :func:`repro.core.dp_basic.solve_dp_basic`, and the same optimum; it may
  break cost ties differently.
* ``dp-monotone`` — Algorithm 2's recurrence with the below-pivot
  minimization done by divide-and-conquer monotone argmin
  (``O(p · n log n)``) instead of
  :func:`repro.core.dp_fast.solve_dp_fast`'s offline segment walk.  It
  shares only the pivot staircase with dp-fast.  Above the fuzzer's
  Algorithm 1 size gate it is the only independent check on dp-fast.

Both are cold solvers: they accept a ``cache=`` for their cost tables and
nothing else.  :func:`solve_reference` validates the problem exactly as
:func:`~repro.core.solver.plan_scatter` does, so
:func:`repro.verify.oracles.solve_all` can run them under the same names
and record the same crashes.

:func:`round_paper_reference` is the paper's §3.3 rounding loop as
written — an O(p²) ``Fraction`` re-scan of the pending shares per pick —
which :func:`repro.core.rounding.round_paper` must match count for count.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.costs import CostTableCache, cost_tables, get_default_cost_cache
from ..core.distribution import DistributionResult, ScatterProblem
from ..core.dp_basic import _reconstruct
from ..core.dp_fast import _RowScratch, _pivot_staircase
from ..core.rounding import check_rounding
from ..obs.profiler import stage_profile

__all__ = [
    "REFERENCES",
    "round_paper_reference",
    "solve_dp_basic_vectorized",
    "solve_dp_monotone",
    "solve_reference",
]


def solve_dp_basic_vectorized(
    problem: ScatterProblem, *, cache: Optional[CostTableCache] = None
) -> DistributionResult:
    """Algorithm 1 with the inner minimization as a NumPy reduction.

    For each remaining-items count ``d`` the candidate costs over
    ``e = 0..d`` are computed in one vector expression::

        m[e] = comm_i[e] + maximum(comp_i[e], prev[d - e])

    then reduced with ``argmin``.  Same asymptotic complexity as the scalar
    version, but each inner loop is a few fused array operations.
    """
    p, n = problem.p, problem.n
    procs = problem.processors
    prof = stage_profile()
    with prof.stage("cost_tables"):
        comm, comp = cost_tables(procs, n, cache=cache)

    prev = comm[p - 1] + comp[p - 1]  # base row: the root alone
    choice: List[np.ndarray] = [np.zeros(n + 1, dtype=np.int64) for _ in range(p - 1)]

    with prof.stage("dp_rows"):
        for i in range(p - 2, -1, -1):
            comm_i, comp_i = comm[i], comp[i]
            cur = np.empty(n + 1, dtype=float)
            cur[0] = prev[0]
            ch = choice[i]
            for d in range(1, n + 1):
                # prev[d - e] for e = 0..d is prev[d::-1]
                m = comm_i[: d + 1] + np.maximum(comp_i[: d + 1], prev[d::-1])
                e = int(np.argmin(m))
                ch[d] = e
                cur[d] = m[e]
            prev = cur

    with prof.stage("reconstruct"):
        counts = _reconstruct(choice, n, p)
    prof.note(table_entries=2 * p * (n + 1))
    info: dict = {}
    profile = prof.as_info()
    if profile is not None:
        info["profile"] = profile
    return DistributionResult(
        problem=problem,
        counts=counts,
        makespan=float(prev[n]),
        algorithm="dp-basic-vectorized",
        info=info,
    )


def _row_monotone_dc(
    comm_i: np.ndarray,
    comp_i: np.ndarray,
    prev: np.ndarray,
    pivots: np.ndarray,
    d_arr: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Affine-comm row update via divide-and-conquer monotone argmin.

    Three candidate families per ``d``: ``e = 0`` (processor skipped),
    ``e = E(d)`` (the pivot, which dominates all ``e > E(d)``) and the
    below-pivot window.  In ``m = d - e`` space the window matrix
    ``M(d, m) = prev[m] + comm_i[d - m]`` has argmin non-decreasing in
    ``d`` whenever ``comm_i`` is convex on ``e >= 1`` (affine qualifies):
    the classic divide-and-conquer DP optimization then evaluates
    ``O(n log n)`` entries instead of ``O(n²)``.
    """
    n = comm_i.shape[0] - 1
    cand0 = comm_i[0] + np.maximum(comp_i[0], prev)
    candp = comm_i[pivots] + np.maximum(comp_i[pivots], prev[d_arr - pivots])
    w_lo = d_arr - pivots + 1  # first m of the below-pivot window
    w_hi = d_arr - 1  # m = d - 1  <=>  e = 1
    b_vals = np.full(n + 1, np.inf)
    e_below = np.zeros(n + 1, dtype=np.int64)

    # (d range, inherited m bounds); explicit stack to skip recursion limits.
    stack: List[Tuple[int, int, int, int]] = [(2, n, 1, max(1, n - 1))]
    while stack:
        d_lo, d_hi, m_lo_b, m_hi_b = stack.pop()
        if d_lo > d_hi:
            continue
        mid = (d_lo + d_hi) >> 1
        a = max(int(w_lo[mid]), m_lo_b)
        b = min(int(w_hi[mid]), m_hi_b)
        if a <= b:
            seg = prev[a : b + 1] + comm_i[mid - b : mid - a + 1][::-1]
            jj = int(np.argmin(seg))
            m_star = a + jj
            b_vals[mid] = seg[jj]
            e_below[mid] = mid - m_star
            stack.append((d_lo, mid - 1, m_lo_b, m_star))
            stack.append((mid + 1, d_hi, m_star, m_hi_b))
        else:
            stack.append((d_lo, mid - 1, m_lo_b, m_hi_b))
            stack.append((mid + 1, d_hi, m_lo_b, m_hi_b))

    stacked = np.stack((cand0, b_vals, candp))
    which = np.argmin(stacked, axis=0)
    cur = stacked[which, np.arange(n + 1)]
    ch = np.where(which == 0, 0, np.where(which == 1, e_below, pivots))
    cur[0] = prev[0]
    ch[0] = 0
    return cur, ch.astype(np.int64)


def _row_general(
    comm_i: np.ndarray,
    comp_i: np.ndarray,
    prev: np.ndarray,
    pivots: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Row values and argmins for non-affine comm: a scan over ``e <= E(d)``."""
    n = comm_i.shape[0] - 1
    cur = np.empty(n + 1, dtype=float)
    ch = np.zeros(n + 1, dtype=np.int64)
    cur[0] = prev[0]
    for d in range(1, n + 1):
        e_hi = int(pivots[d])
        cand = comm_i[: e_hi + 1] + np.maximum(
            comp_i[: e_hi + 1], prev[d - e_hi : d + 1][::-1]
        )
        e = int(np.argmin(cand))
        ch[d] = e
        cur[d] = cand[e]
    return cur, ch


def solve_dp_monotone(
    problem: ScatterProblem, *, cache: Optional[CostTableCache] = None
) -> DistributionResult:
    """Algorithm 2's optimum via divide-and-conquer monotone argmin.

    Same preconditions as :func:`~repro.core.dp_fast.solve_dp_fast`
    (increasing costs) and the same optimal makespan; ``O(p · n log n)``
    on affine links.  Keeps a choice table per row and reconstructs from
    it, where dp-fast re-derives the choices from row values.
    """
    if not problem.is_increasing:
        raise ValueError(
            "dp-monotone requires non-decreasing cost functions; "
            "use solve_dp_basic for general costs"
        )
    p, n = problem.p, problem.n
    procs = problem.processors
    cc = get_default_cost_cache() if cache is None else cache
    prof = stage_profile()
    before = cc.stats()
    with prof.stage("cost_tables"):
        comm, comp = cost_tables(procs, n, cache=cc)
    after = cc.stats()

    s = _RowScratch(n)
    choice: List[np.ndarray] = []  # back-to-front, one per non-root row
    rows_affine = 0
    rows_general = 0
    with prof.stage("dp_rows"):
        prev = comm[p - 1] + comp[p - 1]  # base row: the root alone
        for i in range(p - 2, -1, -1):
            pivots = _pivot_staircase(procs[i].comp, comp[i], prev, s)[0]
            if procs[i].comm.is_affine:
                rows_affine += 1
                prev, ch = _row_monotone_dc(comm[i], comp[i], prev, pivots, s.m_arr)
            else:
                rows_general += 1
                prev, ch = _row_general(comm[i], comp[i], prev, pivots)
            choice.append(ch)

    with prof.stage("reconstruct"):
        choice.reverse()  # choice[i] for P_{i+1}, front-first
        counts = _reconstruct(choice, n, p)
    prof.note(table_entries=2 * p * (n + 1))
    info: dict = {
        "rows_affine": rows_affine,
        "rows_general_scan": rows_general,
        "cost_cache": {
            "hits": after["hits"] - before["hits"],
            "misses": after["misses"] - before["misses"],
        },
    }
    profile = prof.as_info()
    if profile is not None:
        info["profile"] = profile
    return DistributionResult(
        problem=problem,
        counts=counts,
        makespan=float(prev[n]),
        algorithm="dp-monotone",
        info=info,
    )


def round_paper_reference(shares: Sequence[Fraction], n: int) -> Tuple[int, ...]:
    """The paper's §3.3 rounding, one ``Fraction`` scan of the pending shares per pick.

    The first pick is the share nearest any integer, rounded to it (an
    exact half goes up); while the accumulated error ``e = Σ (n'_j − n_j)``
    is negative the next pick is the share nearest its ceiling, while
    positive the share nearest its floor; ties go to the lowest index.
    The last share absorbs ``n'_k = n_k − e``.
    """
    vals = [Fraction(s) for s in shares]
    if any(v < 0 for v in vals):
        raise ValueError(f"rational shares must be >= 0, got {shares!r}")
    if sum(vals) != n:
        raise ValueError(f"rational shares sum to {float(sum(vals))}, expected {n}")
    out: List[int] = [0] * len(vals)
    pending = [i for i, v in enumerate(vals) if v.denominator != 1]
    for i, v in enumerate(vals):
        if v.denominator == 1:
            out[i] = int(v)
    if not pending:
        return tuple(out)

    e = Fraction(0)
    while len(pending) > 1:
        if e < 0:
            # Under-allocated so far: round up the share nearest its ceiling.
            idx = min(pending, key=lambda i: (-(vals[i]) % 1, i))
            rounded = int(-(-vals[idx] // 1))  # ceil
        elif e > 0:
            # Over-allocated: round down the share nearest its floor.
            idx = min(pending, key=lambda i: (vals[i] % 1, i))
            rounded = int(vals[idx] // 1)  # floor
        else:
            # No error yet: round the share nearest to *any* integer.
            def dist_to_int(i: int) -> Fraction:
                frac = vals[i] % 1
                return min(frac, 1 - frac)

            idx = min(pending, key=lambda i: (dist_to_int(i), i))
            frac = vals[idx] % 1
            rounded = int(vals[idx] // 1) + (1 if frac >= Fraction(1, 2) else 0)
        out[idx] = rounded
        e += rounded - vals[idx]
        pending.remove(idx)

    # Absorb the residue: n'_k = n_k − e keeps the total exactly n.
    last = pending[0]
    final = vals[last] - e
    if final.denominator != 1:
        raise AssertionError(f"rounding residue is not integral: {final}")
    out[last] = int(final)
    return check_rounding(vals, tuple(out), n)


#: The cross-check kernels, by the algorithm name their results carry.
REFERENCES: Dict[str, Callable[[ScatterProblem], DistributionResult]] = {
    "dp-basic-vectorized": solve_dp_basic_vectorized,
    "dp-monotone": solve_dp_monotone,
}


def solve_reference(problem: ScatterProblem, algorithm: str) -> DistributionResult:
    """Run the :data:`REFERENCES` kernel ``algorithm`` on ``problem`` as given.

    Validates the costs first (non-negative, null at zero), as
    :func:`~repro.core.solver.plan_scatter` does before any solver runs.
    """
    solve = REFERENCES[algorithm]
    problem.check_valid()
    return solve(problem)

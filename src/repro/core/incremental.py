"""Incremental re-planning: O(change) fault recovery and drift re-solves.

Every consumer that re-plans — :func:`repro.mpi.collectives.ft_scatterv`
after a rank dies, :class:`repro.monitor.daemon.MonitorDaemon` on load
drift, :func:`repro.analysis.chaos.chaos_sweep` over nested kill sets —
today pays a full cold :func:`~repro.core.solver.plan_scatter` solve.  But
the DP kernels' state is largely reusable across those re-plans:

* **Rows depend only on the processor suffix behind them.**  The Algorithm
  2 recurrence ``cost(d, i) = min_e Tcomm_i(e) + max(Tcomp_i(e),
  cost(d - e, i + 1))`` builds rows back-to-front (root last), so the row
  for the suffix starting at ``P_i`` is a pure function of ``P_i .. P_p``.
  Removing or perturbing a processor invalidates only the rows *in front
  of* it; everything behind stays bit-identical.
* **Row values are prefix-stable in** ``n``.  Every per-``d`` entry reads
  cost values at indices ``<= d`` only, so a row computed at a larger
  ``n``, served as a ``[: n' + 1]`` prefix view, is bit-identical to a
  cold solve at ``n'`` (the dp-fast kernel's analytic-pivot guard takes
  the same branch either way — both branches produce the same exact
  pivots).  On the window path a link's affine pieces come from its exact
  breakpoints and only the last is clipped at ``n``, every piece's line
  is evaluated per index, and a window minimum over a static array is
  exact whichever route (narrow levels, block walk, sparse table) answers
  it, so piecewise-linear rows are prefix-stable too.

:class:`IncrementalPlanner` packages those facts behind the same contract
as :func:`~repro.core.solver.plan_scatter`: **every plan it returns is
byte-identical to the cold solve of the same problem** (machine-checked by
the ``incremental-matches-cold`` oracle and the differential fuzzer in
:mod:`repro.verify.fuzz`).  It is *not* an approximation — warm-starting
skips work whose result is provably unchanged, never work whose result
might differ.

What warm-starts, what invalidates
----------------------------------
============================  =========================================
change                        reused state
============================  =========================================
processor removed at front    everything (reconstruction walk only)
processor removed at pos. j   rows behind ``j`` (``p - 1 - j`` rows)
single link (α, β) perturbed  rows behind the perturbed processor
``n`` shrinks                 all rows, served as prefix views
``n`` grows                   nothing (rows recomputed — row extension
                              is not bit-stable, see below)
platform reordered/replaced   nothing (cold solve, state re-seeded)
============================  =========================================

``n``-growth cannot reuse rows: the window minimum behind ``prev[d - e]``
shifts with ``d``, so entries above the old ``n`` need the *whole* prior
row at indices that were never computed.  Growth therefore re-runs the row
kernels, which evaluate their cost rows per solve anyway.

Routing is :func:`~repro.core.solver.route`, the same call
:func:`~repro.core.solver.plan_scatter` makes.  Only the flat ``dp-fast``
route warm-starts; every other route (and the tree topology) delegates to
the cold facade unchanged — those solvers are already near-instant.

Metrics (``repro.obs.metrics.METRICS``):

* ``core.incremental.plans`` — total plans served;
* ``core.incremental.warm_plans`` / ``cold_plans`` — plans that reused at
  least one row vs. none (includes delegated non-DP routes);
* ``core.incremental.warm_rows`` / ``rows_computed`` — row-level ledger:
  DP rows reused vs. recomputed across all plans;
* ``core.incremental.state_evictions`` — cached solve states dropped by
  the ``keep_states`` bound.

Stage spans (``incremental_match`` / ``incremental_solve``) land in
``result.info["incremental"]["profile"]`` when profiling is enabled, next
to the kernel's own ``dp_rows`` / ``reconstruct`` stages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..lint.runtime import make_lock, note_blocking
from ..obs.metrics import METRICS
from ..obs.profiler import stage_profile
from .costs import CostFunction
from .distribution import DistributionResult, ScatterProblem
from .dp_fast import solve_dp_fast
from .ordering import apply_policy
from .solver import ALGORITHMS, TOPOLOGIES, plan_scatter, route

__all__ = ["IncrementalPlanner"]

#: Value identity of a problem's cost structure, front-ordered.
_Key = Tuple[Tuple[CostFunction, CostFunction], ...]


def _problem_key(problem: ScatterProblem) -> _Key:
    """Cost-function pairs, *not* processor names.

    ``ft_scatterv`` survivor problems rename processors to rank strings;
    what determines the DP rows is the cost structure alone, so matching
    ignores names.  Analytic cost classes compare by value (a re-created
    ``LinearCost(0.01)`` still matches); tabulated/callable costs compare
    by identity, which survivor problems preserve (they reuse the original
    cost objects) and perturbations break (a scaled cost is a new object)
    — exactly the invalidation we want, conservatively.
    """
    return tuple((proc.comm, proc.comp) for proc in problem.processors)


def _suffix_match(key: _Key, state_key: _Key) -> int:
    """Length of the longest common *trailing* run of cost pairs."""
    m = 0
    for ours, theirs in zip(reversed(key), reversed(state_key)):
        if ours[0] == theirs[0] and ours[1] == theirs[1]:
            m += 1
        else:
            break
    return m


@dataclass
class _SolveState:
    """Owned, immutable DP rows from one solve, keyed for suffix reuse."""

    key: _Key
    n: int
    #: front-ordered: ``rows[i]`` = DP values for the suffix starting at
    #: ``P_i``; ``rows[p - 1]`` is the root's base row.
    rows: List[np.ndarray] = field(repr=False)

    @property
    def p(self) -> int:
        return len(self.key)


class IncrementalPlanner:
    """A drop-in :func:`~repro.core.solver.plan_scatter` that warm-starts.

    Instances are callables with the ``ft_scatterv`` planner-hook
    signature (``problem -> DistributionResult``), so one planner can be
    threaded through a whole re-plan cascade, a monitor daemon, or a chaos
    sweep and accumulate reusable state across calls.

    Parameters
    ----------
    algorithm:
        Same contract as :func:`plan_scatter`.  Warm-starting applies to
        the ``dp-fast`` route (which ``"auto"`` picks for general
        increasing costs); every other route delegates to the cold
        facade — those solvers are already O(p)–O(p log p).
    order_policy:
        Ordering applied before matching/solving.  Defaults to ``None``
        (keep the caller's order) because re-planning consumers pin the
        processor order to rank order; pass a policy only for standalone
        use.
    keep_states:
        How many solve states to retain.  The state with the largest
        ``(n, p)`` is pinned (it warm-starts every nested kill set /
        shrunk re-plan); the rest are kept most-recent-first.  Each state
        holds ``p`` float64 rows of length ``n + 1`` — bound this to bound
        memory.
    topology:
        ``"flat"`` (default) solves the paper's rank-ordered schedule
        with the warm-start machinery above.  ``"tree"`` delegates every
        plan to the cold tree-aware facade
        (``plan_scatter(topology="tree")``) — the tree planner's
        candidate search is not row-structured, so there is nothing to
        warm-start yet, but the planner keeps the same call contract so
        a :class:`~repro.serve.service.PlanService` or ``ft_scatterv``
        hook can switch topology without changing shape.
    """

    def __init__(
        self,
        *,
        algorithm: str = "auto",
        order_policy: Optional[str] = None,
        keep_states: int = 2,
        topology: str = "flat",
    ):
        if algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {algorithm!r}; know {ALGORITHMS}"
            )
        if topology not in TOPOLOGIES:
            raise ValueError(
                f"unknown topology {topology!r}; know {TOPOLOGIES}"
            )
        if keep_states < 1:
            raise ValueError("keep_states must be >= 1")
        self.algorithm = algorithm
        self.order_policy = order_policy
        self.topology = topology
        self.keep_states = int(keep_states)
        self._states: List[_SolveState] = []
        self._lock = make_lock("IncrementalPlanner._lock")
        self.plans = 0
        self.warm_plans = 0
        self.rows_reused = 0
        self.rows_computed = 0

    # -- state -----------------------------------------------------------
    def _best_state(self, key: _Key, n: int) -> Tuple[Optional[_SolveState], int]:
        """Most-reusable cached state and its matched suffix depth."""
        best: Optional[_SolveState] = None
        best_m = 0
        with self._lock:
            states = list(self._states)
        for state in reversed(states):  # most recent wins ties
            if state.n < n:
                continue  # rows are prefix-stable in n, never extensible
            m = _suffix_match(key, state.key)
            if m > best_m:
                best, best_m = state, m
        return best, best_m

    def _store(self, state: _SolveState) -> None:
        with self._lock:
            # Replace a same-shape state instead of churning the list.
            for i, old in enumerate(self._states):
                if old.n == state.n and old.key == state.key:
                    self._states[i] = state
                    return
            self._states.append(state)
            while len(self._states) > self.keep_states:
                # Pin the largest state (best warm source for nested
                # kill sets); evict the oldest of the rest.
                pinned = max(
                    range(len(self._states)),
                    key=lambda i: (self._states[i].n, self._states[i].p),
                )
                victim = 0 if pinned != 0 else 1
                del self._states[victim]
                METRICS.counter("core.incremental.state_evictions").inc()

    def reset(self) -> None:
        """Drop all cached solve states."""
        with self._lock:
            self._states.clear()

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "plans": self.plans,
                "warm_plans": self.warm_plans,
                "rows_reused": self.rows_reused,
                "rows_computed": self.rows_computed,
                "states": len(self._states),
            }

    # -- planning --------------------------------------------------------
    def plan(self, problem: ScatterProblem) -> DistributionResult:
        """Solve ``problem``, byte-identical to the cold ``plan_scatter``."""
        METRICS.counter("core.incremental.plans").inc()
        with self._lock:
            self.plans += 1
        problem.check_valid()
        if self.order_policy is not None:
            problem = apply_policy(problem, self.order_policy)
        # Tree schedules have no row-structured DP to warm-start.
        if self.topology == "flat" and route(problem, self.algorithm) == "dp-fast":
            return self._plan_dp(problem)
        METRICS.counter("core.incremental.cold_plans").inc()
        note_blocking("IncrementalPlanner.cold_plan")
        return plan_scatter(
            problem,
            algorithm=self.algorithm,
            order_policy=None,
            topology=self.topology,
        )

    __call__ = plan

    def _plan_dp(self, problem: ScatterProblem) -> DistributionResult:
        p, n = problem.p, problem.n
        prof = stage_profile()
        key = _problem_key(problem)
        with prof.stage("incremental_match"):
            state, depth = self._best_state(key, n)
        warm_rows = None
        if state is not None and depth:
            sp = state.p
            warm_rows = [
                state.rows[i][: n + 1]
                for i in range(sp - 1, sp - 1 - depth, -1)
            ]
        collected: dict = {}
        note_blocking("IncrementalPlanner.solve")
        with prof.stage("incremental_solve"):
            result = solve_dp_fast(
                problem, warm_rows=warm_rows, collect=collected
            )
        self._store(_SolveState(key=key, n=n, rows=collected["rows"]))
        reused = depth if warm_rows is not None else 0
        computed = p - reused
        METRICS.counter("core.incremental.warm_rows").inc(reused)
        METRICS.counter("core.incremental.rows_computed").inc(computed)
        METRICS.counter(
            "core.incremental.warm_plans"
            if reused
            else "core.incremental.cold_plans"
        ).inc()
        with self._lock:
            if reused:
                self.warm_plans += 1
            self.rows_reused += reused
            self.rows_computed += computed
        inc_info: dict = {"warm_rows": reused, "rows_computed": computed}
        profile = prof.as_info()
        if profile is not None:
            inc_info["profile"] = profile
        result.info["incremental"] = inc_info
        return result

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"IncrementalPlanner(algorithm={self.algorithm!r}, "
            f"plans={s['plans']}, warm={s['warm_plans']}, "
            f"rows_reused={s['rows_reused']}, states={s['states']})"
        )

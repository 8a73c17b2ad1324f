"""Chaos sweeps: makespan degradation under injected failures.

Answers the robustness question the paper's static framework leaves open:
*how much does the scatter's makespan degrade when hosts die mid-run?*
For each failure rate the sweep builds a deterministic
:class:`~repro.simgrid.faults.FaultPlan` killing a nested prefix of the
workers mid-scatter (same seed ⇒ same victims and crash times across
rates, so higher rates strictly add failures), executes a scatter →
compute → report-back round with :func:`~repro.mpi.ft_scatterv`, and
compares the resulting makespan against the no-failure optimum.

Nested kill sets plus deterministic simulation make the degradation curve
reproducible and (empirically) monotone in the failure rate, the property
``tests/analysis/test_chaos.py`` asserts.  The repository benchmark's
``sim-chaos`` workload times this sweep on the Table 1 grid.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import List, Optional, Sequence, Tuple

from ..core.incremental import IncrementalPlanner
from ..core.solver import plan_scatter
from ..mpi.collectives import ScatterOutcome, ft_scatterv
from ..mpi.communicator import RecvTimeout
from ..mpi.runtime import MpiRun, run_spmd
from ..simgrid.faults import FaultPlan
from ..simgrid.noise import seeded_unit
from ..simgrid.platform import Platform

__all__ = ["ChaosPoint", "ChaosSweep", "chaos_program", "chaos_plan", "chaos_sweep"]

_RESULT_TAG = 99


@dataclass(frozen=True)
class ChaosPoint:
    """One point of the degradation curve."""

    rate: float
    killed: Tuple[str, ...]
    makespan: float
    degradation: float  # makespan / no-failure makespan
    survivors: int
    dead: int
    retries: int
    replans: int
    lost_items: int
    redistributed_items: int
    computed_items: int  # items whose compute results reached the root


@dataclass(frozen=True)
class ChaosSweep:
    """A full sweep: the no-failure baseline plus one point per rate."""

    baseline_makespan: float
    n: int
    seed: int
    points: Tuple[ChaosPoint, ...]

    def to_dict(self) -> dict:
        return {
            "baseline_makespan": self.baseline_makespan,
            "n": self.n,
            "seed": self.seed,
            "points": [asdict(p) for p in self.points],
        }


def chaos_program(ctx, data, counts, root, timeout, retries, backoff, planner=None):
    """Scatter → compute → report-back under faults (an SPMD generator).

    Every rank receives its (possibly re-planned) share through
    :func:`~repro.mpi.ft_scatterv`, computes it, and reports the item
    count back to the root.  The root collects reports from the survivors
    with a receive timeout, so a worker dying *after* the scatter degrades
    the result instead of hanging the run.  Returns ``(outcome,
    computed)`` on the root and ``(outcome, None)`` on workers.

    ``planner`` is handed through to :func:`~repro.mpi.ft_scatterv`; a
    long-lived :class:`~repro.core.incremental.IncrementalPlanner` lets
    every re-plan warm-start from the previous survivor solve.
    """
    outcome: ScatterOutcome = yield from ft_scatterv(
        ctx, data, counts, root, timeout=timeout, retries=retries,
        backoff=backoff, planner=planner,
    )
    yield from ctx.compute(len(outcome.chunk))
    if ctx.rank != root:
        yield from ctx.send(root, len(outcome.chunk), items=0, tag=_RESULT_TAG)
        return outcome, None
    computed = {root: len(outcome.chunk)}
    # A survivor's re-planned share (and hence compute time) can exceed the
    # baseline-derived per-exchange timeout; stretch by the communicator
    # size, mirroring ft_scatterv's receive-side patience.
    patience = None if timeout is None else timeout * ctx.size
    for r in outcome.survivors:
        if r == root:
            continue
        try:
            computed[r] = yield from ctx.recv(r, tag=_RESULT_TAG, timeout=patience)
        except RecvTimeout:
            computed[r] = None  # died (or wedged) after the scatter
    return outcome, computed


def chaos_plan(
    rank_hosts: Sequence[str],
    rate: float,
    *,
    seed: int = 0,
    horizon: float,
) -> FaultPlan:
    """Deterministic crash plan killing ``round(rate * workers)`` hosts.

    Victims are a prefix of the worker hosts in seeded-hash order and each
    victim's crash time depends only on its prefix position — so plans for
    increasing rates are *nested* (every failure at rate r also occurs at
    rate r' > r), which keeps the degradation curve monotone.  Crashes are
    staggered across the first half of ``horizon`` (pass an estimate of
    the scatter duration to land them mid-scatter).
    """
    if not (0.0 <= rate <= 1.0):
        raise ValueError(f"failure rate must be in [0, 1], got {rate}")
    if horizon <= 0:
        raise ValueError(f"horizon must be > 0, got {horizon}")
    workers = list(dict.fromkeys(rank_hosts[:-1]))  # unique, order-stable
    order = sorted(workers, key=lambda h: seeded_unit(seed, "kill-order", h))
    k = int(round(rate * len(workers)))
    plan = FaultPlan(seed=seed)
    for j, host in enumerate(order[:k]):
        # Position-dependent, rate-independent times in (0, horizon/2].
        at = horizon * 0.5 * (j + 1) / (len(workers) + 1)
        plan.crash(host, at=at)
    return plan


def chaos_sweep(
    platform: Platform,
    rank_hosts: Sequence[str],
    n: int,
    rates: Sequence[float],
    *,
    seed: int = 0,
    timeout: Optional[float] = None,
    retries: int = 2,
    backoff: float = 0.05,
    algorithm: str = "auto",
    planner: Optional[IncrementalPlanner] = None,
) -> ChaosSweep:
    """Makespan vs. injected failure rate, against the no-failure optimum.

    Plans the optimal distribution once (``plan_scatter`` on the healthy
    platform), runs the no-failure baseline, then re-executes the same
    program under :func:`chaos_plan` fault plans of increasing rate.
    ``timeout`` defaults to the baseline makespan — long enough that no
    healthy exchange can time out, short enough to bound the degradation.

    One :class:`~repro.core.incremental.IncrementalPlanner` (``planner``,
    created here by default) is shared across every rate: kill sets are
    nested, so each rate's survivor problems warm-start from the rows its
    parent kill set already computed.  Incremental plans are byte-identical
    to cold solves, so the sweep's curve is unchanged — only faster.
    """
    root = rank_hosts[-1]
    problem = platform.to_problem(n, root, order=list(rank_hosts[:-1]))
    counts = list(
        plan_scatter(problem, algorithm=algorithm, order_policy=None).counts
    )
    data = range(n)
    if planner is None:
        planner = IncrementalPlanner(algorithm=algorithm)

    def execute(plan: Optional[FaultPlan], wait: Optional[float]) -> MpiRun:
        return run_spmd(
            platform,
            rank_hosts,
            chaos_program,
            data,
            counts,
            len(rank_hosts) - 1,
            wait,
            retries,
            backoff,
            planner,
            faults=plan,
        )

    baseline = execute(None, timeout)
    base_makespan = baseline.duration
    if timeout is None:
        timeout = base_makespan
    # Stagger crashes across the serialized send phase of the scatter.
    root_rank = len(rank_hosts) - 1
    scatter_estimate = float(
        sum(
            platform.link_cost(root, h)(counts[r])
            for r, h in enumerate(rank_hosts)
            if r != root_rank
        )
    )
    horizon = scatter_estimate if scatter_estimate > 0 else base_makespan

    points: List[ChaosPoint] = []
    for rate in rates:
        plan = chaos_plan(rank_hosts, rate, seed=seed, horizon=horizon)
        run = execute(plan, timeout)
        outcome, computed = run.results[root_rank]
        points.append(
            ChaosPoint(
                rate=float(rate),
                killed=tuple(c.host for c in plan.crashes),
                makespan=run.duration,
                degradation=(
                    run.duration / base_makespan if base_makespan > 0 else 1.0
                ),
                survivors=len(outcome.survivors),
                dead=len(outcome.dead),
                retries=outcome.retries,
                replans=outcome.replans,
                lost_items=outcome.lost_items,
                redistributed_items=outcome.redistributed_items,
                computed_items=sum(v for v in computed.values() if v),
            )
        )
    return ChaosSweep(
        baseline_makespan=base_makespan, n=n, seed=seed, points=tuple(points)
    )

"""Parameter sweeps: where does load-balancing pay, and how much?

The paper evaluates one platform and one n.  These helpers generate the
surrounding *sensitivity series* — balancing gain as a function of
processor heterogeneity, of the communication/computation ratio, and of
problem size — so a user can judge whether their own grid is in the
regime where the transformation matters.

Each sweep returns a list of :class:`SweepPoint` (x, uniform makespan,
balanced makespan, gain); rendering is left to
:func:`repro.analysis.report.render_table`.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from typing import Any, Callable, Iterable, List, Optional, Sequence, TypeVar

from ..core.distribution import Processor, ScatterProblem, uniform_counts
from ..core.heuristic import solve_heuristic
from ..core.ordering import order_descending_bandwidth
from ..obs.metrics import METRICS, MetricsRegistry

__all__ = [
    "SweepPoint",
    "SweepEvaluator",
    "SequentialSweepEvaluator",
    "ParallelSweepEvaluator",
    "BACKENDS",
    "make_evaluator",
    "gain_for_problem",
    "heterogeneity_sweep",
    "comm_ratio_sweep",
    "problem_size_sweep",
]

T = TypeVar("T")
R = TypeVar("R")


class SweepEvaluator:
    """Strategy for evaluating a batch of independent sweep instances.

    Each sweep builds its list of :class:`ScatterProblem` instances up
    front and hands the per-instance evaluation to an evaluator, so the
    same sweep can run serially (the default, and the reference for
    determinism checks) or fan out over a pool.  Evaluation order never
    affects values: results are returned in input order and every instance
    is solved independently.
    """

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        raise NotImplementedError

    def submit(
        self,
        fn: Callable[[T], R],
        item: T,
        callback: Optional[Callable[[R], None]] = None,
        error_callback: Optional[Callable[[BaseException], None]] = None,
    ) -> None:
        """Evaluate one item asynchronously, delivering via callback.

        The base implementation runs inline (synchronously) — the serve
        layer's sequential backend and tests rely on that determinism.
        Pool-backed evaluators override this with a real ``apply_async``.
        Exactly one of the callbacks fires, never both; an exception with
        no ``error_callback`` propagates to the caller (inline) or is
        swallowed by the pool machinery (async), matching
        ``multiprocessing.pool`` semantics.
        """
        try:
            result = fn(item)
        except Exception as exc:
            if error_callback is None:
                raise
            error_callback(exc)
            return
        if callback is not None:
            callback(result)

    def close(self) -> None:  # pragma: no cover - trivial
        pass

    def __enter__(self) -> "SweepEvaluator":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class SequentialSweepEvaluator(SweepEvaluator):
    """In-process, in-order evaluation — the fallback and the reference."""

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        return [fn(item) for item in items]


def _eval_with_metrics(payload: tuple) -> tuple:
    """Run one item in a pool worker, capturing the metrics it accrues.

    Counters bumped inside a worker process die with the worker; shipping
    the per-item delta back with the result lets the parent merge it into
    its own :data:`METRICS`, so counters and BENCH deltas stay truthful
    under ``backend="process"``.
    """
    fn, item = payload
    before = METRICS.kinded_snapshot()
    result = fn(item)
    delta = MetricsRegistry.state_delta(before, METRICS.kinded_snapshot())
    return result, delta


class ParallelSweepEvaluator(SweepEvaluator):
    """Pool-backed batch evaluation with a sequential fallback.

    Parameters
    ----------
    workers:
        Pool size (default: ``os.cpu_count()``).  ``workers <= 1`` runs
        sequentially without creating a pool.
    backend:
        ``"thread"`` (default) uses a thread pool — always safe, and the
        solver hot paths release time in NumPy kernels; ``"process"`` uses
        a process pool, which requires picklable problems and evaluation
        functions (module-level functions over analytic cost models are;
        closures and ``CallableCost`` are not).

    Results are identical to :class:`SequentialSweepEvaluator` — only
    wall-clock changes.  With ``backend="process"``, metrics accrued in
    workers are merged back into the parent's :data:`METRICS` after each
    batch.  Use as a context manager (or call :meth:`close`) to release
    the pool.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        backend: str = "thread",
    ):
        if backend not in ("thread", "process"):
            raise ValueError(f"unknown backend {backend!r}; know 'thread', 'process'")
        self.workers = int(workers) if workers is not None else (os.cpu_count() or 1)
        self.backend = backend
        self._pool: Optional[Any] = None
        if self.workers > 1:
            # Imported here: multiprocessing.pool weighs ~1.4 MiB, and every
            # process that imports repro.serve would pay it otherwise.
            from multiprocessing.pool import Pool, ThreadPool

            try:
                if backend == "thread":
                    self._pool = ThreadPool(self.workers)
                else:
                    self._pool = Pool(self.workers)
            except OSError:  # pragma: no cover - resource-limited hosts
                self._pool = None

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        items = list(items)
        if self._pool is None or len(items) <= 1:
            return [fn(item) for item in items]
        if self.backend == "process":
            pairs = self._pool.map(_eval_with_metrics, [(fn, it) for it in items])
            results = []
            for result, delta in pairs:
                METRICS.merge(delta)
                results.append(result)
            return results
        return self._pool.map(fn, items)

    def submit(
        self,
        fn: Callable[[T], R],
        item: T,
        callback: Optional[Callable[[R], None]] = None,
        error_callback: Optional[Callable[[BaseException], None]] = None,
    ) -> None:
        """Asynchronous single-item evaluation (see the base class).

        With a live pool this is ``apply_async``: the callback fires on the
        pool's result-handler thread.  Under ``backend="process"`` the
        worker's metrics delta is merged before the caller's callback runs,
        so serve-layer hit rates stay truthful.  Without a pool
        (``workers <= 1`` or pool creation failed) it degrades to the
        inline base behavior.
        """
        if self._pool is None:
            super().submit(fn, item, callback, error_callback)
            return
        if self.backend == "process":
            def _deliver(pair: tuple) -> None:
                result, delta = pair
                METRICS.merge(delta)
                if callback is not None:
                    callback(result)

            self._pool.apply_async(
                _eval_with_metrics,
                ((fn, item),),
                callback=_deliver,
                error_callback=error_callback,
            )
            return
        self._pool.apply_async(
            fn, (item,), callback=callback, error_callback=error_callback
        )

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None


#: Evaluator backends by name: inline, or a thread or process pool.
BACKENDS = ("sequential", "thread", "process")


def make_evaluator(
    backend: str = "sequential", workers: Optional[int] = None
) -> SweepEvaluator:
    """The evaluator a backend name selects; ``workers`` sizes a pool.

    Raises :class:`ValueError` for an unknown backend, and for ``workers``
    without a pool backend (sequential evaluation would ignore it).
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; know {BACKENDS}")
    if backend == "sequential":
        if workers is not None:
            raise ValueError(
                "workers needs a pool backend ('thread' or 'process'), "
                "not 'sequential'"
            )
        return SequentialSweepEvaluator()
    return ParallelSweepEvaluator(workers, backend=backend)


def _evaluate_points(
    xs: Sequence[float],
    problems: Sequence[ScatterProblem],
    evaluator: Optional[SweepEvaluator],
) -> List[SweepPoint]:
    """Map :func:`gain_for_problem` over instances, tagging each x."""
    ev = evaluator if evaluator is not None else SequentialSweepEvaluator()
    points = ev.map(gain_for_problem, list(problems))
    return [
        SweepPoint(float(x), pt.uniform_makespan, pt.balanced_makespan)
        for x, pt in zip(xs, points)
    ]


@dataclass(frozen=True)
class SweepPoint:
    """One sweep sample."""

    x: float
    uniform_makespan: float
    balanced_makespan: float

    @property
    def gain(self) -> float:
        """Uniform over balanced duration (1.0 = balancing buys nothing)."""
        if self.balanced_makespan <= 0:
            return 1.0
        return self.uniform_makespan / self.balanced_makespan


def gain_for_problem(problem: ScatterProblem) -> SweepPoint:
    """Uniform vs balanced makespans for one instance (Theorem 3 order)."""
    ordered = order_descending_bandwidth(problem)
    uniform = ordered.makespan(list(uniform_counts(problem.n, problem.p)))
    balanced = solve_heuristic(ordered).makespan
    return SweepPoint(x=float("nan"), uniform_makespan=uniform,
                      balanced_makespan=balanced)


def _spread_processors(
    p: int,
    spread: float,
    *,
    alpha_mid: float = 0.01,
    beta_mid: float = 2e-5,
    beta_spread: Optional[float] = None,
    rng: Optional[random.Random] = None,
) -> List[Processor]:
    """Processors whose α spans a factor ``spread`` around the mid.

    ``beta_spread`` controls link heterogeneity independently (default:
    same as ``spread``; pass 1.0 for a homogeneous network).  Rates are
    placed log-uniformly over ``[mid/√spread, mid·√spread]`` —
    deterministically when ``rng`` is None (evenly spaced), randomly
    otherwise.  The root (last) gets the middle compute rate and a free
    link.
    """
    if spread < 1.0:
        raise ValueError("spread must be >= 1")
    b_spread = spread if beta_spread is None else beta_spread
    if b_spread < 1.0:
        raise ValueError("beta_spread must be >= 1")
    procs = []
    for i in range(p - 1):
        if rng is None:
            frac = 0.5 if p == 2 else i / (p - 2) if p > 2 else 0.5
        else:
            frac = rng.random()
        alpha = alpha_mid * spread ** (frac - 0.5)
        beta = beta_mid * b_spread ** (frac - 0.5)
        procs.append(Processor.linear(f"P{i + 1}", alpha, beta))
    procs.append(Processor.linear("root", alpha_mid, 0.0))
    return procs


def heterogeneity_sweep(
    spreads: Sequence[float],
    *,
    p: int = 16,
    n: int = 100_000,
    evaluator: Optional[SweepEvaluator] = None,
) -> List[SweepPoint]:
    """Gain vs processor-speed spread (max α / min α).

    ``spread = 1`` is a homogeneous cluster (gain ≈ 1 — the transformation
    is free but useless); the paper's Table 1 spans ≈ 4×.  Pass a
    :class:`ParallelSweepEvaluator` to evaluate the points concurrently
    (values are identical to the sequential default).
    """
    problems = [ScatterProblem(_spread_processors(p, s), n) for s in spreads]
    return _evaluate_points(spreads, problems, evaluator)


def comm_ratio_sweep(
    ratios: Sequence[float],
    *,
    p: int = 16,
    n: int = 100_000,
    spread: float = 4.0,
    evaluator: Optional[SweepEvaluator] = None,
) -> List[SweepPoint]:
    """Gain vs communication/computation cost ratio (homogeneous network).

    ``ratio`` sets every (identical) β so that the *total* communication
    time of a uniform run is roughly ``ratio`` times its average compute
    time.  With heterogeneous CPUs but a homogeneous network, balancing
    fixes compute imbalance only; once the root's serial port dominates
    (``ratio >> 1``), every distribution spends the same ``β·n`` on the
    wire and the gain collapses toward 1.
    """
    # Uniform shares are n/p, so total comm ≈ (p-1)·β·n/p and average
    # compute ≈ α·n/p; their ratio is r when β = r·α/(p-1).
    alpha_mid = 0.01
    problems = [
        ScatterProblem(
            _spread_processors(p, spread, alpha_mid=alpha_mid,
                               beta_mid=ratio * alpha_mid / (p - 1),
                               beta_spread=1.0),
            n,
        )
        for ratio in ratios
    ]
    return _evaluate_points(ratios, problems, evaluator)


def problem_size_sweep(
    sizes: Sequence[int],
    *,
    problem_factory: Optional[Callable[[int], ScatterProblem]] = None,
    evaluator: Optional[SweepEvaluator] = None,
) -> List[SweepPoint]:
    """Gain vs n (defaults to the Table 1 platform).

    For linear costs the gain is n-independent in the rational limit;
    integer effects make tiny n noisier — this sweep shows how fast the
    asymptote is reached.
    """
    if problem_factory is None:
        from ..workloads.table1 import table1_problem

        problem_factory = table1_problem
    problems = [problem_factory(n) for n in sizes]
    return _evaluate_points([float(n) for n in sizes], problems, evaluator)

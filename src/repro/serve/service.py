"""The async front door: :class:`PlanService` and :class:`PlanTicket`.

Request lifecycle
-----------------
``submit(problem)`` validates, applies the service's ordering policy,
fingerprints the *normalized* problem and then takes the first branch
that applies:

1. **cache hit** — the ticket resolves immediately from the stored plan;
2. **coalesce** — an identical fingerprint is already solving: the
   ticket joins that flight (single-flight — K concurrent identical
   requests cost exactly one solve);
3. **dispatch** — the solve is handed to the executor
   (:class:`~repro.analysis.sweep.SweepEvaluator`); distinct
   fingerprints fan out concurrently on pool-backed executors.
4. **uncacheable** — costs without a value identity
   (:class:`~repro.core.costs.CallableCost`) skip the cache *and*
   coalescing and solve per-request.

Misses solve through an :class:`~repro.core.incremental.IncrementalPlanner`
(``order_policy=None`` — the service already normalized), so a TTL expiry
or an explicit :meth:`PlanService.invalidate_cost` re-plans *warm*: the
planner reuses the retained DP rows behind the changed processor and
recomputes only the prefix in front of it, instead of the cache eviction
forcing a full cold solve.  Every returned plan is therefore
byte-identical to a cold :func:`~repro.core.solver.plan_scatter` of the
same normalized problem.

Executor matrix (see ``docs/api.md``)::

    backend="sequential"  inline, deterministic        (default)
    backend="thread"      ParallelSweepEvaluator thread pool
    backend="process"     ParallelSweepEvaluator process pool
                          (analytic costs only — requests must pickle;
                          solves are cold plan_scatter in the workers)
    executor=...          any caller-owned SweepEvaluator

Metrics (``repro.obs.metrics.METRICS``, process-wide — every service in
the process feeds them; :meth:`PlanService.stats` reports this service's
own traffic only):

* ``serve.requests`` / ``serve.errors`` — submissions and failed solves;
* ``serve.coalesced`` — requests that joined an in-flight solve;
* ``serve.uncacheable`` — requests with no fingerprint;
* ``serve.queue_depth`` — solves dispatched but not yet completed;
* ``serve.latency_s`` — submit→resolve latency histogram (p50/p99 via
  :func:`histogram_quantile`);
* plus the ``serve.cache.*`` family from :mod:`repro.serve.cache`.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional

from ..analysis.sweep import SweepEvaluator, make_evaluator
from ..core.distribution import DistributionResult, ScatterProblem
from ..core.incremental import IncrementalPlanner
from ..core.ordering import apply_policy
from ..core.solver import ALGORITHMS, TOPOLOGIES, plan_scatter
from ..lint.runtime import make_lock, note_blocking
from ..obs.metrics import METRICS, Histogram
from .cache import CachedPlan, PlanCache
from .fingerprint import Fingerprint, cost_fingerprint, problem_fingerprint

__all__ = ["PlanService", "PlanTicket", "histogram_quantile"]

#: Latency histogram bucket bounds (seconds).
LATENCY_BUCKETS = (1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0)


def histogram_quantile(hist: Histogram, q: float) -> Optional[float]:
    """Approximate ``q``-quantile from a bucketed histogram.

    Returns the upper bound of the bucket containing the quantile rank
    (Prometheus convention); the observed max for the +Inf bucket; None
    for an empty histogram.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    total = hist.count
    if total == 0:
        return None
    counts = hist.bucket_counts()
    rank = q * total
    cum = 0
    for bound in hist.buckets:
        cum += counts[f"le={bound:g}"]
        if cum >= rank:
            return bound
    return hist.max


class PlanTicket:
    """A pending (or resolved) plan request.

    ``result()`` blocks until the solve lands and returns a
    :class:`DistributionResult` bound to *this request's* normalized
    problem — coalesced and cached requests share the underlying plan
    values but each get a result carrying their own processor names.
    ``info["serve"]`` records how the request was served.
    """

    __slots__ = (
        "_event", "_problem", "_plan", "_error",
        "cached", "coalesced", "fingerprint", "_t0",
    )

    def __init__(self, problem: ScatterProblem,
                 fingerprint: Optional[Fingerprint], t0: float) -> None:
        self._event = threading.Event()
        self._problem = problem
        self._plan: Optional[CachedPlan] = None
        self._error: Optional[BaseException] = None
        self.cached = False
        self.coalesced = False
        self.fingerprint = fingerprint
        self._t0 = t0

    def done(self) -> bool:
        return self._event.is_set()

    def _resolve(self, plan: Optional[CachedPlan],
                 error: Optional[BaseException] = None) -> None:
        self._plan = plan
        self._error = error
        self._event.set()

    def result(self, timeout: Optional[float] = None) -> DistributionResult:
        """The solved plan (blocking); re-raises a failed solve's error."""
        note_blocking("PlanTicket.result")
        if not self._event.wait(timeout):
            raise TimeoutError("plan request still in flight")
        if self._error is not None:
            raise self._error
        plan = self._plan
        assert plan is not None
        info: Dict[str, Any] = (
            dict(plan.tree_info) if plan.tree_info is not None else {}
        )
        info["serve"] = {
            "cached": self.cached,
            "coalesced": self.coalesced,
            "fingerprint": (
                self.fingerprint.key if self.fingerprint else None
            ),
        }
        return DistributionResult(
            problem=self._problem,
            counts=plan.counts,
            makespan=plan.makespan,
            algorithm=plan.algorithm,
            makespan_exact=plan.makespan_exact,
            info=info,
        )


class _Flight:
    """One in-flight solve and the tickets awaiting it."""

    __slots__ = ("tickets",)

    def __init__(self, first: PlanTicket) -> None:
        self.tickets: List[PlanTicket] = [first]


def _solve_request(payload: tuple) -> DistributionResult:
    """Module-level solve for process-pool dispatch (must pickle)."""
    problem, algorithm, topology = payload
    return plan_scatter(
        problem, algorithm=algorithm, order_policy=None, topology=topology,
    )


class PlanService:
    """Fingerprint-cached, coalescing planning service.

    Parameters
    ----------
    algorithm / topology:
        Passed through to the solver routing (see
        :func:`~repro.core.solver.plan_scatter`).  With
        ``topology="tree"`` every plan is solved by the tree-aware
        planner; tree requests fingerprint with a ``;topo=tree`` suffix,
        so a tree service and a flat service can never serve each
        other's cached plans even if they share a metrics registry.
    order_policy:
        Applied to every request before fingerprinting/solving (default:
        Theorem 3's ``"bandwidth-desc"``; ``None`` keeps request order).
        ``"random"`` is rejected — a nondeterministic normalization would
        make equal requests produce different plans.
    cache_size / ttl:
        Plan-cache LRU bound and optional expiry in seconds (on the
        service's clock).  ``cache_size=0`` disables caching (requests
        still coalesce).
    executor:
        A caller-owned :class:`~repro.analysis.sweep.SweepEvaluator`
        (not closed by the service).  Mutually exclusive with
        ``backend``/``workers``, which build a service-owned evaluator
        instead.
    backend:
        ``"sequential"`` (default), ``"thread"``, or ``"process"``.
    workers:
        Pool size for a ``"thread"`` or ``"process"`` backend (default:
        the CPU count); rejected with the sequential backend.
    planner:
        Solve engine — any object with
        ``plan(problem) -> DistributionResult`` that is byte-identical
        to cold ``plan_scatter``; defaults to an
        :class:`~repro.core.incremental.IncrementalPlanner` so expiry
        and invalidation re-plans warm-start.  Ignored for solves
        dispatched to a process backend (workers solve cold).
    time_fn:
        Clock used for TTLs and latency metrics; defaults to the
        monotonic clock.  Tests inject a fake to step time manually.
    """

    def __init__(
        self,
        *,
        algorithm: str = "auto",
        order_policy: Optional[str] = "bandwidth-desc",
        topology: str = "flat",
        cache_size: int = 1024,
        ttl: Optional[float] = None,
        executor: Optional[SweepEvaluator] = None,
        backend: str = "sequential",
        workers: Optional[int] = None,
        planner: Optional[Any] = None,
        time_fn: Optional[Callable[[], float]] = None,
    ) -> None:
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algorithm!r}; know {ALGORITHMS}")
        if topology not in TOPOLOGIES:
            raise ValueError(f"unknown topology {topology!r}; know {TOPOLOGIES}")
        if order_policy == "random":
            raise ValueError(
                "order_policy='random' would fingerprint equal requests "
                "differently; use a deterministic policy or None"
            )
        self.algorithm = algorithm
        self.order_policy = order_policy
        self.topology = topology
        self.cache = PlanCache(cache_size, ttl=ttl)
        self.planner = planner if planner is not None else IncrementalPlanner(
            algorithm=algorithm, order_policy=None, topology=topology,
        )
        self._time = time_fn if time_fn is not None else time.monotonic
        if executor is not None:
            if backend != "sequential" or workers is not None:
                raise ValueError("pass either executor= or backend=/workers=")
            self._executor = executor
            self._owns_executor = False
        else:
            self._executor = make_evaluator(backend, workers)
            self._owns_executor = True
        self._lock = make_lock("PlanService._lock")
        self._inflight: Dict[str, _Flight] = {}
        self._closed = False
        # Per-service counters behind stats(), guarded by ``_lock``; the
        # process-wide METRICS instruments are fed alongside.
        self._latency = Histogram("serve.latency_s", LATENCY_BUCKETS)
        self._all_latency = METRICS.histogram("serve.latency_s", LATENCY_BUCKETS)
        self._coalesced = 0
        self._queue_depth = 0

    # -- submission ------------------------------------------------------
    def submit(self, problem: ScatterProblem) -> PlanTicket:
        """Enqueue one request; returns immediately with a ticket."""
        if self._closed:
            raise RuntimeError("PlanService is closed")
        METRICS.counter("serve.requests").inc()
        problem.check_valid()
        ordered = problem
        if self.order_policy is not None:
            ordered = apply_policy(problem, self.order_policy)
        fp = problem_fingerprint(
            ordered, algorithm=self.algorithm, topology=self.topology,
        )
        t0 = self._time()
        ticket = PlanTicket(ordered, fp, t0)

        if fp is None:
            METRICS.counter("serve.uncacheable").inc()
            self._dispatch(ordered, None, _Flight(ticket))
            return ticket

        with self._lock:
            plan = self.cache.get(fp.key, t0)
            if plan is not None:
                ticket.cached = True
                self._finish(ticket, plan)
                return ticket
            flight = self._inflight.get(fp.key)
            if flight is not None:
                ticket.coalesced = True
                self._coalesced += 1
                METRICS.counter("serve.coalesced").inc()
                flight.tickets.append(ticket)
                return ticket
            flight = _Flight(ticket)
            self._inflight[fp.key] = flight
        self._dispatch(ordered, fp, flight)
        return ticket

    def plan(self, problem: ScatterProblem,
             timeout: Optional[float] = None) -> DistributionResult:
        """Synchronous facade: ``submit(problem).result(timeout)``."""
        return self.submit(problem).result(timeout)

    # -- solving ---------------------------------------------------------
    def _dispatch(self, ordered: ScatterProblem,
                  fp: Optional[Fingerprint], flight: _Flight) -> None:
        with self._lock:
            self._queue_depth += 1
        METRICS.gauge("serve.queue_depth").inc()

        def on_done(result: DistributionResult) -> None:
            self._complete(fp, flight, result, None)

        def on_error(exc: BaseException) -> None:
            self._complete(fp, flight, None, exc)

        if getattr(self._executor, "backend", None) == "process":
            # The service (planner, locks) cannot cross a process
            # boundary: workers run a cold module-level solve instead.
            self._executor.submit(
                _solve_request,
                (ordered, self.algorithm, self.topology),
                callback=on_done,
                error_callback=on_error,
            )
        else:
            self._executor.submit(
                self.planner.plan, ordered,
                callback=on_done, error_callback=on_error,
            )

    def _complete(self, fp: Optional[Fingerprint], flight: _Flight,
                  result: Optional[DistributionResult],
                  error: Optional[BaseException]) -> None:
        METRICS.gauge("serve.queue_depth").dec()
        plan: Optional[CachedPlan] = None
        if result is not None:
            tree_info = None
            if "tree" in result.info:
                # Everything a tree plan's info carries is immutable and
                # problem-independent except the wall-clock profile.
                tree_info = tuple(
                    (k, v) for k, v in result.info.items() if k != "profile"
                )
            plan = CachedPlan(
                counts=tuple(result.counts),
                makespan=result.makespan,
                algorithm=result.algorithm,
                makespan_exact=result.makespan_exact,
                cost_keys=fp.cost_keys if fp is not None else (),
                tree_info=tree_info,
            )
        if error is not None:
            METRICS.counter("serve.errors").inc()
        with self._lock:
            self._queue_depth -= 1
            if fp is not None:
                if plan is not None:
                    # Store before un-registering the flight so a request
                    # arriving in between hits the cache instead of
                    # starting a fresh flight for a solved instance.
                    self.cache.put(fp.key, plan, self._time())
                if self._inflight.get(fp.key) is flight:
                    del self._inflight[fp.key]
            for ticket in flight.tickets:
                if error is not None:
                    ticket._resolve(None, error)
                else:
                    self._finish(ticket, plan)

    def _finish(self, ticket: PlanTicket, plan: Optional[CachedPlan]) -> None:
        """Resolve ``ticket`` and record its latency (holds ``_lock``)."""
        ticket._resolve(plan)
        latency = max(self._time() - ticket._t0, 0.0)
        self._latency.observe(latency)
        self._all_latency.observe(latency)

    # -- invalidation ----------------------------------------------------
    def invalidate(self, problem: ScatterProblem) -> bool:
        """Drop the cache entry for ``problem``'s fingerprint, if any."""
        ordered = problem
        if self.order_policy is not None:
            ordered = apply_policy(problem, self.order_policy)
        fp = problem_fingerprint(
            ordered, algorithm=self.algorithm, topology=self.topology,
        )
        return fp is not None and self.cache.invalidate(fp.key)

    def invalidate_cost(self, fn: Any) -> int:
        """A cost function's coefficients changed: evict dependent plans.

        Evicts every cached plan whose instance used ``fn`` (by value);
        returns how many.  The next request for an affected platform
        re-solves through the incremental planner, which warm-starts from
        the DP rows behind the changed processor — invalidation costs
        O(change), not a cold solve.  The planner needs no hook: it
        matches its retained rows by cost, so a changed cost never
        matches them.
        """
        return self.cache.invalidate_cost(cost_fingerprint(fn))

    # -- introspection / lifecycle ---------------------------------------
    def stats(self) -> Dict[str, Any]:
        """This service's counters: cache, coalescing, queue depth, latency."""
        cache = self.cache.stats()
        lookups = cache["hits"] + cache["misses"]
        with self._lock:
            return {
                "cache": cache,
                "hit_rate": (cache["hits"] / lookups) if lookups else 0.0,
                "inflight": len(self._inflight),
                "queue_depth": self._queue_depth,
                "coalesced": self._coalesced,
                "latency_p50_s": histogram_quantile(self._latency, 0.50),
                "latency_p99_s": histogram_quantile(self._latency, 0.99),
                "latency_count": self._latency.count,
            }

    def close(self) -> None:
        """Stop accepting requests; close a service-owned executor."""
        self._closed = True
        if self._owns_executor:
            self._executor.close()

    def __enter__(self) -> "PlanService":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

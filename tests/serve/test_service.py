"""PlanService concurrency suite: stampede, coalescing, oracles, warm re-plans."""

import gc
import os
import random
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction

import pytest

from repro.core import (
    IncrementalPlanner,
    PiecewiseLinearCost,
    Processor,
    ScatterProblem,
    ZeroCost,
    plan_scatter,
)
from repro.core.costs import CallableCost, LinearCost, scale_cost
from repro.analysis.sweep import ParallelSweepEvaluator, SequentialSweepEvaluator
from repro.obs.metrics import METRICS
from repro.serve import PlanService, problem_fingerprint
from repro.verify.oracles import run_oracles
from repro.workloads import random_affine_problem


def _linear_problem(p=4, n=1_000, seed=3):
    rng = random.Random(seed)
    procs = [
        Processor.linear(f"P{i + 1}", rng.uniform(0.005, 0.02),
                         rng.uniform(1e-5, 5e-5))
        for i in range(p - 1)
    ]
    procs.append(Processor.linear("root", 0.01, 0.0))
    return ScatterProblem(procs, n)


def _knee_problem(p=4, n=2_000, seed=5):
    rng = random.Random(seed)

    def knee():
        x1 = rng.randint(1, max(1, n // 3))
        r1 = rng.uniform(1e-6, 5e-5)
        r2 = rng.uniform(1e-6, 5e-5)
        return PiecewiseLinearCost(
            [(0, 0), (x1, r1 * x1), (n, r1 * x1 + r2 * (n - x1))]
        )

    procs = [Processor(f"P{i + 1}", knee(), knee()) for i in range(p - 1)]
    procs.append(Processor(f"P{p}", ZeroCost(), knee()))
    return ScatterProblem(procs, n)


class GatedPlanner:
    """An IncrementalPlanner wrapper that counts and can stall solves."""

    def __init__(self, gate=None):
        self.inner = IncrementalPlanner(order_policy=None)
        self.gate = gate
        self.calls = 0
        self.started = threading.Event()
        self._lock = threading.Lock()

    def plan(self, problem):
        with self._lock:
            self.calls += 1
        self.started.set()
        if self.gate is not None:
            assert self.gate.wait(timeout=30)
        return self.inner.plan(problem)

    def stats(self):
        return self.inner.stats()


def _assert_matches_cold(result, cold):
    assert result.counts == cold.counts
    assert result.makespan == cold.makespan
    assert result.makespan_exact == cold.makespan_exact
    assert result.algorithm == cold.algorithm


class TestStampede:
    def test_k16_one_fingerprint_exactly_one_solve(self):
        problem = _linear_problem()
        cold = plan_scatter(problem)
        gate = threading.Event()
        planner = GatedPlanner(gate)
        with PlanService(planner=planner) as svc:
            barrier = threading.Barrier(16)
            tickets = [None] * 16

            def worker(i):
                barrier.wait(timeout=30)
                tickets[i] = svc.submit(problem)

            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(16)
            ]
            for t in threads:
                t.start()
            assert planner.started.wait(timeout=30)
            gate.set()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)

            assert planner.calls == 1, "stampede was not single-flighted"
            results = [t.result(timeout=30) for t in tickets]
            for r in results:
                _assert_matches_cold(r, cold)
            # One request solved; the other 15 either joined its flight
            # or (having submitted after the commit) hit the cache.
            coalesced = sum(t.coalesced for t in tickets)
            cached = sum(t.cached for t in tickets)
            assert coalesced + cached == 15
            assert coalesced >= 1


class TestCoalescingPerBackend:
    def _run_gated(self, svc, planner, gate, problem, extra=7):
        cold = plan_scatter(problem)
        first = svc.submit(problem)
        assert planner.started.wait(timeout=30)
        others = [svc.submit(problem) for _ in range(extra)]
        assert all(t.coalesced for t in others)
        gate.set()
        _assert_matches_cold(first.result(timeout=60), cold)
        for t in others:
            _assert_matches_cold(t.result(timeout=60), cold)
        assert planner.calls == 1

    def test_thread_backend(self):
        gate = threading.Event()
        planner = GatedPlanner(gate)
        with PlanService(planner=planner, backend="thread", workers=2) as svc:
            self._run_gated(svc, planner, gate, _linear_problem())

    def test_caller_owned_executor(self):
        gate = threading.Event()
        planner = GatedPlanner(gate)
        with ParallelSweepEvaluator(2, backend="thread") as ev:
            with PlanService(planner=planner, executor=ev) as svc:
                self._run_gated(svc, planner, gate, _knee_problem())
            assert ev._pool is not None  # the service never closes it

    def test_sequential_backend_coalesces_across_threads(self):
        # Inline solving still single-flights: submitters racing the
        # solver thread join its flight.
        gate = threading.Event()
        planner = GatedPlanner(gate)
        problem = _linear_problem()
        cold = plan_scatter(problem)
        with PlanService(planner=planner) as svc:
            t1 = threading.Thread(target=lambda: svc.plan(problem))
            t1.start()
            assert planner.started.wait(timeout=30)
            second = svc.submit(problem)
            assert second.coalesced
            gate.set()
            t1.join(timeout=60)
            _assert_matches_cold(second.result(timeout=60), cold)
        assert planner.calls == 1

    def test_process_backend(self):
        problem = _knee_problem(n=20_000)
        with PlanService(backend="process", workers=2) as svc:
            first = svc.submit(problem)
            others = [svc.submit(problem) for _ in range(5)]
            # The solve crosses a process boundary (milliseconds at
            # best); these submits land well inside its flight window.
            assert all(t.coalesced for t in others)
            cold = plan_scatter(problem)
            _assert_matches_cold(first.result(timeout=120), cold)
            for t in others:
                _assert_matches_cold(t.result(timeout=120), cold)

    def test_coalescing_with_cache_disabled(self):
        gate = threading.Event()
        planner = GatedPlanner(gate)
        with PlanService(planner=planner, cache_size=0,
                         backend="thread", workers=2) as svc:
            self._run_gated(svc, planner, gate, _linear_problem(), extra=3)
            # Cache off: an identical request *after* the flight lands
            # solves again instead of hitting.
            gate2 = threading.Event()
            planner.gate = gate2
            planner.started.clear()
            later = svc.submit(_linear_problem())
            gate2.set()
            later.result(timeout=60)
            assert not later.cached
            assert planner.calls == 2


class TestServedPlansPassOracles:
    @pytest.mark.parametrize("problem_factory", [
        _linear_problem,
        _knee_problem,
        lambda: ScatterProblem(
            [Processor.affine("P1", 0.01, 2e-5, 0.5, 0.1),
             Processor.affine("P2", 0.02, 1e-5, 0.2, 0.3),
             Processor.affine("root", 0.01, 0.0)], 500),
    ])
    def test_eq1_and_dist_valid(self, problem_factory):
        problem = problem_factory()
        with PlanService() as svc:
            for _ in range(2):  # solved, then served from cache
                result = svc.plan(problem)
                reports = run_oracles(
                    result.problem, {"serve": result},
                    only=["eq1-recompute", "dist-valid"],
                )
                assert all(r.ok for r in reports), [
                    (r.oracle_id, r.violations) for r in reports
                ]


class TestRepeatPerturbStream:
    @pytest.mark.parametrize("repeat", [0.0, 0.5, 0.95])
    def test_every_response_matches_cold(self, repeat):
        """Each request repeats the current knee platform (a hit) or scales
        its front compute cost (a miss that re-plans warm)."""
        rng = random.Random(7)
        current = _knee_problem(p=8, n=4_000, seed=7)
        with PlanService(order_policy=None) as svc:
            for step in range(24):
                if step and rng.random() >= repeat:
                    front = current.processors[0]
                    scaled = scale_cost(front.comp, Fraction(1001 + step % 37, 1000))
                    current = ScatterProblem(
                        [Processor(front.name, front.comm, scaled),
                         *current.processors[1:]],
                        current.n,
                    )
                _assert_matches_cold(
                    svc.plan(current), plan_scatter(current, order_policy=None)
                )


class TestCacheAndInvalidation:
    def test_second_request_hits(self):
        problem = _linear_problem()
        with PlanService() as svc:
            a = svc.submit(problem)
            b = svc.submit(problem)
            assert not a.cached and b.cached
            _assert_matches_cold(b.result(), plan_scatter(problem))
            assert svc.stats()["hit_rate"] == 0.5

    def test_ttl_expiry_resolves_warm(self):
        clock = [0.0]
        planner = IncrementalPlanner(order_policy=None)
        problem = _knee_problem()
        with PlanService(planner=planner, ttl=10.0,
                         time_fn=lambda: clock[0]) as svc:
            first = svc.plan(problem)
            clock[0] = 5.0
            assert svc.submit(problem).cached  # still fresh
            clock[0] = 11.0
            again = svc.plan(problem)  # expired: re-solve, warm-started
            _assert_matches_cold(again, first)
        stats = planner.stats()
        assert stats["plans"] == 2
        assert stats["warm_plans"] >= 1
        assert svc.cache.stats()["expired"] == 1

    def test_invalidate_cost_evicts_and_replans(self):
        problem = _knee_problem()
        planner = IncrementalPlanner(order_policy=None)
        with PlanService(planner=planner) as svc:
            first = svc.plan(problem)
            changed = problem.processors[0].comp
            assert svc.invalidate_cost(changed) == 1
            again = svc.submit(problem)
            assert not again.cached
            _assert_matches_cold(again.result(), first)

    def test_invalidate_problem(self):
        problem = _linear_problem()
        with PlanService() as svc:
            svc.plan(problem)
            assert svc.invalidate(problem) is True
            assert svc.invalidate(problem) is False
            assert not svc.submit(problem).cached

    def test_callable_costs_bypass_cache_and_coalescing(self):
        procs = [
            Processor("P1", LinearCost(1e-5), CallableCost(lambda x: 0.01 * x)),
            Processor("root", ZeroCost(), LinearCost(0.02)),
        ]
        problem = ScatterProblem(procs, 200)
        planner = GatedPlanner()
        with PlanService(planner=planner, algorithm="dp-basic",
                         order_policy=None) as svc:
            a = svc.plan(problem)
            b = svc.plan(problem)
            assert planner.calls == 2  # never cached, never coalesced
            assert a.info["serve"]["fingerprint"] is None
            _assert_matches_cold(
                a, plan_scatter(problem, algorithm="dp-basic",
                                order_policy=None))
            _assert_matches_cold(a, b)


class TestServiceLifecycle:
    def test_errors_propagate_and_are_not_cached(self):
        class Boom:
            def plan(self, problem):
                raise RuntimeError("solver exploded")

        problem = _linear_problem()
        with PlanService(planner=Boom()) as svc:
            with pytest.raises(RuntimeError, match="solver exploded"):
                svc.plan(problem)
            assert len(svc.cache) == 0
            assert svc.stats()["inflight"] == 0

    def test_closed_service_rejects_submissions(self):
        svc = PlanService()
        svc.close()
        with pytest.raises(RuntimeError):
            svc.submit(_linear_problem())

    def test_random_order_policy_rejected(self):
        with pytest.raises(ValueError, match="random"):
            PlanService(order_policy="random")

    def test_executor_and_backend_mutually_exclusive(self):
        with pytest.raises(ValueError):
            PlanService(executor=SequentialSweepEvaluator(), backend="thread")

    def test_backend_and_workers_validated(self):
        with pytest.raises(ValueError, match="workers needs a pool backend"):
            PlanService(workers=4)
        with pytest.raises(ValueError, match="'sequential', 'thread', 'process'"):
            PlanService(backend="bogus")

    def test_latency_metrics_populate(self):
        problem = _linear_problem()
        with PlanService() as svc:
            svc.plan(problem)
            svc.plan(problem)
            stats = svc.stats()
        assert stats["latency_count"] >= 2
        assert stats["latency_p50_s"] is not None
        assert stats["latency_p99_s"] is not None


class TestStatsArePerService:
    def test_two_services_report_only_their_own_traffic(self):
        problem = _linear_problem()
        gate = threading.Event()
        planner = GatedPlanner(gate)
        all_coalesced = METRICS.counter("serve.coalesced")
        c0 = all_coalesced.value
        with PlanService(planner=planner, backend="thread", workers=2) as busy, \
                PlanService() as fresh:
            first = busy.submit(problem)
            assert planner.started.wait(timeout=30)
            joined = busy.submit(problem)
            assert joined.coalesced
            assert busy.stats()["queue_depth"] == 1
            assert fresh.stats()["queue_depth"] == 0
            gate.set()
            first.result(timeout=60)
            joined.result(timeout=60)
            assert busy.submit(problem).cached

            idle = fresh.stats()
            assert idle["latency_count"] == 0
            assert idle["latency_p50_s"] is None
            assert idle["coalesced"] == 0
            fresh.plan(problem)
            assert fresh.stats()["latency_count"] == 1
            served = busy.stats()
            assert served["latency_count"] == 3
            assert served["coalesced"] == 1
            assert served["queue_depth"] == 0
        # The process-wide instruments are still fed.
        assert all_coalesced.value == c0 + 1


class TestServingMemory:
    """Nothing a solve builds outlives it except the planner's bounded
    row states and the reused solver workspace: serving more distinct
    platforms does not grow memory."""

    @pytest.mark.parametrize("platform, n", [
        (lambda seed, n: random_affine_problem(random.Random(seed), 8, n), 50_000),
        # Knee rows take the general scan (~10 s a solve at n=50,000).
        (lambda seed, n: _knee_problem(p=8, n=n, seed=seed), 5_000),
    ], ids=["affine", "knee"])
    def test_memory_bounded_by_one_solve(self, platform, n):
        traced = []
        tracemalloc.start()
        try:
            with PlanService(algorithm="dp-fast") as svc:
                for seed in range(6):
                    svc.plan(platform(seed, n))
                    gc.collect()
                    traced.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        assert abs(traced[5] - traced[2]) <= 0.10 * traced[2], traced


    def test_drifted_platform_entries_share_unchanged_cost_keys(self):
        """Two cached plans whose platforms differ in one coefficient hold
        one string object per unchanged cost key, and the strings go once
        no entry holds them."""
        base = _linear_problem(p=6)
        procs = list(base.processors)
        procs[2] = Processor.linear("P3", procs[2].alpha * 2, procs[2].beta)
        drifted = ScatterProblem(procs, base.n)
        with PlanService(order_policy=None) as svc:
            svc.plan(base)
            svc.plan(drifted)
            keys = [
                svc.cache.get(problem_fingerprint(prob, algorithm=svc.algorithm).key)
                .cost_keys
                for prob in (base, drifted)
            ]
            unchanged = set(keys[0]) & set(keys[1])
            assert len(unchanged) == len(keys[0]) - 1
            first = {k: k for k in keys[0]}
            assert all(first[k] is k for k in keys[1] if k in unchanged)
            svc.cache.clear()
            assert not svc.cache._key_strings and not svc.cache._key_refs


class TestImportWeight:
    def test_serve_import_leaves_heavy_stdlib_modules_out(self):
        """ssl/http/email (via urllib.request) and multiprocessing.pool
        are loaded only by the code that uses them."""
        import repro

        heavy = ("ssl", "urllib.request", "http.client", "email", "multiprocessing.pool")
        code = (
            "import sys, repro.serve; "
            f"print([m for m in {heavy!r} if m in sys.modules])"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=env, check=True, timeout=120,
        )
        assert out.stdout.strip() == "[]"

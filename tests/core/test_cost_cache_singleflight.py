"""Single-flight semantics of the cost-table cache (thundering herd fix).

Before the fix, ``CostTableCache.table`` computed misses outside the
lock, so K concurrent requesters of the same uncached function each ran
the O(n) tabulation.  These tests pin the repaired contract: exactly one
caller builds, the rest wait on the per-key event and then count as
hits-after-wait (never as misses), and a failed build wakes the waiters
so one of them retries rather than deadlocking.
"""

import threading

import numpy as np
import pytest

from repro.core.costs import CostFunction, CostTableCache, LinearCost


class CountingCost(CostFunction):
    """A value-keyed linear cost that counts (and can stall) tabulations.

    ``many`` blocks on ``gate`` when one is supplied, so a test can hold
    every stampeding thread at the miss decision before letting the
    single builder proceed.
    """

    is_increasing = True

    def __init__(self, rate=0.5, gate=None, fail_first=False):
        self._r = rate
        self.gate = gate
        self.fail_first = fail_first
        self.builds = 0
        self._lock = threading.Lock()

    def __call__(self, x):
        return self._r * float(x)

    def many(self, xs):
        with self._lock:
            self.builds += 1
            first = self.builds == 1
        if self.gate is not None:
            self.gate.wait(timeout=30)
        if self.fail_first and first:
            raise RuntimeError("injected tabulation failure")
        return self._r * np.asarray(xs, dtype=float)


def _stampede(cache, fn, n, k):
    """K threads request the same (fn, n) as simultaneously as possible."""
    barrier = threading.Barrier(k)
    results = [None] * k
    errors = []

    def worker(i):
        try:
            barrier.wait(timeout=30)
            results[i] = cache.table(fn, n)
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(k)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads), "stampede deadlocked"
    return results, errors


class TestSingleFlight:
    def test_k16_stampede_builds_exactly_once(self):
        cache = CostTableCache()
        fn = CountingCost(0.25)
        results, errors = _stampede(cache, fn, 5_000, k=16)
        assert errors == []
        assert fn.builds == 1, "thundering herd: table built more than once"
        expected = 0.25 * np.arange(5_001)
        for r in results:
            np.testing.assert_array_equal(r, expected)

    def test_waiters_count_as_hits_not_misses(self):
        cache = CostTableCache()
        fn = CountingCost(0.5)
        _stampede(cache, fn, 2_000, k=16)
        stats = cache.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 15
        # waits may be < 15 (threads arriving after the commit hit
        # directly) but every wait must be accounted a hit afterwards.
        assert stats["waits"] <= 15

    def test_waiter_needing_larger_n_becomes_next_builder(self):
        cache = CostTableCache()
        gate = threading.Event()
        fn = CountingCost(0.5, gate=gate)
        small_started = threading.Event()

        def small():
            small_started.set()
            cache.table(fn, 100)

        t_small = threading.Thread(target=small)
        t_small.start()
        small_started.wait(timeout=10)
        # Wait until the small build is registered in flight, then ask
        # for a larger table: the waiter must rebuild after waking, not
        # return a 101-entry prefix as if it covered n=500.
        for _ in range(1_000):
            if fn.builds == 1:
                break
        result = {}

        def large():
            result["t"] = cache.table(fn, 500)

        t_large = threading.Thread(target=large)
        t_large.start()
        gate.set()
        t_small.join(timeout=30)
        t_large.join(timeout=30)
        assert result["t"].shape == (501,)
        np.testing.assert_array_equal(result["t"], 0.5 * np.arange(501))
        assert fn.builds == 2

    def test_failed_build_wakes_waiters_and_one_retries(self):
        cache = CostTableCache()
        fn = CountingCost(0.5, fail_first=True)
        barrier = threading.Barrier(8)
        outcomes = []
        lock = threading.Lock()

        def worker():
            barrier.wait(timeout=30)
            try:
                t = cache.table(fn, 1_000)
                with lock:
                    outcomes.append(("ok", t.shape[0]))
            except RuntimeError:
                with lock:
                    outcomes.append(("err", None))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads), "failure deadlocked"
        # The injected failure surfaces on exactly the thread that built
        # first; everyone else eventually gets a real table.
        assert outcomes.count(("err", None)) == 1
        assert outcomes.count(("ok", 1_001)) == 7

    def test_sequential_behavior_unchanged(self):
        cache = CostTableCache(maxsize=2)
        a, b, c = LinearCost(0.1), LinearCost(0.2), LinearCost(0.3)
        cache.table(a, 10)
        cache.table(a, 10)
        cache.table(b, 10)
        cache.table(c, 10)  # evicts a (maxsize=2)
        stats = cache.stats()
        assert stats == {"hits": 1, "misses": 3, "waits": 0, "entries": 2}

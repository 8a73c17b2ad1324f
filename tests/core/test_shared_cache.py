"""Tests for the shared-memory cost-table tier."""

import multiprocessing
import os

import numpy as np
import pytest

from repro.core.costs import (
    AffineCost,
    CallableCost,
    CostTableCache,
    LinearCost,
    PiecewiseLinearCost,
    TabulatedCost,
    ZeroCost,
    cost_fingerprint,
    get_default_cost_cache,
    set_default_cost_cache,
)
from repro.core.shared_cache import SharedCostTableCache
from repro.obs.metrics import METRICS

from fractions import Fraction


def _shm_entries(namespace):
    try:
        return [f for f in os.listdir("/dev/shm") if f.startswith(namespace + "_")]
    except OSError:  # pragma: no cover - non-Linux
        return []


class TestStableCostKey:
    """Segment names derive from cost_fingerprint, which must be a stable,
    exact value key in every process."""

    def test_kinds_distinct(self):
        keys = {
            cost_fingerprint(ZeroCost()),
            cost_fingerprint(LinearCost(0.25)),
            cost_fingerprint(AffineCost(0.25, 1.5)),
            cost_fingerprint(TabulatedCost([0.0, 1.0, 2.5])),
            cost_fingerprint(PiecewiseLinearCost([(0, 0), (100, 25)])),
        }
        assert len(keys) == 5
        assert None not in keys

    def test_exact_not_float_rounded(self):
        # Fractions with the same float repr but different values must
        # yield different keys: naming is by *value identity*, exactly.
        a = LinearCost(Fraction(1, 3))
        b = LinearCost(Fraction(33333333333333333, 10**17))
        assert float(a.rate) == pytest.approx(float(b.rate))
        assert cost_fingerprint(a) != cost_fingerprint(b)

    def test_same_value_same_key(self):
        assert cost_fingerprint(AffineCost(Fraction(1, 4), 2)) == cost_fingerprint(
            AffineCost(Fraction(2, 8), 2)
        )

    def test_callable_has_no_key(self):
        assert cost_fingerprint(CallableCost(lambda x: x * 0.1)) is None


class TestSharedCostTableCache:
    def test_is_a_cost_table_cache(self):
        cache = SharedCostTableCache(namespace="rsct1")
        try:
            assert isinstance(cache, CostTableCache)
            t = cache.table(LinearCost(0.5), 10)
            np.testing.assert_allclose(t, 0.5 * np.arange(11))
        finally:
            cache.unlink_all()

    def test_tables_match_process_tier(self):
        fns = [
            ZeroCost(),
            LinearCost(Fraction(1, 3)),
            AffineCost(0.01, 2.5),
            TabulatedCost(np.arange(30, dtype=float) ** 1.5),
            PiecewiseLinearCost([(0, 0), (10, 2.5), (20, 4.0)]),
        ]
        plain = CostTableCache()
        shared = SharedCostTableCache(namespace="rsct2")
        try:
            for fn in fns:
                np.testing.assert_array_equal(
                    shared.table(fn, 20), plain.table(fn, 20)
                )
        finally:
            shared.unlink_all()

    def test_second_instance_attaches_instead_of_building(self):
        a = SharedCostTableCache(namespace="rsct3")
        b = SharedCostTableCache(namespace="rsct3", owner=False)
        hits = METRICS.counter("core.cost_cache.shared.hits")
        misses = METRICS.counter("core.cost_cache.shared.misses")
        h0, m0 = hits.value, misses.value
        try:
            fn = AffineCost(0.125, 3.0)
            t1 = a.table(fn, 500)
            assert misses.value == m0 + 1  # published
            t2 = b.table(fn, 500)
            assert hits.value == h0 + 1  # attached, not rebuilt
            np.testing.assert_array_equal(t1, t2)
            assert b.shared_stats()["mapped"] == 1
            assert b.shared_stats()["created"] == 0
        finally:
            a.unlink_all()

    def test_views_are_read_only(self):
        cache = SharedCostTableCache(namespace="rsct4")
        try:
            t = cache.table(LinearCost(0.25), 50)
            with pytest.raises(ValueError):
                t[0] = 99.0
        finally:
            cache.unlink_all()

    def test_callable_cost_bypasses_shared_tier(self):
        cache = SharedCostTableCache(namespace="rsct5")
        try:
            fn = CallableCost(lambda x: x * 0.1)
            t = cache.table(fn, 10)
            np.testing.assert_allclose(t, 0.1 * np.arange(11))
            assert _shm_entries("rsct5") == []
            assert cache.shared_stats() == {"mapped": 0, "created": 0}
            # ...but still lands in the in-process LRU.
            cache.table(fn, 10)
            assert cache.stats()["hits"] == 1
        finally:
            cache.unlink_all()

    def test_local_lru_serves_repeats(self):
        cache = SharedCostTableCache(namespace="rsct6")
        try:
            fn = LinearCost(0.5)
            cache.table(fn, 100)
            mapped_after_first = cache.shared_stats()["mapped"]
            cache.table(fn, 100)
            cache.table(fn, 40)  # prefix of a cached table
            assert cache.stats()["hits"] == 2
            assert cache.shared_stats()["mapped"] == mapped_after_first
        finally:
            cache.unlink_all()

    def test_unready_segment_treated_as_absent(self):
        from multiprocessing import shared_memory

        cache = SharedCostTableCache(namespace="rsct7")
        fn = LinearCost(0.75)
        name = cache._segment_name(cost_fingerprint(fn), 20)
        seg = shared_memory.SharedMemory(name=name, create=True, size=16 + 21 * 8)
        try:
            # Header still zero: a reader mid-publish must compute locally
            # (and lose the FileExistsError race on publish) — not spin,
            # not trust garbage.
            t = cache.table(fn, 20)
            np.testing.assert_allclose(t, 0.75 * np.arange(21))
        finally:
            seg.close()
            cache.unlink_all()

    def test_unlink_all_clears_namespace_and_is_idempotent(self):
        cache = SharedCostTableCache(namespace="rsct8")
        cache.table(LinearCost(0.5), 100)
        cache.table(AffineCost(0.5, 1.0), 100)
        assert len(_shm_entries("rsct8")) == 2
        cache.unlink_all()
        assert _shm_entries("rsct8") == []
        cache.unlink_all()  # second call must be a no-op, not an error

    def test_bad_namespace_rejected(self):
        with pytest.raises(ValueError):
            SharedCostTableCache(namespace="bad/../name")

    def test_bytes_metric(self):
        c = METRICS.counter("core.cost_cache.shared.bytes")
        b0 = c.value
        cache = SharedCostTableCache(namespace="rsct9")
        try:
            cache.table(LinearCost(0.5), 999)
            assert c.value == b0 + 1000 * 8
        finally:
            cache.unlink_all()


def _child_reads(namespace, n, out):
    """Forked child: attach to the parent's published table."""
    cache = SharedCostTableCache(namespace=namespace, owner=False)
    t = cache.table(LinearCost(0.5), n)
    out["sum"] = float(t.sum())
    out["mapped"] = cache.shared_stats()["mapped"]


class TestCrossProcess:
    def test_child_attaches_parents_table(self):
        ctx = multiprocessing.get_context("fork")
        cache = SharedCostTableCache(namespace="rsctx1")
        try:
            parent = cache.table(LinearCost(0.5), 2000)
            with ctx.Manager() as mgr:
                out = mgr.dict()
                proc = ctx.Process(target=_child_reads, args=("rsctx1", 2000, out))
                proc.start()
                proc.join(timeout=30)
                assert proc.exitcode == 0
                assert out["sum"] == float(parent.sum())
                assert out["mapped"] == 1  # attached, did not re-publish
        finally:
            cache.unlink_all()
        assert _shm_entries("rsctx1") == []


class TestDefaultCacheSwap:
    def test_set_and_restore(self):
        from repro.core.costs import DEFAULT_COST_CACHE

        assert get_default_cost_cache() is DEFAULT_COST_CACHE
        mine = CostTableCache()
        prev = set_default_cost_cache(mine)
        try:
            assert prev is DEFAULT_COST_CACHE
            assert get_default_cost_cache() is mine
        finally:
            set_default_cost_cache(None)
        assert get_default_cost_cache() is DEFAULT_COST_CACHE

    def test_solvers_route_through_swapped_cache(self):
        from repro.core.dp_fast import solve_dp_fast
        from repro.workloads.table1 import table1_problem

        mine = CostTableCache()
        set_default_cost_cache(mine)
        try:
            solve_dp_fast(table1_problem(200))
            assert mine.stats()["misses"] > 0
        finally:
            set_default_cost_cache(None)

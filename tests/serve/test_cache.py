"""PlanCache: LRU bounds, TTL expiry, per-cost invalidation."""

import pytest

from repro.serve.cache import CachedPlan, PlanCache


def _plan(tag=0, cost_keys=()):
    return CachedPlan(
        counts=(10 + tag, 5), makespan=1.0 + tag, algorithm="closed-form",
        cost_keys=tuple(sorted(cost_keys)),
    )


class TestPlanCache:
    def test_get_put_roundtrip(self):
        cache = PlanCache(4)
        assert cache.get("k") is None
        cache.put("k", _plan())
        assert cache.get("k") == _plan()
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_lru_evicts_oldest(self):
        cache = PlanCache(2)
        cache.put("a", _plan(1))
        cache.put("b", _plan(2))
        cache.get("a")            # refresh a; b becomes oldest
        cache.put("c", _plan(3))  # evicts b
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert cache.get("c") is not None
        assert cache.stats()["evictions"] == 1

    def test_size_zero_disables(self):
        cache = PlanCache(0)
        cache.put("k", _plan())
        assert cache.get("k") is None
        assert len(cache) == 0

    def test_ttl_expiry_counts_as_miss(self):
        cache = PlanCache(4, ttl=10.0)
        cache.put("k", _plan(), now=100.0)
        assert cache.get("k", now=105.0) is not None
        assert cache.get("k", now=110.0) is None  # expired at now >= 110
        stats = cache.stats()
        assert stats["expired"] == 1
        assert stats["misses"] == 1
        assert len(cache) == 0

    def test_put_refreshes_ttl(self):
        cache = PlanCache(4, ttl=10.0)
        cache.put("k", _plan(1), now=0.0)
        cache.put("k", _plan(2), now=8.0)
        assert cache.get("k", now=15.0) == _plan(2)

    def test_invalidate_single_entry(self):
        cache = PlanCache(4)
        cache.put("k", _plan())
        assert cache.invalidate("k") is True
        assert cache.invalidate("k") is False
        assert cache.get("k") is None

    def test_invalidate_cost_evicts_only_dependents(self):
        cache = PlanCache(8)
        cache.put("a", _plan(1, cost_keys={"lin:1/2", "zero"}))
        cache.put("b", _plan(2, cost_keys={"lin:1/4", "zero"}))
        cache.put("c", _plan(3, cost_keys={"lin:1/2", "lin:1/4"}))
        assert cache.invalidate_cost("lin:1/2") == 2
        assert cache.get("a") is None
        assert cache.get("c") is None
        assert cache.get("b") is not None
        assert cache.invalidate_cost(None) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            PlanCache(-1)
        with pytest.raises(ValueError):
            PlanCache(4, ttl=0)

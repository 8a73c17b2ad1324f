"""Fingerprint → solved-plan cache (LRU + TTL + per-cost invalidation).

The cache stores *plan values*, not :class:`DistributionResult` objects:
a result is bound to one concrete problem (its processor names, its
``info`` dict), while one cache entry serves every request whose
fingerprint matches — the service re-binds the stored counts/makespans
to each caller's own ordered problem.

Metrics (``repro.obs.metrics.METRICS``):

* ``serve.cache.hits`` / ``serve.cache.misses`` — lookup outcomes
  (an expired entry counts as a miss);
* ``serve.cache.expired`` — entries dropped because their TTL passed;
* ``serve.cache.evictions`` — entries dropped by the LRU bound or by
  explicit invalidation.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Any, Dict, Optional, Tuple

from ..lint.runtime import make_lock
from ..obs.metrics import METRICS

__all__ = ["CachedPlan", "PlanCache"]


@dataclass(frozen=True)
class CachedPlan:
    """The problem-independent part of a solved plan."""

    counts: Tuple[int, ...]
    makespan: float
    algorithm: str
    makespan_exact: Optional[Fraction] = None
    #: Per-cost canonical keys of the solved instance (invalidation index).
    cost_keys: Tuple[str, ...] = ()
    #: Problem-independent ``result.info`` items for tree plans (the
    #: :class:`~repro.core.trees.ScatterTree`, construction, bounds — all
    #: immutable values; the wall-clock ``"profile"`` entry is excluded).
    #: ``None`` for flat plans, keeping their entries byte-identical to
    #: before trees existed.
    tree_info: Optional[Tuple[Tuple[str, Any], ...]] = None


class PlanCache:
    """Thread-safe LRU of :class:`CachedPlan` keyed by fingerprint key.

    Stored entries share their cost-key strings: :meth:`put` swaps each
    key for the copy a live entry already holds, so the plans of a
    drifting platform keep one string per unchanged cost.  The shared
    copies are reference-counted by the entries using them and dropped
    with the last one (``sys.intern`` would share them too, but Python
    3.12 never frees an interned string).

    Parameters
    ----------
    maxsize:
        LRU bound.  ``0`` disables the cache entirely (every ``get``
        misses, ``put`` is a no-op) — useful for cold baselines.
    ttl:
        Seconds an entry stays valid, measured on the clock the *caller*
        passes to :meth:`get`/:meth:`put` (the service injects its own
        monotonic clock; tests inject a fake).  ``None`` means entries
        never expire.
    """

    def __init__(self, maxsize: int = 1024, *, ttl: Optional[float] = None) -> None:
        if maxsize < 0:
            raise ValueError(f"maxsize must be >= 0, got {maxsize}")
        if ttl is not None and ttl <= 0:
            raise ValueError(f"ttl must be positive, got {ttl}")
        self.maxsize = int(maxsize)
        self.ttl = ttl
        self._entries: "OrderedDict[str, Tuple[CachedPlan, Optional[float]]]" = (
            OrderedDict()
        )
        #: Each live cost key's shared string, and how many entries hold it.
        self._key_strings: Dict[str, str] = {}
        self._key_refs: Dict[str, int] = {}
        self._lock = make_lock("PlanCache._lock")
        self.hits = 0
        self.misses = 0
        self.expired = 0
        self.evictions = 0

    def get(self, key: str, now: float = 0.0) -> Optional[CachedPlan]:
        """The cached plan for ``key``, or ``None`` on miss/expiry."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                plan, expires_at = entry
                if expires_at is not None and now >= expires_at:
                    self._remove(key)
                    self.expired += 1
                    METRICS.counter("serve.cache.expired").inc()
                else:
                    self.hits += 1
                    self._entries.move_to_end(key)
                    METRICS.counter("serve.cache.hits").inc()
                    return plan
            self.misses += 1
            METRICS.counter("serve.cache.misses").inc()
            return None

    def put(self, key: str, plan: CachedPlan, now: float = 0.0) -> None:
        """Insert/refresh ``key``; oldest entries fall off the LRU end."""
        if self.maxsize == 0:
            return
        expires_at = None if self.ttl is None else now + self.ttl
        with self._lock:
            if key in self._entries:
                self._remove(key)
            plan = replace(plan, cost_keys=self._share(plan.cost_keys))
            self._entries[key] = (plan, expires_at)
            while len(self._entries) > self.maxsize:
                self._remove(next(iter(self._entries)))
                self.evictions += 1
                METRICS.counter("serve.cache.evictions").inc()

    def invalidate(self, key: str) -> bool:
        """Drop one entry; True if it existed."""
        with self._lock:
            if key in self._entries:
                self._remove(key)
                self.evictions += 1
                METRICS.counter("serve.cache.evictions").inc()
                return True
            return False

    def invalidate_cost(self, cost_key: Optional[str]) -> int:
        """Drop every entry whose instance used ``cost_key``; returns count.

        This is the churn hook: when one platform link's coefficients
        change, only the plans that depended on that cost are evicted —
        the rest of the cache stays warm.
        """
        if cost_key is None:
            return 0
        with self._lock:
            doomed = [
                k for k, (plan, _) in self._entries.items()
                if cost_key in plan.cost_keys
            ]
            for k in doomed:
                self._remove(k)
            self.evictions += len(doomed)
            if doomed:
                METRICS.counter("serve.cache.evictions").inc(len(doomed))
            return len(doomed)

    def clear(self) -> None:
        with self._lock:
            self.evictions += len(self._entries)
            self._entries.clear()
            self._key_strings.clear()
            self._key_refs.clear()

    def _share(self, cost_keys: Tuple[str, ...]) -> Tuple[str, ...]:
        """``cost_keys`` as the live entries' strings (holds ``_lock``)."""
        shared = []
        for k in cost_keys:
            k = self._key_strings.setdefault(k, k)
            self._key_refs[k] = self._key_refs.get(k, 0) + 1
            shared.append(k)
        return tuple(shared)

    def _remove(self, key: str) -> None:
        """Drop ``key``'s entry and release its cost keys (holds ``_lock``)."""
        plan, _ = self._entries.pop(key)
        for k in plan.cost_keys:
            left = self._key_refs[k] - 1
            if left:
                self._key_refs[k] = left
            else:
                del self._key_refs[k], self._key_strings[k]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "expired": self.expired,
                "evictions": self.evictions,
                "entries": len(self._entries),
            }

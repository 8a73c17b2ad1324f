"""Shared-memory tier for the cost-table cache.

:class:`~repro.core.costs.CostTableCache` removes redundant tabulation
*within* one process, but a :class:`~repro.analysis.sweep.ParallelSweepEvaluator`
with ``backend="process"`` forks workers whose (copied) caches each
re-derive the exact same ``O(p·n)`` tables — at the n = 10⁶ scale this PR
targets, that is hundreds of megabytes of duplicated work and RSS per
worker.  :class:`SharedCostTableCache` adds a second tier backed by
``multiprocessing.shared_memory``: the first process to need a table
publishes it to a named segment, and every other process maps it zero-copy.

Design notes
------------
* **Naming is deterministic.**  Segments are named from a SHA-1 digest of
  the cost function's :func:`~repro.core.costs.cost_fingerprint` plus ``n``
  (Python's built-in ``hash`` is salted per process, so it cannot name
  cross-process resources).  That is the plan cache's exact value key, so
  tabulated costs key by their exact values here too.  Only the
  analytic/tabulated cost classes have such a key;
  :class:`~repro.core.costs.CallableCost` and friends silently stay in the
  in-process tier.
* **Publication is a single-flag commit.**  Each segment carries a 16-byte
  header (``ready`` flag + entry count).  The creator fills the payload
  first and flips ``ready`` last; a reader that attaches mid-publish treats
  the segment as absent and computes locally rather than spinning.
* **Reads are zero-copy.**  A hit returns a read-only ``ndarray`` view over
  the mapped segment (the mapping is kept alive by the cache); the usual
  in-process LRU then serves repeats without touching ``/dev/shm`` again.
* **Tracking workaround.**  CPython < 3.13 registers *attached* segments
  with the ``resource_tracker`` as if they were owned, which both spams
  "leaked shared_memory" warnings and lets a worker's tracker unlink a
  segment still in use elsewhere.  Attach/create paths therefore
  unregister immediately; cleanup is explicit instead —
  :meth:`SharedCostTableCache.unlink_all` removes every segment of this
  cache's namespace, and the parent process installs an ``atexit`` hook for
  its own namespaces.

Metrics (``repro.obs.metrics.METRICS``):

* ``core.cost_cache.shared.hits`` — tables served by attaching a segment
  some other process (or cache instance) published;
* ``core.cost_cache.shared.misses`` — tables computed here and published;
* ``core.cost_cache.shared.bytes`` — payload bytes published by this
  process.
"""

from __future__ import annotations

import atexit
import hashlib
import os
import secrets
import struct
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, List, Optional

import numpy as np

from ..obs.metrics import METRICS
from .costs import CostFunction, CostTableCache, _build_table, cost_fingerprint

__all__ = ["SharedCostTableCache"]

_HEADER = struct.Struct("<QQ")  # (ready flag, float64 entry count)
_READY = 0x5343_4154_5445_5231  # arbitrary non-zero magic


def _unregister(name: str) -> None:
    """Undo the resource tracker's eager registration (see module docs)."""
    try:
        resource_tracker.unregister("/" + name, "shared_memory")
    except Exception:  # pragma: no cover - tracker variations across 3.x
        pass


class SharedCostTableCache(CostTableCache):
    """A :class:`CostTableCache` whose misses go through shared memory.

    Parameters
    ----------
    maxsize:
        In-process LRU bound (inherited behavior).
    namespace:
        Segment-name prefix shared by every cache instance that should see
        the same tables.  A sweep evaluator generates one namespace and
        hands it to its pool workers; the default is a fresh random
        namespace (shared with forked children, private to everyone else).
    owner:
        When True (default), register an ``atexit`` hook that unlinks this
        namespace's segments when the process exits.  Pool workers attach
        with ``owner=False`` so only the parent tears the segments down.
    """

    def __init__(
        self,
        maxsize: int = 256,
        *,
        namespace: Optional[str] = None,
        owner: bool = True,
    ):
        super().__init__(maxsize)
        self.namespace = namespace or f"rsc{secrets.token_hex(6)}"
        if not self.namespace.replace("_", "").isalnum():
            raise ValueError(f"namespace must be alphanumeric: {self.namespace!r}")
        self.owner = bool(owner)
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        self._created: List[str] = []
        if self.owner:
            atexit.register(self.unlink_all)

    # -- naming ----------------------------------------------------------
    def _segment_name(self, key: str, n: int) -> str:
        digest = hashlib.sha1(f"{key}|{n}".encode()).hexdigest()[:20]
        return f"{self.namespace}_{digest}"

    # -- shared tier -----------------------------------------------------
    def _attach(self, name: str, n: int) -> Optional[np.ndarray]:
        """Map a published segment read-only; None if absent or unready."""
        try:
            seg = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            return None
        _unregister(name)
        ready, count = _HEADER.unpack_from(seg.buf, 0)
        if ready != _READY or count != n + 1:
            seg.close()  # mid-publish or foreign layout: treat as absent
            return None
        self._segments[name] = seg
        arr = np.ndarray((n + 1,), dtype=np.float64, buffer=seg.buf, offset=16)
        arr.setflags(write=False)
        return arr

    def _publish(self, name: str, arr: np.ndarray) -> Optional[np.ndarray]:
        """Create + fill a segment from ``arr``; None if we lost the race."""
        nbytes = 16 + arr.nbytes
        try:
            seg = shared_memory.SharedMemory(name=name, create=True, size=nbytes)
        except FileExistsError:
            return None  # someone else is publishing; use the local copy
        except OSError:  # pragma: no cover - /dev/shm unavailable/full
            return None
        _unregister(name)
        self._created.append(name)
        shared = np.ndarray(arr.shape, dtype=np.float64, buffer=seg.buf, offset=16)
        shared[:] = arr
        shared.setflags(write=False)
        # Commit: readers accept the segment only once the flag lands.
        _HEADER.pack_into(seg.buf, 0, _READY, arr.shape[0])
        self._segments[name] = seg
        METRICS.counter("core.cost_cache.shared.bytes").inc(arr.nbytes)
        return shared

    def _tabulate_miss(self, fn: CostFunction, n: int) -> np.ndarray:
        """Attach a published segment, or compute + publish (miss hook).

        The base class's single-flight :meth:`~CostTableCache.table` calls
        this with exactly one in-process builder per key; cross-process
        races are resolved by :meth:`_publish`'s create-exclusive commit.
        """
        key = cost_fingerprint(fn)
        arr: Optional[np.ndarray] = None
        if key is not None:
            name = self._segment_name(key, n)
            arr = self._attach(name, n)
            if arr is not None:
                METRICS.counter("core.cost_cache.shared.hits").inc()
        if arr is None:
            local = _build_table(fn, n)
            local.setflags(write=False)
            if key is not None:
                METRICS.counter("core.cost_cache.shared.misses").inc()
                arr = self._publish(self._segment_name(key, n), local)
            if arr is None:
                arr = local
        METRICS.counter("core.cost_cache.misses").inc()
        return arr

    # -- lifecycle -------------------------------------------------------
    def shared_stats(self) -> Dict[str, int]:
        """Segments currently mapped / created by this cache instance."""
        return {"mapped": len(self._segments), "created": len(self._created)}

    def unlink_all(self) -> None:
        """Remove every ``/dev/shm`` segment under this cache's namespace.

        Safe to call repeatedly (and from ``atexit``).  Mapped arrays
        handed out earlier stay valid — unlinking removes the *name*, the
        mappings live until the process exits.
        """
        prefix = self.namespace + "_"
        seen = set(self._created)
        try:
            seen.update(
                f for f in os.listdir("/dev/shm") if f.startswith(prefix)
            )
        except OSError:  # pragma: no cover - non-Linux shm layout
            pass
        for name in sorted(seen):
            try:
                seg = self._segments.get(name)
                if seg is None:
                    seg = shared_memory.SharedMemory(name=name)  # registers
                else:
                    # ``unlink`` below sends an unregister; balance the
                    # books for handles we already scrubbed at attach time.
                    try:
                        resource_tracker.register("/" + name, "shared_memory")
                    except Exception:  # pragma: no cover
                        pass
                seg.unlink()
            except (FileNotFoundError, OSError):
                continue
        self._created.clear()

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"SharedCostTableCache(ns={self.namespace!r}, "
            f"entries={s['entries']}, hits={s['hits']}, misses={s['misses']}, "
            f"segments={len(self._segments)})"
        )

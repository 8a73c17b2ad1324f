"""Planner-as-a-service: fingerprint-cached, coalescing, async planning.

The ROADMAP's north star is serving plan requests at grid volume: many
concurrent applications scatter over a shared platform, so identical
``(p, cost model, n)`` instances arrive in bursts and should hit a cache
in O(1) instead of re-solving.  This package layers that on top of the
existing core:

* :mod:`repro.serve.fingerprint` — canonical value identity of a request
  (:func:`problem_fingerprint` / :func:`cost_fingerprint`): numerically
  equal cost models map to one key, processor names are ignored, and the
  ordering policy is applied *before* keying so permutations that the
  Theorem 3 order normalizes share an entry.
* :mod:`repro.serve.cache` — :class:`PlanCache`, a thread-safe LRU of
  solved plans with optional TTL and per-cost invalidation.
* :mod:`repro.serve.service` — :class:`PlanService`, the async front
  door: ``submit()`` returns a :class:`PlanTicket`, concurrent identical
  fingerprints coalesce into one in-flight solve (single-flight), and
  distinct fingerprints fan out over a pluggable
  :class:`~repro.analysis.sweep.SweepEvaluator` backend.  Misses solve
  through an :class:`~repro.core.incremental.IncrementalPlanner`, so
  TTL expiry and invalidation re-plan warm instead of cold.
* :mod:`repro.serve.jsonl` — the network-free request loop behind
  ``repro-scatter serve`` (JSONL on stdin/stdout).

See ``docs/api.md`` §Serve for the fingerprint semantics, invalidation
rules, and the executor matrix.  The repository benchmark measures this
layer with two workloads: ``serve-hot`` (JSONL requests, mostly cache
hits) and ``serve-knee-churn`` (drifting knee platforms, warm misses).
"""

from .cache import CachedPlan, PlanCache
from .fingerprint import Fingerprint, cost_fingerprint, problem_fingerprint
from .service import PlanService, PlanTicket
from .jsonl import serve_jsonl

__all__ = [
    "CachedPlan",
    "Fingerprint",
    "PlanCache",
    "PlanService",
    "PlanTicket",
    "cost_fingerprint",
    "problem_fingerprint",
    "serve_jsonl",
]

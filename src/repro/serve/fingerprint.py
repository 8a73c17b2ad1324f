"""Canonical value identity of a plan request.

A fingerprint answers one question: *would the solver produce the same
plan for these two requests?*  Two requests share a fingerprint exactly
when, after the service's ordering policy has normalized processor order,
they present the same ``(n, algorithm routing, per-position cost pairs)``
to the solver — at which point every solver in :mod:`repro.core` is a
deterministic function of its input and the plans are byte-identical.

Canonicalization rules (the equal-value ⟹ equal-key contract):

* **Costs key by exact value.**  Each cost contributes its
  :func:`~repro.core.costs.cost_fingerprint` — exact
  :class:`~fractions.Fraction` coefficients, so ``LinearCost(Fraction(1,
  2))`` and ``LinearCost(0.5)`` collide (binary 0.5 *is* 1/2) while
  ``LinearCost(Fraction(1, 10))`` and ``LinearCost(0.1)`` stay distinct
  (binary 0.1 is not 1/10, and ``makespan_exact`` differs); degenerate
  analytic forms (``AffineCost(a, 0)``, zero rates) collapse, since they
  agree in exact *and* float semantics and route alike.
* **Names are ignored.**  Processor names never reach a solver; the key
  is positional over cost pairs (the same convention as
  ``IncrementalPlanner``'s state matching).
* **Piecewise/tabulated costs keep their kind.**  A
  ``PiecewiseLinearCost`` that happens to trace a line does *not* merge
  with ``LinearCost``: its routing differs (dp-fast vs closed form), so
  the plans may legitimately differ.
* **Callable costs have no fingerprint.**  ``CallableCost`` wraps
  arbitrary Python — no value identity, so :func:`problem_fingerprint`
  returns ``None`` and the serve layer solves it uncached.

``cost_fingerprint`` lives in :mod:`repro.core.costs`, next to the cost
classes it keys; this module re-exports it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..core.costs import cost_fingerprint, sha1_hex
from ..core.distribution import ScatterProblem

__all__ = ["Fingerprint", "cost_fingerprint", "problem_fingerprint"]


@dataclass(frozen=True)
class Fingerprint:
    """Value identity of one normalized plan request.

    Attributes
    ----------
    key:
        SHA-1 hex digest of :attr:`canonical` — the cache key.
    canonical:
        The human-readable canonical string (``v1;n=...;p=...;...``),
        kept for debugging and for the equal-value property tests.
    cost_keys:
        The distinct per-cost canonical keys appearing in the request,
        sorted — the index :meth:`PlanCache.invalidate_cost` evicts by.
        A tabulated or piecewise cost's key is one string kept on the
        cost object, so the cached plans of a drifting platform share one
        string per unchanged cost.
    """

    key: str
    canonical: str
    cost_keys: Tuple[str, ...] = ()

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return self.key


def problem_fingerprint(
    problem: ScatterProblem,
    *,
    algorithm: str = "auto",
    topology: str = "flat",
) -> Optional[Fingerprint]:
    """Fingerprint of ``problem`` as the solver will actually see it.

    Call this on the *ordered* problem (after ``apply_policy``): the
    service normalizes order first, so input permutations that the
    ordering policy maps to one sequence share one fingerprint, while
    genuinely order-sensitive requests (``order_policy=None`` with
    different sequences) stay distinct.

    ``topology`` enters the key only when non-flat (``";topo=tree"``),
    so every pre-existing flat canonical string is unchanged; a tree
    request can never collide with a flat one for the same platform.

    Returns ``None`` when any cost lacks a value identity
    (:class:`~repro.core.costs.CallableCost` and custom subclasses);
    such requests bypass the cache and coalescing entirely.
    """
    parts = []
    keys = set()
    for proc in problem.processors:
        comm = cost_fingerprint(proc.comm)
        comp = cost_fingerprint(proc.comp)
        if comm is None or comp is None:
            return None
        parts.append(f"{comm}|{comp}")
        keys.add(comm)
        keys.add(comp)
    head = f"v1;n={problem.n};p={problem.p};alg={algorithm}"
    if topology != "flat":
        head += f";topo={topology}"
    canonical = head + ";" + ";".join(parts)
    digest = sha1_hex(canonical)
    return Fingerprint(key=digest, canonical=canonical,
                       cost_keys=tuple(sorted(keys)))

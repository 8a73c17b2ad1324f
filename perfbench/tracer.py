"""Layer spans recorded from outside the program.

The benchmark never edits ``src/``.  Instead, for a traced run it swaps
timing wrappers onto the public entry points of each layer (a module
function binding or a class attribute), runs the workload, and restores
the originals.  A wrapper opens a span named after its layer; a span's
*self time* is its duration minus the time of the spans it encloses, so
the self times of all layers plus the unattributed residual add up to the
traced wall time.

Everything here assumes the single-threaded sequential service backend
the workloads use: the span stack is a plain list.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["KernelLedger", "ROUTE_LAYERS", "Tracer", "layer_targets"]

#: ``(owner, attribute, layer, on_result)``: wrap ``owner.attribute``.
Target = Tuple[Any, str, str, Optional[Callable[[Any], None]]]


class Tracer:
    """Self-time ledger keyed by layer name, plus per-layer call counts."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self._stack: List[float] = []  # child time of each open span
        self._patches: List[Tuple[Any, str, Any]] = []

    def _close(self, layer: str, elapsed: float) -> None:
        child = self._stack.pop()
        self.self_s[layer] += elapsed - child
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1] += elapsed

    @contextmanager
    def span(self, layer: str):
        """Time the enclosed block as one call into ``layer``."""
        self._stack.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(layer, time.perf_counter() - start)

    def wrap(self, fn: Callable, layer: str,
             on_result: Optional[Callable[[Any], None]] = None) -> Callable:
        """``fn`` timed as ``layer``; ``on_result`` sees each return value."""
        stack, close, clock = self._stack, self._close, time.perf_counter

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(layer, clock() - start)
            if on_result is not None:
                on_result(result)
            return result

        return timed

    def install(self, targets: List[Target]) -> "Tracer":
        for owner, attr, layer, on_result in targets:
            original = vars(owner)[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, layer, on_result))
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    def total_self_s(self) -> float:
        return sum(self.self_s.values())


class KernelLedger:
    """What the solver results report about themselves during a traced run."""

    def __init__(self) -> None:
        self.stages_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)

    def on_dp_fast(self, result: Any) -> None:
        info = result.info
        for stage, secs in info.get("profile", {}).get("stages_s", {}).items():
            self.stages_s[stage] += secs
        self.counts["rows_affine"] += info.get("rows_affine", 0)
        self.counts["rows_general_scan"] += info.get("rows_general_scan", 0)
        misses = info.get("cost_cache", {}).get("misses", 0)
        self.counts["table_bytes"] += misses * (result.problem.n + 1) * 8

    def on_incremental(self, result: Any) -> None:
        profile = result.info.get("incremental", {}).get("profile", {})
        for stage, secs in profile.get("stages_s", {}).items():
            self.stages_s[stage] += secs


#: Solver layers whose call counts are the route mix.
ROUTE_LAYERS = {
    "core.closed_form.solve": "closed-form",
    "core.heuristic.solve": "lp-heuristic",
    "core.dp_fast.solve": "dp-fast",
}


def layer_targets(ledger: KernelLedger) -> List[Target]:
    """Every layer entry point the traced run wraps.

    A function is wrapped where its callers look it up (the importing
    module's global), so one function may appear under several owners.
    """
    from repro.analysis import chaos
    from repro.core import incremental, solver
    from repro.core.incremental import IncrementalPlanner
    from repro.serve import jsonl, service
    from repro.serve.cache import PlanCache

    return [
        (jsonl, "parse_request", "serve.jsonl.parse", None),
        (service, "apply_policy", "core.ordering.apply_policy", None),
        (solver, "apply_policy", "core.ordering.apply_policy", None),
        (service, "problem_fingerprint", "serve.fingerprint.problem", None),
        (service.PlanService, "submit", "serve.service.submit", None),
        (service.PlanTicket, "result", "serve.service.result", None),
        (PlanCache, "get", "serve.cache.get", None),
        (PlanCache, "put", "serve.cache.put", None),
        (IncrementalPlanner, "plan", "core.incremental.plan",
         ledger.on_incremental),
        (IncrementalPlanner, "__call__", "core.incremental.plan",
         ledger.on_incremental),
        (solver, "plan_scatter", "core.solver.plan_scatter", None),
        (incremental, "plan_scatter", "core.solver.plan_scatter", None),
        (chaos, "plan_scatter", "core.solver.plan_scatter", None),
        (solver, "solve_closed_form", "core.closed_form.solve", None),
        (solver, "solve_heuristic", "core.heuristic.solve", None),
        (solver, "solve_dp_fast", "core.dp_fast.solve", ledger.on_dp_fast),
        (incremental, "solve_dp_fast", "core.dp_fast.solve",
         ledger.on_dp_fast),
    ]

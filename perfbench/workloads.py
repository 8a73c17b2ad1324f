"""The four benchmark workloads: seeded inputs, set-up, the timed op, checks.

Each workload is a class with the same five steps, driven by ``run.py``:

``inputs()``
    A fresh, seeded, lazy input stream.  The program only ever sees what
    the stream yields (JSONL lines or ``ScatterProblem`` objects); the
    same seed yields the same stream.
``setup(inputs)``
    Service or platform construction plus warm-up — timed as ``setup_s``.
``call(state, item, span)``
    One op, timed.  ``span`` opens a call-site span in traced runs (a
    no-op otherwise).
``after(state)``
    Untimed work between ops.
``check(state, records)``
    Runs after the timed loop: one pass/fail verdict per op, plus the
    measured input properties the record carries.
"""

from __future__ import annotations

import json
import random
from contextlib import nullcontext
from fractions import Fraction
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis import chaos
from repro.core import solver
from repro.core.costs import PiecewiseLinearCost, ZeroCost, get_default_cost_cache, scale_cost
from repro.core.distribution import DistributionResult, Processor, ScatterProblem
from repro.core.ordering import apply_policy
from repro.serve import PlanService
from repro.serve.jsonl import parse_request, serve_jsonl
from repro.verify import run_oracles
from repro.workloads import random_affine_problem, table1_platform, table1_rank_hosts

__all__ = ["WORKLOADS", "NULL_SPAN"]

#: The oracles every plan must pass.
ORACLES = ("eq1-recompute", "dist-valid")

#: One timed op: ``(item, output, error)``.
Record = Tuple[Any, Any, Optional[BaseException]]
Span = Callable[[str], Any]


def NULL_SPAN(layer: str) -> Any:
    return nullcontext()


def _oracles_pass(result: DistributionResult) -> bool:
    reports = run_oracles(result.problem, {result.algorithm: result}, only=ORACLES)
    return all(r.ok for r in reports)


def _same_plan(a: DistributionResult, b: DistributionResult) -> bool:
    return (
        a.counts == b.counts
        and a.makespan == b.makespan
        and a.makespan_exact == b.makespan_exact
        and a.algorithm == b.algorithm
    )


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def shuffled_cycle(rng: random.Random, pool: Sequence[Any]) -> Iterator[Any]:
    """Endless shuffled passes over ``pool``.

    Every pass draws each element exactly once, so the share of each kind
    of input in a run is fixed rather than left to sampling noise; only
    the order is random.
    """
    pool = list(pool)
    while True:
        rng.shuffle(pool)
        yield from pool


def _mix(labels: Sequence[str]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for label in labels:
        out[label] = out.get(label, 0) + 1
    return {k: v / len(labels) for k, v in sorted(out.items())}


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.tiny = tiny

    def after(self, state: Any) -> None:
        pass

    def close(self, state: Any) -> None:
        pass


# ---------------------------------------------------------------------------
# serve-hot: the JSONL front door with a hot plan cache
# ---------------------------------------------------------------------------

#: Fixed (kind, p) of each working-set slot.  A perturbation keeps its
#: slot's kind and p, so the cost mix of hits and misses is the same for
#: every seed; only coefficients and n vary.  The costliest misses (LP at
#: p=12) are a quarter of all misses, so p99 falls inside that group
#: rather than on the edge between two groups.
HOT_SLOTS = (
    [("table1", 16)] * 16
    + [("linear", p) for p in (4, 8, 12, 16, 20, 24, 28, 32) * 2]
    + [("affine", p) for p in (4, 6, 8, 10) + (12,) * 12]
)
#: Per 25 requests: 23 repeats, 2 perturbations (8% misses).
HOT_KINDS = ["repeat"] * 23 + ["perturb"] * 2


class HotInputs:
    """Closed-loop JSONL request stream over a sliding working set."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"serve-hot:{seed}")
        self.bodies = [self._fresh(kind, p) for kind, p in HOT_SLOTS]
        self.kinds = shuffled_cycle(self.rng, HOT_KINDS)
        self.repeat_slots = shuffled_cycle(self.rng, range(len(HOT_SLOTS)))
        self.perturb_slots = shuffled_cycle(self.rng, range(len(HOT_SLOTS)))
        self.next_id = 0
        self.warmup = [self._line(body)[0] for body in self.bodies]

    def _n(self) -> int:
        return self.rng.randint(1_000, 1_000_000)

    def _fresh(self, kind: str, p: int) -> Dict[str, Any]:
        rng = self.rng
        if kind == "table1":
            return {"n": self._n(), "platform": "table1"}
        procs = []
        for i in range(p):
            entry: Dict[str, Any] = {
                "name": f"P{i + 1}" if i < p - 1 else "root",
                "alpha": round(rng.uniform(1e-3, 2e-2), 6),
                "beta": round(rng.uniform(1e-6, 1e-4), 9) if i < p - 1 else 0,
            }
            if kind == "affine":
                entry["comp_intercept"] = round(rng.uniform(0.0, 0.5), 4)
                if i < p - 1:
                    entry["comm_intercept"] = round(rng.uniform(0.0, 0.1), 4)
            procs.append(entry)
        return {"n": self._n(), "processors": procs}

    def _perturb(self, body: Dict[str, Any]) -> Dict[str, Any]:
        rng = self.rng
        if "processors" not in body:
            return {"n": self._n(), "platform": "table1"}
        procs = [dict(entry) for entry in body["processors"]]
        entry = procs[rng.randrange(len(procs))]
        coef = rng.choice(sorted(k for k, v in entry.items() if k != "name" and v))
        entry[coef] = round(entry[coef] * rng.uniform(0.9, 1.1), 9)
        return {"n": body["n"], "processors": procs}

    def _line(self, body: Dict[str, Any]) -> Tuple[str, str]:
        self.next_id += 1
        line = json.dumps({"id": self.next_id, **body})
        return line, json.dumps(body, sort_keys=True)

    def __iter__(self) -> Iterator[Tuple[str, str, str]]:
        return self

    def __next__(self) -> Tuple[str, str, str]:
        kind = next(self.kinds)
        if kind == "repeat":
            slot = next(self.repeat_slots)
        else:
            slot = next(self.perturb_slots)
            self.bodies[slot] = self._perturb(self.bodies[slot])
        return (*self._line(self.bodies[slot]), kind)


class ServeHot(Workload):
    name = "serve-hot"
    why = (
        "JSONL front door, 92% repeat requests over a 48-request working set: "
        "cache hits set p50, closed-form/LP misses set p99; no DP kernel runs"
    )
    #: Distinct requests re-solved cold and compared to the served plan.
    SAMPLE = 40

    def inputs(self) -> HotInputs:
        return HotInputs(self.seed)

    def setup(self, inputs: HotInputs) -> PlanService:
        service = PlanService()
        for _ in serve_jsonl(inputs.warmup, service, window=1):
            pass
        return service

    def call(self, service: PlanService, item: Tuple[str, str, str], span: Span) -> Any:
        with span("serve.jsonl.loop"):
            (response,) = serve_jsonl((item[0],), service, window=1)
        with span("serve.jsonl.encode"):
            json.dumps(response, sort_keys=True)
        return response

    def close(self, service: PlanService) -> None:
        service.close()

    def check(self, service: PlanService, records: List[Record]) -> Tuple[List[bool], Dict]:
        verdicts: Dict[Tuple, bool] = {}
        problems: Dict[str, ScatterProblem] = {}
        ok: List[bool] = []
        for (line, body, _), resp, err in records:
            if err is not None or not resp.get("ok"):
                ok.append(False)
                continue
            key = (body, tuple(resp["counts"]), resp["makespan"], resp["algorithm"])
            if key not in verdicts:
                if body not in problems:
                    problems[body] = apply_policy(parse_request(line)[1], "bandwidth-desc")
                try:
                    result = DistributionResult(
                        problem=problems[body], counts=key[1],
                        makespan=key[2], algorithm=key[3],
                    )
                    verdicts[key] = _oracles_pass(result)
                except ValueError:
                    verdicts[key] = False
            ok.append(verdicts[key])
        served = {k[0]: k for k in verdicts}
        rng = random.Random(f"serve-hot-sample:{self.seed}")
        for body in rng.sample(sorted(served), min(self.SAMPLE, len(served))):
            _, counts, makespan, algorithm = served[body]
            hot = service.submit(problems[body]).result()
            cold = solver.plan_scatter(problems[body])
            if not (_same_plan(hot, cold) and (counts, makespan, algorithm)
                    == (hot.counts, hot.makespan, hot.algorithm)):
                ok = [False] * len(ok)
        responses = [r for _, r, e in records if e is None and r.get("ok")]
        props = {
            "working_set": len(HOT_SLOTS),
            "kind_mix": _mix([item[2] for item, _, _ in records]),
            "cached_share": _share(sum(r["cached"] for r in responses), len(responses)),
            "route_mix": _mix([r["algorithm"].split("[")[0] for r in responses]),
            "miss_route_mix": _mix([r["algorithm"].split("[")[0]
                                    for r in responses if not r["cached"]] or ["none"]),
        }
        return ok, props


# ---------------------------------------------------------------------------
# serve-knee-churn: PlanService over a drifting piecewise-linear platform
# ---------------------------------------------------------------------------

#: Per 50 requests: 5 repeats, 1 brand-new platform, 44 compute drifts.
KNEE_KINDS = ["repeat"] * 5 + ["new"] + ["churn"] * 44


def knee_problem(rng: random.Random, p: int, n: int) -> ScatterProblem:
    """Increasing piecewise-linear costs with one bandwidth knee each."""

    def knee() -> PiecewiseLinearCost:
        x1 = rng.randint(1, max(1, n // 3))
        r1 = rng.uniform(1e-6, 5e-5)
        r2 = rng.uniform(1e-6, 5e-5)
        return PiecewiseLinearCost([(0, 0), (x1, r1 * x1), (n, r1 * x1 + r2 * (n - x1))])

    procs = [Processor(f"P{i + 1}", knee(), knee()) for i in range(p - 1)]
    procs.append(Processor(f"P{p}", ZeroCost(), knee()))
    return ScatterProblem(procs, n)


class KneeInputs:
    """Repeats, brand-new platforms, and single-processor compute drift."""

    def __init__(self, seed: int, p: int, n: int) -> None:
        self.rng = random.Random(f"serve-knee-churn:{seed}")
        self.p, self.n = p, n
        self.current = knee_problem(self.rng, p, n)
        self.warmup = [self.current]
        self.kinds = shuffled_cycle(self.rng, KNEE_KINDS)
        self.drifting = shuffled_cycle(self.rng, range(p))

    def __iter__(self) -> Iterator[Tuple[ScatterProblem, str]]:
        return self

    def __next__(self) -> Tuple[ScatterProblem, str]:
        kind = next(self.kinds)
        if kind == "new":
            self.current = knee_problem(self.rng, self.p, self.n)
        elif kind == "churn":
            procs = list(self.current.processors)
            j = next(self.drifting)
            factor = Fraction(1000 + self.rng.randint(1, 50), 1000)
            procs[j] = Processor(procs[j].name, procs[j].comm, scale_cost(procs[j].comp, factor))
            self.current = ScatterProblem(procs, self.n)
        return self.current, kind


class ServeKneeChurn(Workload):
    name = "serve-knee-churn"
    why = (
        "PlanService.submit on drifting piecewise-linear platforms: dp_fast "
        "general rows and the incremental warm start dominate"
    )
    SAMPLE = 6

    @property
    def size(self) -> Dict[str, Any]:
        return {"p": 8, "n": 400 if self.tiny else 4_000}

    def inputs(self) -> KneeInputs:
        return KneeInputs(self.seed, **self.size)

    def setup(self, inputs: KneeInputs) -> Tuple[PlanService, Dict[str, int]]:
        service = PlanService()
        for problem in inputs.warmup:
            service.submit(problem).result()
        return service, service.planner.stats()

    def call(self, state: Tuple[PlanService, Dict[str, int]],
             item: Tuple[ScatterProblem, str], span: Span) -> Any:
        return state[0].submit(item[0]).result()

    def close(self, state: Tuple[PlanService, Dict[str, int]]) -> None:
        state[0].close()

    def check(self, state: Tuple[PlanService, Dict[str, int]],
              records: List[Record]) -> Tuple[List[bool], Dict]:
        service, before = state
        planner = {k: v - before[k] for k, v in service.planner.stats().items()}
        ok = [err is None and _oracles_pass(res) for _, res, err in records]
        distinct = {id(item[0]): item[0] for item, _, _ in records}
        rng = random.Random(f"serve-knee-churn-sample:{self.seed}")
        served = {id(item[0]): res for item, res, err in records if err is None}
        for key in rng.sample(sorted(served), min(self.SAMPLE, len(served))):
            if not _same_plan(served[key], solver.plan_scatter(distinct[key])):
                ok = [False] * len(ok)
        rows = planner["rows_reused"] + planner["rows_computed"]
        props = {
            **self.size,
            "kind_mix": _mix([item[1] for item, _, _ in records]),
            "cached_share": _share(
                sum(res.info["serve"]["cached"] for _, res, err in records if err is None),
                len(records)),
            "route_mix": _mix([res.algorithm for _, res, err in records if err is None]),
            "warm_plan_share": _share(planner["warm_plans"], planner["plans"]),
            "rows_recomputed_share": _share(planner["rows_computed"], rows),
        }
        return ok, props


# ---------------------------------------------------------------------------
# cold-1e6: one cold exact solve per op at n = 10^6
# ---------------------------------------------------------------------------

class ColdInputs:
    """Fresh random-affine platforms; new cost values, so every table misses."""

    def __init__(self, seed: int, p: int, n: int) -> None:
        self.rng = random.Random(f"cold-1e6:{seed}")
        self.p, self.n = p, n
        self.warmup = [next(self)]

    def __iter__(self) -> Iterator[ScatterProblem]:
        return self

    def __next__(self) -> ScatterProblem:
        return random_affine_problem(self.rng, self.p, self.n)


class Cold1e6(Workload):
    name = "cold-1e6"
    why = (
        "cold dp-fast solve at n=10^6 on fresh affine costs: table building, "
        "affine rows and memory dominate; no serve layer runs"
    )

    @property
    def size(self) -> Dict[str, Any]:
        return {"p": 16, "n": 20_000 if self.tiny else 1_000_000}

    def inputs(self) -> ColdInputs:
        return ColdInputs(self.seed, **self.size)

    def setup(self, inputs: ColdInputs) -> None:
        for problem in inputs.warmup:
            solver.plan_scatter(problem, algorithm="dp-fast")
        self.after(None)

    def call(self, state: None, problem: ScatterProblem, span: Span) -> Any:
        return solver.plan_scatter(problem, algorithm="dp-fast")

    def after(self, state: None) -> None:
        # Each op stands for a fresh request: drop the tables it built.
        get_default_cost_cache().clear()

    def check(self, state: None, records: List[Record]) -> Tuple[List[bool], Dict]:
        ok = []
        for problem, res, err in records:
            if err is not None or not _oracles_pass(res):
                ok.append(False)
                continue
            lp = solver.plan_scatter(problem, algorithm="lp-heuristic")
            ok.append(res.makespan <= lp.makespan * (1 + 1e-12))
        get_default_cost_cache().clear()
        done = [res for _, res, err in records if err is None]
        props = {
            **self.size,
            "route_mix": _mix([res.algorithm for res in done]),
            "rows_affine_share": _share(
                sum(res.info["rows_affine"] for res in done),
                sum(res.info["rows_affine"] + res.info["rows_general_scan"] for res in done)),
        }
        return ok, props


# ---------------------------------------------------------------------------
# sim-chaos: simulated fault-tolerant scatter sweeps on Table 1
# ---------------------------------------------------------------------------

CHAOS_RATES = (0.0, 0.1, 0.25, 0.5, 0.75)
CHAOS_FAULT_SEEDS = 16


class ChaosInputs:
    """Cycles through a seeded set of fault seeds."""

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"sim-chaos:{seed}")
        self.fault_seeds = [rng.randrange(2**31) for _ in range(CHAOS_FAULT_SEEDS)]
        self.warmup = self.fault_seeds[:1]
        self.i = 0

    def __iter__(self) -> Iterator[int]:
        return self

    def __next__(self) -> int:
        seed = self.fault_seeds[self.i % len(self.fault_seeds)]
        self.i += 1
        return seed


class SimChaos(Workload):
    name = "sim-chaos"
    why = (
        "chaos sweep on the simulated Table 1 grid: the simgrid engine, "
        "ft_scatterv re-plans and the event bus do two thirds of the work, "
        "planning the rest"
    )

    @property
    def size(self) -> Dict[str, Any]:
        return {"n": 2_000 if self.tiny else 20_000, "rates": list(CHAOS_RATES)}

    def inputs(self) -> ChaosInputs:
        return ChaosInputs(self.seed)

    def setup(self, inputs: ChaosInputs) -> Tuple[Any, List[str]]:
        state = (table1_platform(), table1_rank_hosts("bandwidth-desc"))
        for fault_seed in inputs.warmup:
            self.call(state, fault_seed, NULL_SPAN)
        return state

    def call(self, state: Tuple[Any, List[str]], fault_seed: int, span: Span) -> Any:
        platform, hosts = state
        with span("sim.sweep"):
            return chaos.chaos_sweep(
                platform, hosts, self.size["n"], CHAOS_RATES, seed=fault_seed
            )

    def check(self, state: Tuple[Any, List[str]], records: List[Record]) -> Tuple[List[bool], Dict]:
        n = self.size["n"]
        reference: Dict[int, dict] = {}
        ok = []
        for fault_seed, sweep, err in records:
            if err is not None:
                ok.append(False)
                continue
            if fault_seed not in reference:
                reference[fault_seed] = self.call(state, fault_seed, NULL_SPAN).to_dict()
            ok.append(
                sweep.to_dict() == reference[fault_seed]
                and all(pt.computed_items + pt.lost_items == n for pt in sweep.points)
            )
        done = [sweep for _, sweep, err in records if err is None]
        props = {
            **self.size,
            "fault_seeds": len(reference),
            "replans_per_sweep": _share(sum(pt.replans for s in done for pt in s.points), len(done)),
            "dead_per_sweep": _share(sum(pt.dead for s in done for pt in s.points), len(done)),
        }
        return ok, props


WORKLOADS: Dict[str, type] = {
    w.name: w for w in (ServeHot, ServeKneeChurn, Cold1e6, SimChaos)
}

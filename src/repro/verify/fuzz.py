"""Differential fuzzer: seeded instances, every solver, every oracle.

The fuzzer draws scatter instances from a family of seeded generators —
linear/affine (the paper's calibrated models), adversarial linear shapes
(Theorem 2 drop-forcing betas, ties, free processors), stepwise
piecewise-linear bandwidth knees (and, on request, many-piece knees at
``n`` up to 2,000), rough tabulated costs (monotone and
general), and degenerate edges (``p = 1``, ``n = 0``, ``n < p``,
zero-latency) — and runs them through one seed loop, :func:`fuzz`, whose
mode (:data:`MODES`) solves each instance and picks the oracles that
judge it.  ``oracles`` runs **every applicable solver**
(:func:`repro.verify.oracles.solve_all`) through the whole registry.
``incremental`` drives an :class:`~repro.core.incremental.IncrementalPlanner`
through seeded churn (kills / exact cost perturbations / workload
resizes) and requires every warm re-plan to byte-match a cold solve.
``tree`` solves flat and tree-aware
(:func:`~repro.core.trees.plan_scatter_tree`) and requires the tree
schedule to *dominate* the flat one (the candidate family contains the
flat schedule, so a regression is a planner bug).  In any mode,
``guided=True`` biases the shapes toward the least-checked oracle.

In every mode a solver crash is a finding, and a failing instance is
*shrunk* to a minimal counterexample — drop processors, then reduce
``n``, then simplify coefficient magnitudes — while it still fails one
of the oracle ids that failed; the counterexample reports every
violation of the mode's oracle set on the shrunk instance.

The harness checks itself: :func:`mutation_smoke_check` runs a private
mode that plants a known off-by-one in a copy of the §3.3 rounding scheme
(all leftover units dumped on the first processor, breaking the
``|n'_i − n_i| < 1`` hypothesis of Eq. 4) and asserts the oracles flag it
with a counterexample shrunk to ``p <= 3``, ``n <= 20``.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Any, Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from ..core.costs import (
    AffineCost,
    CostFunction,
    LinearCost,
    PiecewiseLinearCost,
    TabulatedCost,
    ZeroCost,
    scale_cost,
)
from ..core.distribution import DistributionResult, Processor, ScatterProblem
from ..core.heuristic import solve_lp_rational
from ..core.incremental import IncrementalPlanner
from ..core.solver import plan_scatter
from ..workloads.generators import (
    random_affine_problem,
    random_linear_problem,
    random_tabulated_problem,
)
from .oracles import (
    incremental_schedule,
    oracle_ids,
    run_oracles,
    solve_all,
    solve_warm_and_cold,
)

__all__ = [
    "SHAPES",
    "SHAPE_SCHEDULE",
    "MODES",
    "Counterexample",
    "FuzzStats",
    "FuzzOutcome",
    "MutationCheckResult",
    "generate_instance",
    "fuzz",
    "shrink",
    "mutation_smoke_check",
    "problem_to_dict",
    "problem_from_dict",
]

#: Instance families the fuzzer knows how to draw.
SHAPES = (
    "linear",
    "affine",
    "adversarial",
    "stepwise",
    "tabulated-monotone",
    "tabulated-general",
    "degenerate",
    "knee",
)

#: Seed-indexed rotation (``knee`` runs only when asked for: adding it
#: here would change every default run's instance stream).  Linear-family shapes are over-weighted so the
#: Theorem 1/2/3 oracles (linear-only) see enough instances per run; the
#: affine family (which includes every linear shape) feeds Eq. 4.
SHAPE_SCHEDULE = (
    "linear",
    "affine",
    "adversarial",
    "linear",
    "stepwise",
    "tabulated-monotone",
    "affine",
    "linear",
    "tabulated-general",
    "degenerate",
)

#: Algorithm-1-family size gate during fuzzing (the plain DP is O(p·n²)
#: interpreted Python; larger instances keep the sub-quadratic kernels).
FUZZ_MAX_DP_N = 150


def _instance_rng(base_seed: int, seed: int) -> random.Random:
    """Independent per-seed stream (splitmix-style mixing)."""
    return random.Random(((base_seed * 0x9E3779B1) ^ (seed * 0x85EBCA6B)) & 0xFFFFFFFF)


def generate_instance(shape: str, rng: random.Random) -> ScatterProblem:
    """Draw one instance of the given shape from ``rng``."""
    if shape == "linear":
        p = rng.randint(2, 8)
        n = rng.randint(1, 2_000) if rng.random() < 0.15 else rng.randint(1, 120)
        return random_linear_problem(rng, p, n)
    if shape == "affine":
        p = rng.randint(2, 8)
        n = rng.randint(1, 100)
        return random_affine_problem(rng, p, n)
    if shape == "adversarial":
        return _adversarial_linear(rng)
    if shape == "stepwise":
        return _stepwise_problem(rng)
    if shape == "tabulated-monotone":
        return random_tabulated_problem(rng, rng.randint(2, 6), rng.randint(1, 50))
    if shape == "tabulated-general":
        return random_tabulated_problem(
            rng, rng.randint(2, 6), rng.randint(1, 50), monotone=False
        )
    if shape == "degenerate":
        return _degenerate_problem(rng)
    if shape == "knee":
        return _knee_problem(rng)
    raise ValueError(f"unknown instance shape {shape!r}; know {SHAPES}")


def _adversarial_linear(rng: random.Random) -> ScatterProblem:
    """Linear instances stressing the closed form's edge cases.

    Features drawn per instance: a drop-forcing huge-β processor (makes
    Theorem 2's filter bite), exact β ties (rounding/ordering tie-breaks),
    zero-latency links (β = 0 for non-roots), extreme heterogeneity
    spreads, and the occasional free processor (α = β = 0, the D = 0
    degenerate chain).
    """
    p = rng.randint(2, 7)
    n = rng.randint(1, 80)
    spread = rng.choice([1.0, 1e3, 1e6])
    tie_beta = rng.random() < 0.4
    base_beta = rng.uniform(1e-5, 1e-3)
    procs: List[Processor] = []
    for i in range(p - 1):
        alpha = rng.uniform(1e-4, 1e-1) * (spread if rng.random() < 0.3 else 1.0)
        if tie_beta:
            beta = base_beta
        elif rng.random() < 0.25:
            beta = 0.0  # zero-latency link
        else:
            beta = rng.uniform(1e-6, 1e-2)
        if rng.random() < 0.3:
            beta = rng.uniform(10.0, 100.0)  # drop-forcing: β >> any D
        procs.append(Processor.linear(f"P{i + 1}", alpha=alpha, beta=beta))
    if rng.random() < 0.1:
        # A free processor somewhere before the root (α = β = 0).
        procs[rng.randrange(len(procs))] = Processor.linear("free", alpha=0.0, beta=0.0)
    procs.append(Processor.linear(f"P{p}", alpha=rng.uniform(1e-4, 1e-1), beta=0.0))
    return ScatterProblem(procs, n)


def _stepwise_problem(rng: random.Random) -> ScatterProblem:
    """Increasing piecewise-linear costs (bandwidth knees, TCP slow start)."""
    p = rng.randint(2, 6)
    n = rng.randint(2, 80)

    def knee() -> PiecewiseLinearCost:
        x1 = rng.randint(1, max(1, n // 2))
        r1 = rng.uniform(1e-4, 5e-2)
        r2 = rng.uniform(1e-4, 5e-2)
        return PiecewiseLinearCost([(0, 0), (x1, r1 * x1), (n, r1 * x1 + r2 * (n - x1))])

    procs = []
    for i in range(p - 1):
        procs.append(Processor(f"P{i + 1}", knee(), knee()))
    procs.append(Processor(f"P{p}", ZeroCost(), knee()))
    return ScatterProblem(procs, n)


def _knee_problem(rng: random.Random) -> ScatterProblem:
    """Many-piece bandwidth knees at the sizes dp-fast's windows see.

    Each cost has 1–5 increasing pieces with exact quarter-integer
    breakpoints (several between integers), some flat pieces, a last
    breakpoint short of ``n`` (extrapolated) or past it, and now and
    then a single knee at ``x <= 3``.  ``n`` runs to 2,000, past
    ``FUZZ_MAX_DP_N``, so the kernel's narrow prefix and block walk both
    run; dp-monotone's general scan is the cross-check there.
    """
    p = rng.randint(2, 8)
    n = rng.randint(2, 2_000)

    def knee() -> PiecewiseLinearCost:
        if rng.random() < 0.2:
            inner = [Fraction(rng.randint(1, 3))]
        else:
            pieces = rng.randint(1, 5)
            inner = sorted({Fraction(rng.randint(1, 4 * n), 4) for _ in range(pieces - 1)})
        last = Fraction(rng.randint(max(1, n // 2), 2 * n))
        xs = [Fraction(0)] + [x for x in inner if x < last] + [last]
        points, t = [(xs[0], Fraction(0))], Fraction(0)
        for a, b in zip(xs, xs[1:]):
            slope = 0.0 if rng.random() < 0.15 else rng.uniform(1e-6, 5e-5)
            t += Fraction(slope) * (b - a)
            points.append((b, t))
        return PiecewiseLinearCost(points)

    procs = [Processor(f"P{i + 1}", knee(), knee()) for i in range(p - 1)]
    procs.append(Processor(f"P{p}", ZeroCost(), knee()))
    return ScatterProblem(procs, n)


def _degenerate_problem(rng: random.Random) -> ScatterProblem:
    """Edge-of-domain instances (p = 1, n = 0, n < p, identical, free links)."""
    variant = rng.choice(
        ["root-only", "n-zero", "n-one", "n-lt-p", "identical", "zero-latency"]
    )
    if variant == "root-only":
        return ScatterProblem(
            [Processor.linear("root", alpha=rng.uniform(1e-3, 1e-1), beta=0.0)],
            rng.randint(0, 30),
        )
    if variant == "n-zero":
        return random_linear_problem(rng, rng.randint(1, 6), 0)
    if variant == "n-one":
        return random_linear_problem(rng, rng.randint(1, 6), 1)
    if variant == "n-lt-p":
        p = rng.randint(3, 8)
        return random_linear_problem(rng, p, rng.randint(1, p - 1))
    if variant == "identical":
        p = rng.randint(2, 8)
        alpha, beta = rng.uniform(1e-3, 1e-1), rng.uniform(1e-5, 1e-3)
        procs = [Processor.linear(f"P{i + 1}", alpha=alpha, beta=beta) for i in range(p - 1)]
        procs.append(Processor.linear(f"P{p}", alpha=alpha, beta=0.0))
        return ScatterProblem(procs, rng.randint(1, 60))
    # zero-latency: every link free, computation decides everything.
    p = rng.randint(2, 8)
    procs = [
        Processor.linear(f"P{i + 1}", alpha=rng.uniform(1e-3, 1e-1), beta=0.0)
        for i in range(p)
    ]
    return ScatterProblem(procs, rng.randint(1, 60))


# ---------------------------------------------------------------------------
# Instance (de)serialization — counterexamples must survive as artifacts.
# ---------------------------------------------------------------------------

def cost_to_dict(fn: CostFunction) -> Dict[str, Any]:
    """JSON-compatible description of an analytic/tabulated cost."""
    if isinstance(fn, ZeroCost):
        return {"kind": "zero"}
    if isinstance(fn, LinearCost):
        return {"kind": "linear", "rate": str(fn.rate)}
    if isinstance(fn, AffineCost):
        return {
            "kind": "affine",
            "rate": str(fn.rate),
            "intercept": str(fn.intercept),
            "zero_is_free": fn.zero_is_free,
        }
    if isinstance(fn, TabulatedCost):
        return {"kind": "tabulated", "values": [str(fn.exact(x)) for x in range(len(fn))]}
    if isinstance(fn, PiecewiseLinearCost):
        return {
            "kind": "piecewise",
            "breakpoints": [[str(x), str(t)] for x, t in zip(fn._xs, fn._ts)],
        }
    raise ValueError(f"cannot serialize cost function {fn!r}")


def cost_from_dict(doc: Dict[str, Any]) -> CostFunction:
    """Inverse of :func:`cost_to_dict`."""
    kind = doc["kind"]
    if kind == "zero":
        return ZeroCost()
    if kind == "linear":
        return LinearCost(Fraction(doc["rate"]))
    if kind == "affine":
        return AffineCost(
            Fraction(doc["rate"]),
            Fraction(doc["intercept"]),
            zero_is_free=doc.get("zero_is_free", True),
        )
    if kind == "tabulated":
        return TabulatedCost([Fraction(v) for v in doc["values"]])
    if kind == "piecewise":
        return PiecewiseLinearCost(
            [(Fraction(x), Fraction(t)) for x, t in doc["breakpoints"]]
        )
    raise ValueError(f"unknown cost kind {kind!r}")


def problem_to_dict(problem: ScatterProblem) -> Dict[str, Any]:
    """JSON-compatible description of an instance (for artifacts)."""
    return {
        "n": problem.n,
        "processors": [
            {
                "name": proc.name,
                "comm": cost_to_dict(proc.comm),
                "comp": cost_to_dict(proc.comp),
            }
            for proc in problem.processors
        ],
    }


def problem_from_dict(doc: Dict[str, Any]) -> ScatterProblem:
    """Inverse of :func:`problem_to_dict`."""
    procs = [
        Processor(
            entry["name"], cost_from_dict(entry["comm"]), cost_from_dict(entry["comp"])
        )
        for entry in doc["processors"]
    ]
    return ScatterProblem(procs, int(doc["n"]))


# ---------------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------------

def shrink(
    problem: ScatterProblem,
    fails: Callable[[ScatterProblem], bool],
    *,
    max_evals: int = 250,
) -> ScatterProblem:
    """Greedy minimal counterexample: fewer processors, smaller n, simpler
    coefficients — in that order, re-checking ``fails`` at every step.

    ``fails`` must return True while the candidate still exhibits the
    failure; a candidate on which ``fails`` *raises* counts as failing
    (crashes are findings too).  The search is bounded by ``max_evals``
    predicate evaluations, so shrinking always terminates quickly.
    """
    budget = [max_evals]

    def still_fails(candidate: ScatterProblem) -> bool:
        if budget[0] <= 0:
            return False
        budget[0] -= 1
        try:
            return bool(fails(candidate))
        except Exception:  # noqa: BLE001 — crashing counts as failing
            return True

    current = problem

    # Phase 1: drop non-root processors (restart after every success so
    # earlier drops re-enable later ones).
    changed = True
    while changed and current.p > 1:
        changed = False
        for i in range(current.p - 1):
            procs = current.processors[:i] + current.processors[i + 1 :]
            candidate = ScatterProblem(procs, current.n)
            if still_fails(candidate):
                current = candidate
                changed = True
                break

    # Phase 2: reduce n (halve aggressively, then decrement).
    while current.n > 0:
        half = ScatterProblem(current.processors, current.n // 2)
        if still_fails(half):
            current = half
            continue
        dec = ScatterProblem(current.processors, current.n - 1)
        if still_fails(dec):
            current = dec
            continue
        break

    # Phase 3: simplify analytic coefficients (shorter fractions, dropped
    # intercepts) one cost at a time.
    current = _simplify_costs(current, still_fails)
    return current


def _simpler_costs(fn: CostFunction) -> List[CostFunction]:
    """Candidate replacements for one cost, most aggressive first."""
    candidates: List[CostFunction] = []
    if isinstance(fn, ZeroCost):
        return candidates
    if isinstance(fn, LinearCost):
        if fn.rate != 0:
            candidates.append(ZeroCost())
            for denom in (1, 2, 10):
                simpler = fn.rate.limit_denominator(denom)
                if simpler != fn.rate and simpler >= 0:
                    candidates.append(LinearCost(simpler))
        return candidates
    if isinstance(fn, AffineCost):
        if fn.intercept != 0:
            candidates.append(LinearCost(fn.rate))
        for denom in (1, 2, 10):
            rate = fn.rate.limit_denominator(denom)
            icpt = fn.intercept.limit_denominator(denom)
            if (rate, icpt) != (fn.rate, fn.intercept):
                candidates.append(AffineCost(rate, icpt))
        return candidates
    return candidates  # tabulated/piecewise: structure is the instance


def _simplify_costs(
    problem: ScatterProblem, still_fails: Callable[[ScatterProblem], bool]
) -> ScatterProblem:
    current = problem
    for i in range(current.p):
        for attr in ("comm", "comp"):
            proc = current.processors[i]
            for candidate_fn in _simpler_costs(getattr(proc, attr)):
                replacement = Processor(
                    proc.name,
                    candidate_fn if attr == "comm" else proc.comm,
                    candidate_fn if attr == "comp" else proc.comp,
                )
                procs = (
                    current.processors[:i]
                    + (replacement,)
                    + current.processors[i + 1 :]
                )
                candidate = ScatterProblem(procs, current.n)
                if still_fails(candidate):
                    current = candidate
                    break  # keep the most aggressive surviving candidate
    return current


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

#: ``(oracle_id, message)`` pairs; a solver that raised is ``solver-crash``.
Findings = List[Tuple[str, str]]


@dataclass(frozen=True)
class Counterexample:
    """A failing instance, shrunk, ready for an artifact file."""

    seed: int
    shape: str
    violations: Tuple[Tuple[str, str], ...]  #: (oracle_id, message) pairs
    problem: Dict[str, Any]  #: shrunk instance, `problem_to_dict` form
    original_p: int
    original_n: int
    shrunk_p: int
    shrunk_n: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "shape": self.shape,
            "violations": [list(v) for v in self.violations],
            "problem": self.problem,
            "original": {"p": self.original_p, "n": self.original_n},
            "shrunk": {"p": self.shrunk_p, "n": self.shrunk_n},
        }


@dataclass
class FuzzStats:
    """Aggregate counts of one fuzz run."""

    instances: int = 0
    solver_runs: int = 0
    shapes: Counter[str] = field(default_factory=Counter)
    #: Per-oracle count of checks in which the oracle actually applied
    #: (one per instance, or one per churn step in a churn mode).
    oracle_checked: Counter[str] = field(default_factory=Counter)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "instances": self.instances,
            "solver_runs": self.solver_runs,
            "shapes": dict(sorted(self.shapes.items())),
            "oracle_checked": dict(sorted(self.oracle_checked.items())),
        }


@dataclass(frozen=True)
class FuzzOutcome:
    """Result of :func:`fuzz`: statistics plus shrunk counterexamples."""

    stats: FuzzStats
    counterexamples: Tuple[Counterexample, ...]

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "stats": self.stats.to_dict(),
            "counterexamples": [ce.to_dict() for ce in self.counterexamples],
        }


#: Exploration rate of the coverage-guided shape selector (``guided=True``).
GUIDED_EPSILON = 0.2


def _guided_shape(
    rng: random.Random,
    candidates: Sequence[str],
    oracles: Sequence[str],
    stats: FuzzStats,
    affinity: Counter[Tuple[str, str]],
) -> str:
    """Pick the next shape, biased toward the run's least-checked oracle.

    The coverage signal is ``stats.oracle_checked`` (how often each oracle
    actually *applied*); ``affinity`` is the online estimate of how likely
    each shape is to make a given oracle applicable.  ε-greedy: with
    probability :data:`GUIDED_EPSILON` (or while a shape is still
    unexplored) the selector draws uniformly, otherwise it exploits the
    first shape with the highest observed affinity for the coverage hole.
    Deterministic given the seeded ``rng``.
    """
    for shape in candidates:
        if stats.shapes[shape] == 0:
            return shape  # explore every shape at least once
    if rng.random() < GUIDED_EPSILON:
        return candidates[rng.randrange(len(candidates))]
    # The least-checked oracle is the coverage hole to chase (ties break
    # by id, so the target — hence the run — is deterministic).
    target = min(oracles, key=lambda oid: (stats.oracle_checked[oid], oid))
    return max(candidates, key=lambda shape: affinity[(shape, target)] / stats.shapes[shape])


# ---------------------------------------------------------------------------
# Churn schedules (kill / perturb / resize) for the incremental mode
# ---------------------------------------------------------------------------

#: Churn events a churn mode draws between re-plans.
INCREMENTAL_OPS = ("kill", "perturb", "shrink-n", "grow-n")

#: Churn events drawn per seed after the seed instance itself.
CHURN_OPS = 5

#: Exact link/CPU speed factors for the ``perturb`` event.
_PERTURB_FACTORS = (Fraction(1, 2), Fraction(3, 4), Fraction(9, 8), Fraction(2))


def _mutate_problem(
    problem: ScatterProblem, orig_n: int, rng: random.Random
) -> Tuple[str, ScatterProblem]:
    """One validity-preserving churn event.

    ``kill`` removes a random non-root processor (the root — last by the
    §2 convention — always survives), ``perturb`` rescales one processor's
    comm or comp cost by an exact factor (a new cost object, so the
    planner must rebuild the affected rows), ``shrink-n``/``grow-n``
    resize the workload.  Growth is capped at the seed instance's original
    ``n`` so tabulated/piecewise costs never leave their defined domain.
    """
    ops = list(INCREMENTAL_OPS)
    if problem.p < 2:
        ops.remove("kill")
    if problem.n < 2:
        ops.remove("shrink-n")
    if problem.n >= orig_n:
        ops.remove("grow-n")
    op = ops[rng.randrange(len(ops))]
    if op == "kill":
        victim = rng.randrange(problem.p - 1)
        procs = problem.processors[:victim] + problem.processors[victim + 1 :]
        return op, ScatterProblem(procs, problem.n)
    if op == "perturb":
        idx = rng.randrange(problem.p)
        proc = problem.processors[idx]
        factor = _PERTURB_FACTORS[rng.randrange(len(_PERTURB_FACTORS))]
        if rng.random() < 0.5:
            replacement = Processor(proc.name, scale_cost(proc.comm, factor), proc.comp)
        else:
            replacement = Processor(proc.name, proc.comm, scale_cost(proc.comp, factor))
        procs = problem.processors[:idx] + (replacement,) + problem.processors[idx + 1 :]
        return op, ScatterProblem(procs, problem.n)
    if op == "shrink-n":
        return op, ScatterProblem(problem.processors, max(1, problem.n // 2))
    grown = min(orig_n, problem.n + rng.randint(1, max(1, problem.n // 2 + 1)))
    return op, ScatterProblem(problem.processors, grown)


# ---------------------------------------------------------------------------
# Modes: how one instance is solved, and which oracles judge it
# ---------------------------------------------------------------------------

#: One solve: the results plus the mode's own findings (crashes and its
#: extra predicate), or None when the step has nothing to compare.
Solved = Optional[Tuple[Dict[str, DistributionResult], Findings]]


def _solve_every_solver(problem: ScatterProblem) -> Solved:
    results, crashes = solve_all(problem, max_dp_n=FUZZ_MAX_DP_N)
    return results, [("solver-crash", f"{algo}: {msg}") for algo, msg in crashes.items()]


def _solve_flat_and_tree(problem: ScatterProblem) -> Solved:
    results: Dict[str, DistributionResult] = {}
    findings: Findings = []
    for topology in ("flat", "tree"):
        try:
            results[topology] = plan_scatter(problem, topology=topology, order_policy=None)
        except Exception as exc:  # noqa: BLE001 — any crash is the finding
            findings.append(("solver-crash", f"{topology}: {type(exc).__name__}: {exc}"))
    if len(results) == 2:
        # Dominance by construction: the tree planner's candidate family
        # contains the flat schedule, so its exact makespan can never
        # exceed the flat one.  (order_policy=None keeps the processor
        # order, so both results live on `problem` itself.)
        flat_exact = problem.makespan_exact(results["flat"].counts)
        tree_exact = results["tree"].makespan_exact
        if tree_exact is not None and tree_exact > flat_exact:
            findings.append(
                (
                    "tree-dominance",
                    f"tree makespan {float(tree_exact)!r} exceeds flat "
                    f"makespan {float(flat_exact)!r} "
                    f"({results['tree'].algorithm} vs "
                    f"{results['flat'].algorithm})",
                )
            )
    return results, findings


@dataclass(frozen=True)
class _Mode:
    """One fuzz mode: a solve per step and the oracle set that judges it."""

    #: ``problem -> Solved``; a churn mode's solve takes the seed's warm
    #: planner first.
    solve: Callable[..., Solved]
    #: The mode's oracle ids, read from the registry when a run starts.
    oracles: Callable[[], Tuple[str, ...]]
    #: Replay :data:`CHURN_OPS` seeded churn steps per seed through one
    #: :class:`IncrementalPlanner`, and :func:`incremental_schedule` on
    #: each shrink candidate.
    churn: bool = False


def _differential_oracles() -> Tuple[str, ...]:
    """The registry minus the self-contained warm-vs-cold oracle, which the
    differential modes would only repeat on its own schedule."""
    return tuple(oid for oid in oracle_ids() if oid != "incremental-matches-cold")


#: The public fuzz modes (``repro-scatter verify --mode``).
MODES: Dict[str, _Mode] = {
    "oracles": _Mode(_solve_every_solver, oracle_ids),
    "incremental": _Mode(solve_warm_and_cold, _differential_oracles, churn=True),
    "tree": _Mode(_solve_flat_and_tree, _differential_oracles),
}


# ---------------------------------------------------------------------------
# The fuzz loop
# ---------------------------------------------------------------------------

def _judge(
    mode: _Mode,
    steps: Sequence[Tuple[str, ScatterProblem]],
    oracles: Sequence[str],
    stats: FuzzStats,
) -> Tuple[Findings, ScatterProblem]:
    """Solve and check ``steps`` in order, through one fresh warm planner
    in a churn mode.

    Returns the findings of the first failing step (tagged ``[step]`` in a
    churn mode) and its problem, or no findings and the last step.
    """
    solve = partial(mode.solve, IncrementalPlanner()) if mode.churn else mode.solve
    for label, step in steps:
        solved = solve(step)
        if solved is None:
            continue
        results, findings = solved
        reports = run_oracles(step, results, only=oracles)
        crashes = sum(oid == "solver-crash" for oid, _ in findings)
        stats.solver_runs += len(results) + crashes
        stats.oracle_checked.update(r.oracle_id for r in reports if r.applicable)
        findings = findings + [(r.oracle_id, msg) for r in reports for msg in r.violations]
        if findings:
            if mode.churn:
                findings = [(oid, f"[{label}] {message}") for oid, message in findings]
            return findings, step
    return [], steps[-1][1]


def _replay(
    mode: _Mode, problem: ScatterProblem, oracles: Sequence[str]
) -> Findings:
    """The findings ``mode`` reports for ``problem`` alone (a churn mode
    replays :func:`incremental_schedule`, which needs no event history)."""
    steps = incremental_schedule(problem) if mode.churn else [("seed", problem)]
    return _judge(mode, steps, oracles, FuzzStats())[0]


def _still_fails(
    mode: _Mode,
    oracles: Sequence[str],
    failed: FrozenSet[str],
    candidate: ScatterProblem,
) -> bool:
    """Shrink predicate: does ``candidate`` still fail an id in ``failed``?"""
    found = _replay(mode, candidate, [oid for oid in oracles if oid in failed])
    return any(oid in failed for oid, _ in found)


def _fuzz_loop(
    mode: _Mode,
    seeds: int,
    base_seed: int,
    schedule: Sequence[str],
    oracles: Sequence[str],
    stats: FuzzStats,
    guided: bool = False,
) -> Iterator[Counterexample]:
    """The one seed loop: generate, solve, check, shrink, report.

    Yields each counterexample as its seed fails, filling ``stats`` as it
    goes, so a caller may stop at the first one.
    """
    # Unique candidate pool for the guided selector, first-seen order.
    candidates = tuple(dict.fromkeys(schedule))
    guide_rng = _instance_rng(base_seed, 0x6D1DE5)
    affinity: Counter[Tuple[str, str]] = Counter()
    for seed in range(seeds):
        if guided:
            shape = _guided_shape(guide_rng, candidates, oracles, stats, affinity)
        else:
            shape = schedule[seed % len(schedule)]
        rng = _instance_rng(base_seed, seed)
        problem = generate_instance(shape, rng)
        stats.instances += 1
        stats.shapes[shape] += 1
        # The seed instance is step 0, so a churn mode's first event
        # already re-plans against warm state.
        steps = [("seed", problem)]
        while mode.churn and len(steps) <= CHURN_OPS:
            steps.append(_mutate_problem(steps[-1][1], problem.n, rng))
        checked_before = stats.oracle_checked.copy()
        findings, failing = _judge(mode, steps, oracles, stats)
        if guided:
            affinity.update((shape, oid) for oid in stats.oracle_checked - checked_before)
        if not findings:
            continue
        failed = frozenset(oid for oid, _ in findings)
        shrunk = shrink(failing, partial(_still_fails, mode, oracles, failed))
        # A churn failure that needs its own event history does not replay
        # on the unshrunk step; it keeps the findings of the churn run.
        yield Counterexample(
            seed=seed,
            shape=shape,
            violations=tuple(_replay(mode, shrunk, oracles) or findings),
            problem=problem_to_dict(shrunk),
            original_p=failing.p,
            original_n=failing.n,
            shrunk_p=shrunk.p,
            shrunk_n=shrunk.n,
        )


def fuzz(
    seeds: int = 50,
    *,
    mode: str = "oracles",
    base_seed: int = 0,
    shapes: Optional[Sequence[str]] = None,
    only_oracles: Optional[Sequence[str]] = None,
    guided: bool = False,
) -> FuzzOutcome:
    """Fuzz ``seeds`` seeded instances in ``mode`` (a key of :data:`MODES`).

    Each seed deterministically generates one instance (shape from
    :data:`SHAPE_SCHEDULE`, or round-robin over ``shapes`` when given), the
    same in every mode.  The mode's oracle set is read from the registry
    when ``fuzz`` is called, so an oracle registered before the call runs;
    ``only_oracles`` replaces it.  ``guided=True`` swaps the rotation for
    the coverage-guided selector (:func:`_guided_shape`; still
    deterministic given ``base_seed``).
    """
    if mode not in MODES:
        raise ValueError(f"unknown fuzz mode {mode!r}; know {tuple(MODES)}")
    oracles = MODES[mode].oracles() if only_oracles is None else tuple(only_oracles)
    unknown = [oid for oid in oracles if oid not in oracle_ids()]
    if unknown:
        raise KeyError(f"unknown oracle ids {unknown}; know {list(oracle_ids())}")
    schedule: Sequence[str] = tuple(shapes) if shapes else SHAPE_SCHEDULE
    for shape in schedule:
        if shape not in SHAPES:
            raise ValueError(f"unknown instance shape {shape!r}; know {SHAPES}")
    stats = FuzzStats()
    counterexamples = tuple(
        _fuzz_loop(MODES[mode], seeds, base_seed, schedule, oracles, stats, guided)
    )
    return FuzzOutcome(stats=stats, counterexamples=counterexamples)


# ---------------------------------------------------------------------------
# Mutation smoke-check: the harness must catch a planted rounding bug.
# ---------------------------------------------------------------------------

def _mutant_round_floor_dump(shares: Sequence[Fraction], n: int) -> Tuple[int, ...]:
    """A *deliberately wrong* copy of the §3.3 rounding scheme.

    Floors every share and dumps all leftover units on the first
    processor — the counts still sum to ``n`` and stay non-negative, but
    ``|n'_0 − n_0|`` can reach ``p − 1``, silently voiding the Eq. 4
    guarantee.  Exists only so :func:`mutation_smoke_check` can prove the
    oracles catch exactly this class of bug.
    """
    vals = [Fraction(s) for s in shares]
    out = [int(v // 1) for v in vals]
    out[0] += n - sum(out)
    return tuple(out)


def _solve_mutant(problem: ScatterProblem) -> Solved:
    """The LP heuristic pipeline with the planted rounding mutant.

    Bypasses :func:`repro.core.heuristic.solve_heuristic` on purpose: the
    real pipeline asserts Eq. 4 internally, and the smoke-check must show
    the *external* oracles catching the bug on the result alone.
    """
    shares, t_rational = solve_lp_rational(problem)
    counts = _mutant_round_floor_dump(shares, problem.n)
    exact = problem.makespan_exact(counts)
    result = DistributionResult(
        problem=problem,
        counts=counts,
        makespan=float(exact),
        algorithm="lp-heuristic",
        makespan_exact=exact,
        info={"rational_T": t_rational, "rational_shares": tuple(shares)},
    )
    return {"lp-heuristic": result}, []


#: The private mutation mode: the mutated LP pipeline and the oracles
#: expected to flag it.
_MUTATION_MODE = _Mode(
    _solve_mutant, lambda: ("dist-valid", "rounding-within-one", "eq4-lp-bound")
)


@dataclass(frozen=True)
class MutationCheckResult:
    """Did the harness catch the planted rounding off-by-one?"""

    counterexample: Optional[Counterexample]  #: None: the bug escaped
    instances_tried: int

    @property
    def caught(self) -> bool:
        return self.counterexample is not None

    def to_dict(self) -> Dict[str, Any]:
        ce = {} if self.counterexample is None else self.counterexample.to_dict()
        return {
            "caught": self.caught,
            "seed": ce.get("seed"),
            "violations": ce.get("violations", []),
            "problem": ce.get("problem"),
            "shrunk": ce.get("shrunk", {"p": None, "n": None}),
            "instances_tried": self.instances_tried,
        }


def mutation_smoke_check() -> MutationCheckResult:
    """Prove the harness catches a planted rounding off-by-one.

    Runs the fuzz loop in the private mutation mode over 40 linear and
    affine instances (base seed ``0xBADC0DE``) until an oracle flags one,
    and reports that shrunk counterexample.  ``caught`` is False only if
    *no* instance is flagged — which would mean the oracle net has a hole.
    """
    stats = FuzzStats()
    oracles = _MUTATION_MODE.oracles()
    loop = _fuzz_loop(_MUTATION_MODE, 40, 0xBADC0DE, ("linear", "affine"), oracles, stats)
    ce = next(loop, None)
    return MutationCheckResult(ce, stats.instances)

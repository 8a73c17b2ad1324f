"""Oracle registry: the paper's guarantees as machine-checkable predicates.

Every oracle is a predicate over ``(problem, results)`` where ``results``
maps algorithm names (as accepted by :func:`repro.core.plan_scatter`) to
the :class:`~repro.core.distribution.DistributionResult` each solver
produced for ``problem``.  An oracle reports a list of human-readable
violation messages — empty means the guarantee held.

The registry encodes, in order of increasing paper specificity:

``eq1-recompute``
    The makespan claimed by every result matches an independent exact
    (rational) re-evaluation of Eq. 1/2 on its counts.
``dist-valid``
    Every distribution is a vector of non-negative integers summing to
    ``n``.
``rounding-within-one``
    Results produced through the §3.3 rounding scheme stay within one
    unit of their rational shares — the hypothesis of Eq. 4.
``exact-agree``
    All exact solvers present (the DP family) agree on the optimal
    makespan.
``thm1-duration``
    Linear instances: the two independent implementations of the chain
    rate ``D`` agree, ``t = n·D`` lower-bounds the exact integer optimum,
    and the rounded closed form stays within the Eq. 4 additive gap of
    ``t``.
``thm2-endings``
    Linear instances: the Theorem 2 activity mask is consistent with the
    ``β_i <= D(P_{i+1}..P_p)`` condition, inactive processors receive
    zero, and all active processors with work end *simultaneously* at
    ``t``.
``thm3-ordering``
    Linear instances: the descending-bandwidth order's rational duration
    beats (<=) every sampled permutation (exhaustive for small ``p``).
``eq4-lp-bound``
    Affine instances: the LP optimum lower-bounds the relaxed makespan of
    *every* produced distribution, and the rounded LP distribution obeys
    ``T' <= T_LP + Σ_j Tcomm(j,1) + max_i Tcomp(i,1)``.
``tree-lower-bound``
    The Träff communication lower bound
    (:func:`~repro.core.trees.tree_lower_bound`) holds for *every* result
    — flat Eq. 1 schedules and tree schedules alike: no single-port
    store-and-forward schedule delivering the result's counts can finish
    below the bound, so a claimed makespan under it is a bug in either
    the schedule evaluation or the bound.
``incremental-matches-cold``
    An :class:`~repro.core.incremental.IncrementalPlanner` driven through
    a deterministic kill/perturb/resize schedule derived from the
    instance produces plans *byte-identical* (counts, float makespan,
    exact makespan) to cold :func:`~repro.core.plan_scatter` solves of
    the same problems — warm-starting must never change the answer.

All comparisons involving only rational quantities are exact
(:class:`~fractions.Fraction`); comparisons against float-path solvers use
a relative tolerance of ``FLOAT_RTOL``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..core.closed_form import (
    chain_rate,
    chain_rate_sum_form,
    simultaneous_endings_mask,
    solve_rational,
)
from ..core.costs import scale_cost
from ..core.distribution import DistributionResult, Processor, ScatterProblem
from ..core.heuristic import guarantee_gap, relaxed_makespan
from ..core.incremental import IncrementalPlanner
from ..core.solver import plan_scatter
from ..core.trees import ScatterTree, tree_lower_bound, tree_makespan_exact
from .references import REFERENCES, solve_reference

__all__ = [
    "FLOAT_RTOL",
    "EXACT_DP_ALGORITHMS",
    "Oracle",
    "OracleReport",
    "ORACLES",
    "register_oracle",
    "oracle_ids",
    "applicable_algorithms",
    "solve_all",
    "run_oracles",
    "incremental_schedule",
    "plan_mismatch",
    "solve_warm_and_cold",
]

#: Relative tolerance when comparing float-path solver output against the
#: exact rational re-evaluation (the DP kernels optimize float cost
#: tables, so exactly optimal counts can differ in the last few ulps).
FLOAT_RTOL = 1e-9

#: The solvers that promise the *exact* integer optimum.
EXACT_DP_ALGORITHMS = (
    "dp-basic",
    "dp-basic-vectorized",
    "dp-optimized",
    "dp-fast",
    "dp-monotone",
)

CheckFn = Callable[[ScatterProblem, Mapping[str, DistributionResult]], List[str]]
AppliesFn = Callable[[ScatterProblem], bool]


@dataclass(frozen=True)
class Oracle:
    """One machine-checkable paper guarantee."""

    id: str
    description: str
    applies: AppliesFn
    check: CheckFn


@dataclass(frozen=True)
class OracleReport:
    """Outcome of one oracle on one instance."""

    oracle_id: str
    applicable: bool
    violations: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


#: Registry, in registration (= documentation) order.
ORACLES: Dict[str, Oracle] = {}


def register_oracle(
    oracle_id: str, description: str, *, applies: AppliesFn
) -> Callable[[CheckFn], CheckFn]:
    """Decorator registering ``fn`` as the check of a new oracle."""

    def _register(fn: CheckFn) -> CheckFn:
        if oracle_id in ORACLES:
            raise ValueError(f"duplicate oracle id {oracle_id!r}")
        ORACLES[oracle_id] = Oracle(oracle_id, description, applies, fn)
        return fn

    return _register


def oracle_ids() -> Tuple[str, ...]:
    """All registered oracle ids, in registration order."""
    return tuple(ORACLES)


def _always(problem: ScatterProblem) -> bool:
    return True


def _linear(problem: ScatterProblem) -> bool:
    return problem.is_linear


def _affine(problem: ScatterProblem) -> bool:
    return problem.is_affine


def applicable_algorithms(
    problem: ScatterProblem, *, max_dp_n: int = 512
) -> Tuple[str, ...]:
    """Solvers the differential harness should run on ``problem``.

    ``max_dp_n`` bounds the O(p·n²) Algorithm 1 family; the sub-quadratic
    kernels (dp-fast and the dp-monotone reference) are kept for any
    increasing instance.
    """
    algos: List[str] = ["uniform"]
    if problem.n <= max_dp_n:
        algos += ["dp-basic", "dp-basic-vectorized"]
        if problem.is_increasing:
            algos.append("dp-optimized")
    if problem.is_increasing:
        algos += ["dp-fast", "dp-monotone"]
    if problem.is_affine:
        algos.append("lp-heuristic")
    if problem.is_linear:
        algos.append("closed-form")
    return tuple(algos)


def solve_all(
    problem: ScatterProblem,
    *,
    algorithms: Optional[Sequence[str]] = None,
    max_dp_n: int = 512,
) -> Tuple[Dict[str, DistributionResult], Dict[str, str]]:
    """Run every applicable solver; returns ``(results, crashes)``.

    Solvers are invoked through :func:`repro.core.plan_scatter` with
    ``order_policy=None`` so every algorithm sees the *same* processor
    order (differential comparison requires a common instance); the
    cross-check kernels of :mod:`repro.verify.references` run through
    :func:`~repro.verify.references.solve_reference` on that same order.
    A solver raising is recorded in ``crashes`` as
    ``algorithm -> repr(exc)`` — on harness-generated (valid) instances any
    crash is a finding.
    """
    if algorithms is None:
        algorithms = applicable_algorithms(problem, max_dp_n=max_dp_n)
    results: Dict[str, DistributionResult] = {}
    crashes: Dict[str, str] = {}
    for algo in algorithms:
        try:
            if algo in REFERENCES:
                results[algo] = solve_reference(problem, algo)
            else:
                results[algo] = plan_scatter(problem, algorithm=algo, order_policy=None)
        except Exception as exc:  # noqa: BLE001 — any crash is the finding
            crashes[algo] = f"{type(exc).__name__}: {exc}"
    return results, crashes


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

@register_oracle(
    "eq1-recompute",
    "claimed makespan matches exact Eq. 1/2 (or tree-schedule) "
    "re-evaluation of the counts",
    applies=_always,
)
def _check_eq1_recompute(
    problem: ScatterProblem, results: Mapping[str, DistributionResult]
) -> List[str]:
    violations: List[str] = []
    for algo, result in results.items():
        tree = result.info.get("tree")
        if isinstance(tree, ScatterTree):
            # Tree plans claim the *tree* schedule's makespan, not Eq. 1's
            # — re-evaluate the store-and-forward recurrence instead.
            recomputed = tree_makespan_exact(problem, tree, result.counts)
        else:
            recomputed = problem.makespan_exact(result.counts)
        scale = max(1.0, abs(float(recomputed)))
        if abs(result.makespan - float(recomputed)) > FLOAT_RTOL * scale:
            violations.append(
                f"{algo}: claimed makespan {result.makespan!r} != "
                f"recomputed {float(recomputed)!r}"
            )
        if result.makespan_exact is not None and result.makespan_exact != recomputed:
            violations.append(
                f"{algo}: makespan_exact {result.makespan_exact} != "
                f"recomputed {recomputed}"
            )
    return violations


@register_oracle(
    "dist-valid",
    "distributions are non-negative integers summing to n",
    applies=_always,
)
def _check_dist_valid(
    problem: ScatterProblem, results: Mapping[str, DistributionResult]
) -> List[str]:
    violations: List[str] = []
    for algo, result in results.items():
        counts = result.counts
        if any(not isinstance(c, int) for c in counts):
            violations.append(f"{algo}: non-integer counts {counts!r}")
            continue
        if any(c < 0 for c in counts):
            violations.append(f"{algo}: negative counts {counts!r}")
        if len(counts) != problem.p:
            violations.append(
                f"{algo}: {len(counts)} counts for p={problem.p} processors"
            )
        if sum(counts) != problem.n:
            violations.append(
                f"{algo}: counts sum to {sum(counts)}, expected n={problem.n}"
            )
    return violations


@register_oracle(
    "rounding-within-one",
    "§3.3-rounded counts stay within one unit of their rational shares",
    applies=_always,
)
def _check_rounding_within_one(
    problem: ScatterProblem, results: Mapping[str, DistributionResult]
) -> List[str]:
    violations: List[str] = []
    for algo, result in results.items():
        shares = result.info.get("rational_shares")
        if shares is None:
            continue
        if sum(shares, Fraction(0)) != problem.n:
            violations.append(
                f"{algo}: rational shares sum to "
                f"{float(sum(shares, Fraction(0)))}, expected n={problem.n}"
            )
        for i, (share, count) in enumerate(zip(shares, result.counts)):
            if abs(Fraction(count) - Fraction(share)) >= 1:
                violations.append(
                    f"{algo}: count[{i}]={count} differs from rational share "
                    f"{float(share):.6g} by >= 1"
                )
    return violations


@register_oracle(
    "exact-agree",
    "all exact DP solvers agree on the optimal makespan",
    applies=_always,
)
def _check_exact_agree(
    problem: ScatterProblem, results: Mapping[str, DistributionResult]
) -> List[str]:
    present = [
        (algo, problem.makespan_exact(results[algo].counts))
        for algo in EXACT_DP_ALGORITHMS
        if algo in results
    ]
    if len(present) < 2:
        return []
    values = [float(v) for _, v in present]
    lo, hi = min(values), max(values)
    if hi - lo <= FLOAT_RTOL * max(1.0, hi):
        return []
    table = ", ".join(f"{algo}={v!r}" for (algo, _), v in zip(present, values))
    return [f"exact solvers disagree beyond tolerance: {table}"]


def _eq4_gap(problem: ScatterProblem) -> Fraction:
    """``Σ_j Tcomm(j,1) + max_i Tcomp(i,1)`` (shared with the LP layer)."""
    return guarantee_gap(problem)


@register_oracle(
    "thm1-duration",
    "Theorem 1: t = n·D lower-bounds the DP optimum; rounded closed form "
    "stays within the Eq. 4 gap",
    applies=_linear,
)
def _check_thm1_duration(
    problem: ScatterProblem, results: Mapping[str, DistributionResult]
) -> List[str]:
    violations: List[str] = []
    rational = solve_rational(problem)
    t = rational.duration

    # Independent implementations of D must agree on the active subchain.
    active_procs = [
        proc for proc, a in zip(problem.processors, rational.active) if a
    ]
    d_recurrence = chain_rate(active_procs)
    try:
        d_sum = chain_rate_sum_form(active_procs)
    except ZeroDivisionError:
        d_sum = None  # free processor in the chain; the sum form is undefined
    if d_sum is not None and d_sum != d_recurrence:
        violations.append(
            f"chain_rate recurrence {d_recurrence} != sum form {d_sum}"
        )
    if t != problem.n * d_recurrence:
        violations.append(
            f"rational duration {t} != n·D = {problem.n * d_recurrence}"
        )

    # t is the rational relaxation's optimum: no integer distribution can
    # beat it, in particular not the DP's exact optimum.
    for algo in EXACT_DP_ALGORITHMS:
        if algo not in results:
            continue
        integer_opt = problem.makespan_exact(results[algo].counts)
        if integer_opt < t:
            violations.append(
                f"{algo}: integer optimum {float(integer_opt)!r} beats the "
                f"rational bound t = {float(t)!r}"
            )
        break  # one exact witness suffices; exact-agree covers the rest

    if "closed-form" in results:
        rounded = problem.makespan_exact(results["closed-form"].counts)
        bound = t + _eq4_gap(problem)
        if rounded > bound:
            violations.append(
                f"closed-form: rounded makespan {float(rounded)!r} exceeds "
                f"t + gap = {float(bound)!r}"
            )
    return violations


@register_oracle(
    "thm2-endings",
    "Theorem 2: β_i <= D(suffix) characterizes the active set, and active "
    "processors end simultaneously",
    applies=_linear,
)
def _check_thm2_endings(
    problem: ScatterProblem, results: Mapping[str, DistributionResult]
) -> List[str]:
    violations: List[str] = []
    procs = problem.processors
    p = problem.p
    mask = simultaneous_endings_mask(procs)
    rational = solve_rational(problem)
    if tuple(mask) != rational.active:
        violations.append(
            f"activity masks disagree: filter {tuple(mask)} vs "
            f"solution {rational.active}"
        )

    # Re-derive the condition independently: walk the mask right to left,
    # computing D of the *active suffix strictly after i* from scratch.
    for i in range(p - 1):
        suffix = [proc for proc, a in zip(procs[i + 1 :], mask[i + 1 :]) if a]
        if not suffix:
            violations.append(f"no active suffix behind processor {i}")
            break
        d_suffix = chain_rate(suffix)
        beta_i = procs[i].comm.rate
        if mask[i] and beta_i > d_suffix:
            violations.append(
                f"P_{i + 1} active but β={float(beta_i):.6g} > "
                f"D(suffix)={float(d_suffix):.6g}"
            )
        if not mask[i] and beta_i <= d_suffix:
            violations.append(
                f"P_{i + 1} dropped but β={float(beta_i):.6g} <= "
                f"D(suffix)={float(d_suffix):.6g}"
            )

    # Simultaneous endings of the rational solution (Eq. 1 on fractional
    # shares, exact): every active processor with work ends at t; nobody
    # ends after t.
    t = rational.duration
    elapsed = Fraction(0)
    for i, (proc, share) in enumerate(zip(procs, rational.shares)):
        if not rational.active[i] and share != 0:
            violations.append(f"inactive P_{i + 1} received share {share}")
        elapsed += proc.comm.rate * share
        finish = elapsed + proc.comp.rate * share
        if share > 0 and finish != t:
            violations.append(
                f"active P_{i + 1} ends at {float(finish)!r}, not t={float(t)!r}"
            )
        if finish > t:
            violations.append(
                f"P_{i + 1} ends at {float(finish)!r} after t={float(t)!r}"
            )
    return violations


#: Permutation budget of the thm3 oracle: exhaustive below, sampled above.
_THM3_EXHAUSTIVE_P = 5
_THM3_SAMPLES = 12


@register_oracle(
    "thm3-ordering",
    "Theorem 3: descending-bandwidth order is optimal among sampled "
    "permutations (exhaustive for small p)",
    applies=_linear,
)
def _check_thm3_ordering(
    problem: ScatterProblem, results: Mapping[str, DistributionResult]
) -> List[str]:
    from ..core.ordering import apply_policy

    p = problem.p
    t_desc = solve_rational(apply_policy(problem, "bandwidth-desc")).duration

    non_root = tuple(range(p - 1))
    if p - 1 <= _THM3_EXHAUSTIVE_P:
        candidates: Iterable[Tuple[int, ...]] = itertools.permutations(non_root)
    else:
        # Seeded sample; the seed derives from the instance shape so the
        # same problem always probes the same permutations.
        rng = random.Random((p << 20) ^ problem.n ^ 0x7357)
        drawn = []
        for _ in range(_THM3_SAMPLES):
            perm = list(non_root)
            rng.shuffle(perm)
            drawn.append(tuple(perm))
        candidates = drawn

    violations: List[str] = []
    for perm in candidates:
        t_perm = solve_rational(problem.with_order(perm + (p - 1,))).duration
        if t_desc > t_perm:
            violations.append(
                f"order {perm} achieves t={float(t_perm)!r} < "
                f"bandwidth-desc t={float(t_desc)!r}"
            )
            break  # one witness is enough; keep the check bounded
    return violations


@register_oracle(
    "eq4-lp-bound",
    "Eq. 4: T_LP <= relaxed T of every distribution, and the rounded LP "
    "distribution obeys T' <= T_LP + Σ Tcomm(j,1) + max Tcomp(i,1)",
    applies=_affine,
)
def _check_eq4_lp_bound(
    problem: ScatterProblem, results: Mapping[str, DistributionResult]
) -> List[str]:
    lp = results.get("lp-heuristic")
    if lp is None:
        return []
    violations: List[str] = []
    t_lp = lp.info.get("rational_T")
    if t_lp is None:
        return [f"lp-heuristic result carries no rational_T: {sorted(lp.info)}"]
    gap = _eq4_gap(problem)

    rounded = relaxed_makespan(problem, lp.counts)
    if rounded > t_lp + gap:
        violations.append(
            f"lp-heuristic: relaxed T' {float(rounded)!r} exceeds "
            f"T_LP + gap = {float(t_lp + gap)!r}"
        )

    # The LP optimum is a lower bound on the relaxed makespan of *any*
    # integer distribution — compare against every solver's output.
    for algo, result in results.items():
        relaxed = relaxed_makespan(problem, result.counts)
        if relaxed < t_lp:
            violations.append(
                f"{algo}: relaxed makespan {float(relaxed)!r} beats the LP "
                f"lower bound {float(t_lp)!r}"
            )
    return violations


@register_oracle(
    "tree-lower-bound",
    "Träff lower bound: no single-port store-and-forward schedule (flat "
    "or tree) delivering the counts can finish below tree_lower_bound",
    applies=_always,
)
def _check_tree_lower_bound(
    problem: ScatterProblem, results: Mapping[str, DistributionResult]
) -> List[str]:
    violations: List[str] = []
    for algo, result in results.items():
        lb = tree_lower_bound(problem, result.counts)
        if result.makespan_exact is not None:
            if result.makespan_exact < lb:
                violations.append(
                    f"{algo}: exact makespan {float(result.makespan_exact)!r} "
                    f"beats the lower bound {float(lb)!r}"
                )
        elif float(lb) - result.makespan > FLOAT_RTOL * max(1.0, float(lb)):
            violations.append(
                f"{algo}: makespan {result.makespan!r} beats the lower "
                f"bound {float(lb)!r}"
            )
    return violations


def incremental_schedule(
    problem: ScatterProblem,
) -> List[Tuple[str, ScatterProblem]]:
    """Deterministic kill/perturb/resize schedule derived from an instance.

    Exercises each warm-start class once — processor removal, ``n``
    shrink, ``n`` growth, single-link perturbation — cumulatively, so the
    planner's state at each step came from the previous one.  Shared by
    the ``incremental-matches-cold`` oracle and the shrinker (a failing
    step stays failing as the instance shrinks toward minimality).
    """
    steps: List[Tuple[str, ScatterProblem]] = [("seed", problem)]
    cur = problem
    if cur.p >= 2:
        cur = ScatterProblem(cur.processors[1:], cur.n)
        steps.append(("remove-front", cur))
    if cur.n >= 2:
        cur = ScatterProblem(cur.processors, max(1, cur.n // 2))
        steps.append(("shrink-n", cur))
    if cur.n != problem.n:
        cur = ScatterProblem(cur.processors, problem.n)
        steps.append(("grow-n", cur))
    first = cur.processors[0]
    perturbed = Processor(
        first.name, scale_cost(first.comm, Fraction(9, 8)), first.comp
    )
    cur = ScatterProblem([perturbed, *cur.processors[1:]], cur.n)
    steps.append(("perturb-link", cur))
    return steps


def plan_mismatch(cold: DistributionResult, warm: DistributionResult) -> List[str]:
    """How a warm re-plan differs from the cold solve of the same problem.

    Counts first, then the exact and the float makespan, each compared
    only while the fields before it agree; the route on its own.
    """
    if warm.counts != cold.counts:
        out = [f"counts diverge: cold={cold.counts} warm={warm.counts}"]
    elif warm.makespan_exact != cold.makespan_exact:
        out = [
            f"exact makespan diverges: cold={cold.makespan_exact} "
            f"warm={warm.makespan_exact}"
        ]
    elif warm.makespan != cold.makespan:
        out = [
            f"float makespan diverges: cold={cold.makespan!r} "
            f"warm={warm.makespan!r}"
        ]
    else:
        out = []
    if warm.algorithm != cold.algorithm:
        out.append(f"route diverges: cold={cold.algorithm} warm={warm.algorithm}")
    return out


def solve_warm_and_cold(
    planner: IncrementalPlanner, problem: ScatterProblem
) -> Optional[Tuple[Dict[str, DistributionResult], List[Tuple[str, str]]]]:
    """One warm-vs-cold step: a cold solve, then ``planner``'s re-plan.

    Returns the results (``cold``, ``incremental``) and the findings: a
    ``solver-crash`` naming the side that raised, or every
    ``incremental-differential`` of :func:`plan_mismatch`.  None when the
    cold solve raises ``ValueError`` (no auto route for this family and
    size): the planner delegates to the same router, so there is nothing
    to compare.
    """
    try:
        cold = plan_scatter(problem, order_policy=None)
    except ValueError:
        return None
    except Exception as exc:  # noqa: BLE001 — any crash is the finding
        return {}, [("solver-crash", f"cold: {type(exc).__name__}: {exc}")]
    try:
        warm = planner.plan(problem)
    except Exception as exc:  # noqa: BLE001 — any crash is the finding
        return {"cold": cold}, [("solver-crash", f"incremental: {type(exc).__name__}: {exc}")]
    return {"cold": cold, "incremental": warm}, [
        ("incremental-differential", message) for message in plan_mismatch(cold, warm)
    ]


@register_oracle(
    "incremental-matches-cold",
    "IncrementalPlanner plans byte-match cold plan_scatter across a "
    "kill/perturb/resize schedule",
    applies=_always,
)
def _check_incremental_matches_cold(
    problem: ScatterProblem, results: Mapping[str, DistributionResult]
) -> List[str]:
    violations: List[str] = []
    planner = IncrementalPlanner()
    for label, step in incremental_schedule(problem):
        solved = solve_warm_and_cold(planner, step)
        if solved is not None:
            violations.extend(f"{label}: {message}" for _, message in solved[1])
    return violations


def run_oracles(
    problem: ScatterProblem,
    results: Mapping[str, DistributionResult],
    *,
    only: Optional[Sequence[str]] = None,
) -> List[OracleReport]:
    """Apply (a subset of) the registry to one solved instance.

    ``only=None`` runs every registered oracle; otherwise only the listed
    ids (unknown ids raise ``KeyError``).  Inapplicable oracles report
    ``applicable=False`` with no violations.  An oracle that *itself*
    raises is reported as a violation — the harness must never mask its
    own bugs as passes.
    """
    selected: Iterable[Oracle]
    if only is None:
        selected = ORACLES.values()
    else:
        missing = [oid for oid in only if oid not in ORACLES]
        if missing:
            raise KeyError(
                f"unknown oracle ids {missing}; know {list(ORACLES)}"
            )
        selected = [ORACLES[oid] for oid in only]

    reports: List[OracleReport] = []
    for oracle in selected:
        if not oracle.applies(problem):
            reports.append(OracleReport(oracle.id, applicable=False))
            continue
        try:
            violations = oracle.check(problem, results)
        except Exception as exc:  # noqa: BLE001 — oracle crash is a finding
            violations = [f"oracle crashed: {type(exc).__name__}: {exc}"]
        reports.append(
            OracleReport(oracle.id, applicable=True, violations=tuple(violations))
        )
    return reports

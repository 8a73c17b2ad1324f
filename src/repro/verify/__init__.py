"""Paper-theorem verification harness (oracles, fuzzing, golden traces).

The paper gives us *executable theorems* — the Eq. 1/2 makespan formulas,
Theorem 1's closed-form duration, Theorem 2's simultaneous-endings
condition, Theorem 3's ordering policy and the Eq. 4 rounding guarantee —
that double as machine-checkable oracles over randomly generated
instances.  This package turns them into the repo's correctness backbone:

* :mod:`repro.verify.oracles` — an oracle registry: each oracle is a
  predicate over ``(problem, {algorithm: result})`` encoding one paper
  guarantee, with independent re-derivations wherever possible (the
  Gallet–Robert–Vivien comments paper is the cautionary tale: published
  schedules can be subtly wrong and only independent re-derivation
  catches them).
* :mod:`repro.verify.fuzz` — a differential fuzzer: seeded instance
  generators (affine/concave/stepwise/adversarial cost shapes plus
  degenerate edges) feed one seed loop whose modes (every solver through
  the registry, warm-vs-cold churn, flat-vs-tree) solve and check each
  instance, and failing instances are *shrunk* to minimal counterexamples.
* :mod:`repro.verify.references` — cross-check kernels that are not
  solver routes (``dp-basic-vectorized``, ``dp-monotone``); the fuzzer runs
  them next to the production solvers under those names.
* :mod:`repro.verify.golden` — byte-stable golden-trace regression:
  JSONL/JSON snapshots of canonical Table-1 runs with an update flow and
  drift diffs, reusing :mod:`repro.obs.exporters`.

The harness is itself tested by a mutation smoke-check
(:func:`repro.verify.fuzz.mutation_smoke_check`): a known off-by-one is
planted in a copy of the rounding scheme and the oracles must flag it
with a shrunk counterexample.

CLI: ``repro-scatter verify [--seeds N] [--mode MODE] [--oracle ID]
[--json]`` (exit 0 = clean, 1 = findings, 2 = usage error, like ``lint``).
"""

from .fuzz import (
    Counterexample,
    FuzzOutcome,
    MODES,
    MutationCheckResult,
    SHAPES,
    fuzz,
    generate_instance,
    mutation_smoke_check,
    problem_from_dict,
    problem_to_dict,
    shrink,
)
from .golden import GoldenDrift, check_golden, golden_scenarios, update_golden
from .oracles import (
    ORACLES,
    Oracle,
    OracleReport,
    applicable_algorithms,
    oracle_ids,
    run_oracles,
    solve_all,
)

__all__ = [
    "ORACLES",
    "Oracle",
    "OracleReport",
    "applicable_algorithms",
    "oracle_ids",
    "run_oracles",
    "solve_all",
    "SHAPES",
    "MODES",
    "Counterexample",
    "FuzzOutcome",
    "MutationCheckResult",
    "fuzz",
    "generate_instance",
    "mutation_smoke_check",
    "problem_to_dict",
    "problem_from_dict",
    "shrink",
    "GoldenDrift",
    "check_golden",
    "golden_scenarios",
    "update_golden",
]

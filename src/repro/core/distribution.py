"""Problem statement and distribution evaluation (paper §3.1, Eq. 1–2).

A :class:`ScatterProblem` is the tuple the paper's framework works with: an
ordered list of processors ``P_1 .. P_p`` — **the root is by convention the
last processor** ``P_p`` (§3.1: "All along the paper the root processor will
be the last processor") — and a number ``n`` of independent data items to
scatter.

Given a distribution ``n_1 .. n_p``, processor ``P_i`` finishes at

    T_i = Σ_{j<=i} Tcomm(j, n_j) + Tcomp(i, n_i)          (Eq. 1)

because the single-port root serves processors in rank order, and the
makespan is ``T = max_i T_i`` (Eq. 2).  This module evaluates these formulas
in float and in exact rational arithmetic, and validates distributions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .costs import AffineCost, CostFunction, LinearCost, Scalar, ZeroCost

__all__ = [
    "Processor",
    "ScatterProblem",
    "DistributionResult",
    "uniform_counts",
    "finish_times",
    "makespan",
]


@dataclass(frozen=True)
class Processor:
    """One computational node, described by its two cost functions.

    Attributes
    ----------
    name:
        Human-readable identifier (e.g. the machine name of Table 1).
    comm:
        ``Tcomm(i, ·)`` — time for the root to send ``x`` items to this
        processor.  Use :class:`~repro.core.costs.ZeroCost` for the root.
    comp:
        ``Tcomp(i, ·)`` — time for this processor to compute ``x`` items.
    """

    # Slots keep per-request platforms small; frozen slots need __reduce__
    # to pickle (the default state restore would assign to a frozen field).
    __slots__ = ("name", "comm", "comp")

    name: str
    comm: CostFunction
    comp: CostFunction

    def __reduce__(self) -> Tuple[type, Tuple[str, CostFunction, CostFunction]]:
        return (type(self), (self.name, self.comm, self.comp))

    # -- convenience constructors ---------------------------------------
    @staticmethod
    def linear(name: str, alpha: Scalar, beta: Scalar) -> "Processor":
        """Processor with linear costs ``Tcomp = α·x``, ``Tcomm = β·x`` (§4)."""
        comm: CostFunction = ZeroCost() if beta == 0 else LinearCost(beta)
        return Processor(name, comm, LinearCost(alpha))

    @staticmethod
    def affine(
        name: str,
        alpha: Scalar,
        beta: Scalar,
        comp_intercept: Scalar = 0,
        comm_intercept: Scalar = 0,
    ) -> "Processor":
        """Processor with affine costs (rates ``α``/``β`` plus intercepts)."""
        comm: CostFunction
        if beta == 0 and comm_intercept == 0:
            comm = ZeroCost()
        else:
            comm = AffineCost(beta, comm_intercept)
        return Processor(name, comm, AffineCost(alpha, comp_intercept))

    # -- model introspection ---------------------------------------------
    @property
    def is_linear(self) -> bool:
        return self.comm.is_linear and self.comp.is_linear

    @property
    def is_affine(self) -> bool:
        return self.comm.is_affine and self.comp.is_affine

    @property
    def is_increasing(self) -> bool:
        return self.comm.is_increasing and self.comp.is_increasing

    @property
    def alpha(self) -> Fraction:
        """Linear/affine compute rate (s/item)."""
        return self.comp.rate

    @property
    def beta(self) -> Fraction:
        """Linear/affine communication rate (s/item); 1/bandwidth."""
        return self.comm.rate

    def __repr__(self) -> str:
        return f"Processor({self.name!r}, comm={self.comm!r}, comp={self.comp!r})"


def _as_counts(counts: Sequence[int], p: int, n: Optional[int]) -> Tuple[int, ...]:
    """``counts`` validated as a tuple of ints (an int tuple is returned
    as it is, so a result shares its plan's counts)."""
    if type(counts) is tuple and all(type(c) is int for c in counts):
        tup = counts
    else:
        tup = tuple(int(c) for c in counts)
    if len(tup) != p:
        raise ValueError(f"distribution has {len(tup)} entries, problem has {p} processors")
    if any(c < 0 for c in tup):
        raise ValueError(f"distribution has negative counts: {tup}")
    if n is not None and sum(tup) != n:
        raise ValueError(f"distribution sums to {sum(tup)}, expected n={n}")
    return tup


@dataclass(frozen=True)
class ScatterProblem:
    """An instance of the paper's load-balancing problem.

    Parameters
    ----------
    processors:
        Ordered processors ``P_1 .. P_p``; **the last one is the root**.
        The order matters: it is the rank order in which the root serves
        the destinations (§2.3 footnote: MPICH scatters follow ranks).
    n:
        Number of independent data items to distribute.
    """

    __slots__ = ("processors", "n")  # see Processor

    processors: Tuple[Processor, ...]
    n: int

    def __init__(self, processors: Iterable[Processor], n: int):
        procs = tuple(processors)
        if not procs:
            raise ValueError("a scatter problem needs at least one processor")
        if n < 0:
            raise ValueError(f"item count must be >= 0, got {n}")
        object.__setattr__(self, "processors", procs)
        object.__setattr__(self, "n", int(n))

    def __reduce__(self) -> Tuple[type, Tuple[Tuple[Processor, ...], int]]:
        return (type(self), (self.processors, self.n))

    # -- basic accessors --------------------------------------------------
    @property
    def p(self) -> int:
        """Number of processors."""
        return len(self.processors)

    @property
    def root(self) -> Processor:
        """The root processor (last by convention)."""
        return self.processors[-1]

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(proc.name for proc in self.processors)

    @property
    def is_linear(self) -> bool:
        return all(proc.is_linear for proc in self.processors)

    @property
    def is_affine(self) -> bool:
        return all(proc.is_affine for proc in self.processors)

    @property
    def is_increasing(self) -> bool:
        return all(proc.is_increasing for proc in self.processors)

    def check_valid(self) -> None:
        """Validate the paper's base hypotheses for every cost function."""
        for proc in self.processors:
            proc.comm.check_valid(self.n)
            proc.comp.check_valid(self.n)

    # -- reordering --------------------------------------------------------
    def with_order(self, order: Sequence[int]) -> "ScatterProblem":
        """Return the problem with processors permuted by ``order``.

        ``order`` lists indices into the current processor tuple; it must be
        a permutation of ``range(p)``.
        """
        if sorted(order) != list(range(self.p)):
            raise ValueError(f"order {order!r} is not a permutation of range({self.p})")
        return ScatterProblem((self.processors[i] for i in order), self.n)

    def with_n(self, n: int) -> "ScatterProblem":
        """Return the same platform with a different item count."""
        return ScatterProblem(self.processors, n)

    # -- evaluation (Eq. 1 / Eq. 2) ----------------------------------------
    def finish_times(self, counts: Sequence[int]) -> List[float]:
        """Per-processor finish times ``T_i`` (Eq. 1), in floats."""
        counts = _as_counts(counts, self.p, None)
        out: List[float] = []
        elapsed = 0.0
        for proc, c in zip(self.processors, counts):
            elapsed += proc.comm(c)
            out.append(elapsed + proc.comp(c))
        return out

    def finish_times_exact(self, counts: Sequence[int]) -> List[Fraction]:
        """Per-processor finish times ``T_i`` in exact rational arithmetic."""
        counts = _as_counts(counts, self.p, None)
        out: List[Fraction] = []
        elapsed = Fraction(0)
        for proc, c in zip(self.processors, counts):
            elapsed += proc.comm.exact(c)
            out.append(elapsed + proc.comp.exact(c))
        return out

    def makespan(self, counts: Sequence[int]) -> float:
        """Total duration ``T`` (Eq. 2), in floats."""
        return max(self.finish_times(counts))

    def makespan_exact(self, counts: Sequence[int]) -> Fraction:
        """Total duration ``T`` (Eq. 2), exact."""
        return max(self.finish_times_exact(counts))

    def comm_end_times(self, counts: Sequence[int]) -> List[float]:
        """Time at which each processor has fully *received* its share.

        These are the tops of the black boxes of Fig. 1 — the "stair
        effect".  Processor ``i`` finishes receiving at
        ``Σ_{j<=i} Tcomm(j, n_j)``.
        """
        counts = _as_counts(counts, self.p, None)
        out: List[float] = []
        elapsed = 0.0
        for proc, c in zip(self.processors, counts):
            elapsed += proc.comm(c)
            out.append(elapsed)
        return out

    def validate(self, counts: Sequence[int]) -> Tuple[int, ...]:
        """Check a distribution (length, non-negativity, sum) and return it."""
        return _as_counts(counts, self.p, self.n)

    # -- canonical distributions -------------------------------------------
    def uniform_distribution(self) -> Tuple[int, ...]:
        """The original program's distribution: ``⌊n/p⌋`` each (§2.2).

        The ``n mod p`` leftover items go one each to the first processors,
        which is the conventional way MPI codes handle a non-divisible
        count (the paper elides this detail "for sake of simplicity").
        """
        return uniform_counts(self.n, self.p)

    def __repr__(self) -> str:
        return f"ScatterProblem(p={self.p}, n={self.n}, root={self.root.name!r})"


def uniform_counts(n: int, p: int) -> Tuple[int, ...]:
    """Uniform split of ``n`` items over ``p`` slots, remainder to the front."""
    if p <= 0:
        raise ValueError(f"need p >= 1, got {p}")
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    base, extra = divmod(n, p)
    return tuple(base + 1 if i < extra else base for i in range(p))


def finish_times(problem: ScatterProblem, counts: Sequence[int]) -> List[float]:
    """Functional alias for :meth:`ScatterProblem.finish_times`."""
    return problem.finish_times(counts)


def makespan(problem: ScatterProblem, counts: Sequence[int]) -> float:
    """Functional alias for :meth:`ScatterProblem.makespan`."""
    return problem.makespan(counts)


@dataclass(frozen=True)
class DistributionResult:
    """A solved distribution with its predicted cost.

    Returned by every solver in :mod:`repro.core`.  ``makespan`` is the
    model-predicted duration (Eq. 2) for ``counts`` on ``problem`` — exact
    solvers fill it from exact arithmetic, float solvers from floats.
    """

    problem: ScatterProblem
    counts: Tuple[int, ...]
    makespan: float
    algorithm: str
    #: Exact rational makespan when the solver computed one.
    makespan_exact: Optional[Fraction] = None
    #: Solver-specific metadata (iterations, bound values, timings...).
    info: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", self.problem.validate(self.counts))

    @property
    def finish_times(self) -> List[float]:
        return self.problem.finish_times(self.counts)

    @property
    def imbalance(self) -> float:
        """Max finish-time spread as a fraction of the makespan.

        The paper quotes this metric: 6% for Fig. 3, about 10% for Fig. 4.
        Processors with zero items are ignored (they never start).
        """
        times = [
            t for t, c in zip(self.finish_times, self.counts) if c > 0
        ] or self.finish_times
        hi = max(times)
        if hi == 0:
            return 0.0
        return (hi - min(times)) / hi

    def as_array(self) -> np.ndarray:
        return np.asarray(self.counts, dtype=np.int64)

    def __repr__(self) -> str:
        return (
            f"DistributionResult(algorithm={self.algorithm!r}, "
            f"makespan={self.makespan:.6g}, counts={self.counts})"
        )

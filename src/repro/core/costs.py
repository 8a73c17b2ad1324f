"""Cost-function model for scatter load-balancing.

The paper characterizes every processor ``P_i`` by two duration functions
(§3.1):

* ``Tcomp(i, x)`` — the time ``P_i`` needs to *compute* ``x`` data items,
* ``Tcomm(i, x)`` — the time the root needs to *send* ``x`` items to ``P_i``.

The algorithms put increasingly strong hypotheses on these functions:

* **Algorithm 1** (``repro.core.dp_basic``) only needs them *non-negative*
  and *null at 0*;
* **Algorithm 2** (``repro.core.dp_optimized``) additionally needs them
  *non-decreasing*;
* the **LP heuristic** (``repro.core.heuristic``) needs them *affine*;
* the **closed form** of §4 (``repro.core.closed_form``) needs them
  *linear* (``α·x`` and ``β·x``).

This module provides one class per hypothesis level plus calibration
helpers (least-squares affine/linear fits) used to build cost models from
measured timings, mirroring the "series of benchmarks we performed on our
application" that produced the paper's Table 1.

All cost classes support exact rational evaluation through
:meth:`CostFunction.exact`, which is what the closed-form solver and the
exact simplex backend consume.  Float evaluation goes through
:meth:`CostFunction.__call__` and the vectorized :meth:`CostFunction.many`.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

try:  # The interpreter's builtin SHA-1, as the stdlib's ``random`` uses its
    # builtin SHA-512: ``hashlib`` would load OpenSSL (~3.5 MiB of RSS) into
    # every process that fingerprints a request.
    from _sha1 import sha1 as _sha1
except ImportError:  # pragma: no cover - interpreters without the builtin
    from hashlib import sha1 as _sha1

from ..lint.runtime import make_lock, note_blocking
from ..obs.metrics import METRICS

__all__ = [
    "Scalar",
    "CostFunction",
    "ZeroCost",
    "LinearCost",
    "AffineCost",
    "TabulatedCost",
    "PiecewiseLinearCost",
    "CallableCost",
    "cost_fingerprint",
    "scale_cost",
    "CostTableCache",
    "DEFAULT_COST_CACHE",
    "get_default_cost_cache",
    "cost_tables",
    "fit_linear",
    "fit_affine",
    "as_fraction",
]

#: Anything accepted as a cost coefficient.
Scalar = Union[int, float, Fraction]


def as_fraction(x: Scalar) -> Fraction:
    """Convert a scalar to an exact :class:`~fractions.Fraction`.

    Floats convert through their exact binary expansion, which is
    deterministic and loss-free; integers and fractions pass through.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, Rational):  # covers int and numpy-free rationals
        return Fraction(x)
    if isinstance(x, float):
        if math.isnan(x) or math.isinf(x):
            raise ValueError(f"cannot convert non-finite value {x!r} to Fraction")
        return Fraction(x)
    if isinstance(x, (np.integer,)):
        return Fraction(int(x))
    if isinstance(x, (np.floating,)):
        return Fraction(float(x))
    raise TypeError(f"unsupported scalar type: {type(x).__name__}")


class CostFunction:
    """Abstract duration function ``x items -> seconds``.

    Subclasses must implement :meth:`exact` (exact rational evaluation at an
    integer point).  Float evaluation and vectorized evaluation have default
    implementations derived from :meth:`exact`, but the analytic subclasses
    override them for speed.

    Attributes
    ----------
    is_increasing:
        True when the function is known to be non-decreasing in ``x``
        (required by Algorithm 2).
    is_affine:
        True when the function is ``rate * x + intercept`` for ``x > 0``
        (required by the LP heuristic).
    is_linear:
        True when additionally ``intercept == 0`` (required by the §4
        closed form and Theorem 3's ordering policy).
    """

    is_increasing: bool = False
    is_affine: bool = False
    is_linear: bool = False

    def exact(self, x: int) -> Fraction:
        """Exact rational value at integer ``x >= 0``."""
        raise NotImplementedError

    def __call__(self, x: Scalar) -> float:
        """Float value at ``x`` (integer or rational points)."""
        return float(self.exact(int(x)))

    def many(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized float evaluation over an integer array."""
        flat = np.asarray(xs).ravel()
        out = np.fromiter((self(int(v)) for v in flat), dtype=float, count=flat.size)
        return out.reshape(np.shape(xs))

    # -- affine accessors ------------------------------------------------
    @property
    def rate(self) -> Fraction:
        """Marginal cost per item (affine/linear functions only)."""
        raise AttributeError(f"{type(self).__name__} has no affine rate")

    @property
    def intercept(self) -> Fraction:
        """Fixed cost paid when at least one item is handled (affine only)."""
        raise AttributeError(f"{type(self).__name__} has no affine intercept")

    def check_valid(self, n: int) -> None:
        """Validate the paper's base hypotheses up to ``n`` items.

        Raises ``ValueError`` if the function is negative somewhere in
        ``[0, n]`` or non-null at 0.  Analytic subclasses validate their
        coefficients instead of sampling.
        """
        if self.exact(0) != 0:
            raise ValueError(f"{self!r} is not null at x=0")
        for x in range(n + 1):
            if self.exact(x) < 0:
                raise ValueError(f"{self!r} is negative at x={x}")


@dataclass(frozen=True)
class ZeroCost(CostFunction):
    """The all-zero cost function.

    Used for the root processor's communication cost (the root holds the
    data, so ``Tcomm(p, x) = 0``; cf. Table 1 where *dinadan* has ``β = 0``).
    """

    is_increasing = True
    is_affine = True
    is_linear = True

    def exact(self, x: int) -> Fraction:
        return Fraction(0)

    def __call__(self, x: Scalar) -> float:
        return 0.0

    def many(self, xs: np.ndarray) -> np.ndarray:
        return np.zeros(np.shape(xs), dtype=float)

    @property
    def rate(self) -> Fraction:
        return Fraction(0)

    @property
    def intercept(self) -> Fraction:
        return Fraction(0)

    def check_valid(self, n: int) -> None:  # always valid
        return


class LinearCost(CostFunction):
    """``T(x) = rate * x`` — the §4 case-study model.

    This is the model the paper uses for its experiments: Table 1 gives a
    per-ray compute cost ``α`` (s/ray) and a per-ray transfer cost ``β``
    (s/ray), both linear ("considering linear communication costs is
    sufficiently accurate in our case since the network latency is
    negligible").
    """

    is_increasing = True
    is_affine = True
    is_linear = True

    __slots__ = ("_rate", "_rate_float")

    def __init__(self, rate: Scalar):
        r = as_fraction(rate)
        if r < 0:
            raise ValueError(f"linear cost rate must be >= 0, got {rate!r}")
        self._rate = r
        self._rate_float = float(r)

    @property
    def rate(self) -> Fraction:
        return self._rate

    @property
    def intercept(self) -> Fraction:
        return Fraction(0)

    def exact(self, x: int) -> Fraction:
        if x < 0:
            raise ValueError(f"negative item count: {x}")
        return self._rate * x

    def __call__(self, x: Scalar) -> float:
        return self._rate_float * float(x)

    def many(self, xs: np.ndarray) -> np.ndarray:
        return self._rate_float * np.asarray(xs, dtype=float)

    def check_valid(self, n: int) -> None:
        return  # valid by construction

    def __repr__(self) -> str:
        return f"LinearCost({self._rate_float:g}/item)"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LinearCost) and other._rate == self._rate

    def __hash__(self) -> int:
        return hash(("LinearCost", self._rate))


class AffineCost(CostFunction):
    """``T(x) = rate * x + intercept`` for ``x > 0``, and ``T(0) = 0``.

    The ``T(0) = 0`` convention keeps the paper's base hypothesis ("null
    whenever x = 0"): a processor that receives no items takes part in no
    transfer and no computation.  The LP heuristic relaxes this to the pure
    affine form (a linear program cannot express the discontinuity), which
    is exactly the approximation the paper makes; the discrepancy is covered
    by the Eq. 4 guarantee.

    Parameters
    ----------
    rate:
        Marginal cost per item (``>= 0``).
    intercept:
        Fixed cost — e.g. network latency for a communication cost, or
        process startup for a computation cost (``>= 0``).
    zero_is_free:
        When True (default), ``T(0) = 0``.  When False the intercept is
        paid even at ``x = 0`` (pure affine function).
    """

    is_increasing = True
    is_affine = True

    __slots__ = ("_rate", "_intercept", "_rate_float", "_icpt_float", "_zero_free")

    def __init__(self, rate: Scalar, intercept: Scalar = 0, *, zero_is_free: bool = True):
        r, c = as_fraction(rate), as_fraction(intercept)
        if r < 0:
            raise ValueError(f"affine cost rate must be >= 0, got {rate!r}")
        if c < 0:
            raise ValueError(f"affine cost intercept must be >= 0, got {intercept!r}")
        self._rate = r
        self._intercept = c
        self._rate_float = float(r)
        self._icpt_float = float(c)
        self._zero_free = bool(zero_is_free)

    @property
    def is_linear(self) -> bool:  # type: ignore[override]
        return self._intercept == 0

    @property
    def rate(self) -> Fraction:
        return self._rate

    @property
    def intercept(self) -> Fraction:
        return self._intercept

    @property
    def zero_is_free(self) -> bool:
        return self._zero_free

    def exact(self, x: int) -> Fraction:
        if x < 0:
            raise ValueError(f"negative item count: {x}")
        if x == 0 and self._zero_free:
            return Fraction(0)
        return self._rate * x + self._intercept

    def __call__(self, x: Scalar) -> float:
        xf = float(x)
        if xf == 0.0 and self._zero_free:
            return 0.0
        return self._rate_float * xf + self._icpt_float

    def many(self, xs: np.ndarray) -> np.ndarray:
        arr = np.asarray(xs, dtype=float)
        out = self._rate_float * arr + self._icpt_float
        if self._zero_free:
            out = np.where(arr == 0.0, 0.0, out)
        return out

    def check_valid(self, n: int) -> None:
        if not self._zero_free and self._intercept != 0:
            raise ValueError(f"{self!r} is not null at x=0 (zero_is_free=False)")

    def __repr__(self) -> str:
        return f"AffineCost({self._rate_float:g}/item + {self._icpt_float:g})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AffineCost)
            and other._rate == self._rate
            and other._intercept == self._intercept
            and other._zero_free == self._zero_free
        )

    def __hash__(self) -> int:
        return hash(("AffineCost", self._rate, self._intercept, self._zero_free))


class TabulatedCost(CostFunction):
    """Cost given by an explicit table ``values[x]`` for ``x in [0, len)``.

    This is the fully general model accepted by Algorithm 1: any measured
    per-count duration profile (e.g. cache cliffs, paging thresholds) can be
    expressed as a table.  Values outside the table raise ``IndexError`` —
    the table must cover ``[0, n]`` for an ``n``-item problem.
    """

    __slots__ = ("_values", "_float_values", "is_increasing", "_key")

    def __init__(self, values: Sequence[Scalar]):
        if len(values) == 0:
            raise ValueError("tabulated cost needs at least the x=0 entry")
        vals = [as_fraction(v) for v in values]
        if any(v < 0 for v in vals):
            raise ValueError("tabulated cost values must be >= 0")
        self._values: Tuple[Fraction, ...] = tuple(vals)
        self._float_values = np.array([float(v) for v in vals], dtype=float)
        self.is_increasing = all(a <= b for a, b in zip(vals, vals[1:]))
        self._key: Optional[str] = None  # cost_fingerprint, once computed

    def __len__(self) -> int:
        return len(self._values)

    def exact(self, x: int) -> Fraction:
        if x < 0:
            raise ValueError(f"negative item count: {x}")
        return self._values[x]

    def __call__(self, x: Scalar) -> float:
        return float(self._float_values[int(x)])

    def many(self, xs: np.ndarray) -> np.ndarray:
        return self._float_values[np.asarray(xs, dtype=int)]

    def check_valid(self, n: int) -> None:
        if len(self._values) <= n:
            raise ValueError(
                f"tabulated cost covers [0, {len(self._values) - 1}], need [0, {n}]"
            )
        if self._values[0] != 0:
            raise ValueError("tabulated cost is not null at x=0")

    def __repr__(self) -> str:
        return f"TabulatedCost(<{len(self._values)} entries>)"


class PiecewiseLinearCost(CostFunction):
    """Continuous piecewise-linear cost through given breakpoints.

    ``breakpoints`` is a sequence of ``(x, t)`` pairs with strictly
    increasing ``x`` starting at ``(0, 0)``.  Between breakpoints the cost
    interpolates linearly; beyond the last breakpoint it extrapolates with
    the final slope.  Models bandwidth regimes (e.g. a TCP slow-start knee)
    while staying inside Algorithm 2's "increasing" hypothesis when slopes
    are non-negative.
    """

    __slots__ = ("_xs", "_ts", "_xs_float", "is_increasing", "_key")

    def __init__(self, breakpoints: Sequence[Tuple[Scalar, Scalar]]):
        if len(breakpoints) < 2:
            raise ValueError("need at least two breakpoints")
        xs = [as_fraction(x) for x, _ in breakpoints]
        ts = [as_fraction(t) for _, t in breakpoints]
        if xs[0] != 0 or ts[0] != 0:
            raise ValueError("first breakpoint must be (0, 0)")
        if any(a >= b for a, b in zip(xs, xs[1:])):
            raise ValueError("breakpoint x-coordinates must be strictly increasing")
        if any(t < 0 for t in ts):
            raise ValueError("breakpoint costs must be >= 0")
        self._xs: Tuple[Fraction, ...] = tuple(xs)
        self._ts: Tuple[Fraction, ...] = tuple(ts)
        self._xs_float = np.array([float(x) for x in xs])
        self._xs_float.setflags(write=False)  # shared by scaled copies
        self.is_increasing = all(a <= b for a, b in zip(ts, ts[1:]))
        self._key: Optional[str] = None  # cost_fingerprint, once computed

    def _ts_float(self) -> np.ndarray:
        """Float breakpoint costs, built per call rather than kept: a
        drifting platform makes one scaled cost per request."""
        return np.array([float(t) for t in self._ts])

    def _scaled(self, f: Fraction) -> "PiecewiseLinearCost":
        """This cost times ``f > 0``, sharing the x-breakpoints."""
        out = object.__new__(PiecewiseLinearCost)
        out._xs, out._xs_float = self._xs, self._xs_float
        out._ts = tuple(t * f for t in self._ts)
        out.is_increasing = self.is_increasing
        out._key = None
        return out

    def exact(self, x: int) -> Fraction:
        if x < 0:
            raise ValueError(f"negative item count: {x}")
        xf = Fraction(x)
        # Find the segment containing x (or extrapolate from the last one).
        xs, ts = self._xs, self._ts
        if xf >= xs[-1]:
            i = len(xs) - 2
        else:
            lo, hi = 0, len(xs) - 2
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if xs[mid] <= xf:
                    lo = mid
                else:
                    hi = mid - 1
            i = lo
        slope = (ts[i + 1] - ts[i]) / (xs[i + 1] - xs[i])
        return ts[i] + slope * (xf - xs[i])

    def __call__(self, x: Scalar) -> float:
        return float(np.interp(float(x), self._xs_float, self._ts_float())) if float(
            x
        ) <= self._xs_float[-1] else float(self.exact(int(x)))

    def many(self, xs: np.ndarray) -> np.ndarray:
        arr = np.asarray(xs, dtype=float)
        x_f, t_f = self._xs_float, self._ts_float()
        inside = np.interp(arr, x_f, t_f)
        # np.interp clamps beyond the last point; extrapolate manually.
        last_slope = (t_f[-1] - t_f[-2]) / (x_f[-1] - x_f[-2])
        beyond = arr > x_f[-1]
        inside[beyond] = t_f[-1] + last_slope * (arr[beyond] - x_f[-1])
        return inside

    def check_valid(self, n: int) -> None:
        return  # (0,0) start and >=0 values enforced at construction

    def __repr__(self) -> str:
        pts = ", ".join(f"({float(x):g},{float(t):g})" for x, t in zip(self._xs, self._ts))
        return f"PiecewiseLinearCost([{pts}])"


class CallableCost(CostFunction):
    """Adapter wrapping an arbitrary ``f(x) -> seconds`` callable.

    The wrapped function is sampled on demand; exact evaluation converts the
    float result to a Fraction (exactly, via the binary expansion).  Declare
    monotonicity explicitly through ``increasing=`` if Algorithm 2 should be
    allowed to use it.
    """

    __slots__ = ("_fn", "is_increasing", "_name")

    def __init__(self, fn: Callable[[int], float], *, increasing: bool = False,
                 name: Optional[str] = None):
        self._fn = fn
        self.is_increasing = bool(increasing)
        self._name = name or getattr(fn, "__name__", "callable")

    def exact(self, x: int) -> Fraction:
        if x < 0:
            raise ValueError(f"negative item count: {x}")
        return as_fraction(self._fn(x))

    def __call__(self, x: Scalar) -> float:
        return float(self._fn(int(x)))

    def __repr__(self) -> str:
        return f"CallableCost({self._name})"


def sha1_hex(text: str) -> str:
    """Hex SHA-1 of ``text`` (UTF-8): the digest behind every value key."""
    return _sha1(text.encode()).hexdigest()


def cost_fingerprint(fn: CostFunction) -> Optional[str]:
    """Exact canonical value key of one cost function, or ``None``.

    The one cost identity of the package: the plan cache keys requests by
    it and evicts dependent plans by it.

    * Coefficients key by their exact :class:`~fractions.Fraction` value
      (``"lin:1/2"``), so the key is stable across processes and Python
      versions: ``LinearCost(Fraction(1, 2))`` and ``LinearCost(0.5)``
      collide, ``LinearCost(Fraction(1, 10))`` and ``LinearCost(0.1)`` do
      not.
    * Degenerate analytic forms collapse: ``AffineCost(a, 0)`` keys as
      ``LinearCost(a)``, any zero-rate linear/affine form keys as
      :class:`ZeroCost`, and ``zero_is_free`` enters the key only when the
      intercept is non-zero (it is unobservable otherwise).  These forms
      agree in exact *and* float semantics and route alike.
    * Tabulated and piecewise costs keep their kind, keyed by their exact
      values, even when those trace a line: their routing differs from
      the analytic classes'.  Their key hashes every value, so it is
      computed once per cost object and kept on it: every fingerprint
      containing the object shares one key string.
    * :class:`CallableCost` (and any other class) wraps arbitrary Python
      with no value identity: ``None``.
    """
    kind = type(fn)
    if kind is ZeroCost:
        return "zero"
    if kind is LinearCost:
        if fn.rate == 0:
            return "zero"
        return f"lin:{fn.rate}"
    if kind is AffineCost:
        if fn.intercept == 0:
            if fn.rate == 0:
                return "zero"
            return f"lin:{fn.rate}"
        return f"aff:{fn.rate}:{fn.intercept}:{int(fn.zero_is_free)}"
    if kind is TabulatedCost or kind is PiecewiseLinearCost:
        if fn._key is None:  # benign race: equal strings either way
            if kind is TabulatedCost:
                body = ";".join(str(v) for v in fn._values)
                fn._key = "tab:" + sha1_hex(body)
            else:
                body = ";".join(f"{x},{t}" for x, t in zip(fn._xs, fn._ts))
                fn._key = "pwl:" + sha1_hex(body)
        return fn._key
    return None


# ---------------------------------------------------------------------------
# Cost-table cache: memoized vectorized tables shared across solver calls.
# ---------------------------------------------------------------------------

def _cost_row(fn: CostFunction, xs: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Float values of ``fn`` at ``xs = [0., 1., …, m]``: its row over ``[0, m]``.

    The one float evaluation of a cost over a contiguous range.  The
    analytic classes are written into ``out`` (same shape as ``xs``; may
    be ``xs`` itself) as ``fl(fl(x·rate) + icpt)`` — float for float what
    ``many()`` returns, without its temporaries, and the expression the
    dp-fast analytic pivot inverse re-derives entries with.  A long enough
    :class:`TabulatedCost` is served as a read-only view of its values;
    every other cost is one ``fn.many`` call (a tabulated cost shorter
    than ``m + 1`` raises there).  The type checks are exact (``type
    is``), so subclasses with an overridden ``many`` take the generic
    path.  Values are prefix-stable: the row over ``[0, m']`` is the
    first ``m' + 1`` entries of the row over ``[0, m]``.
    """
    kind = type(fn)
    if kind is ZeroCost:
        out.fill(0.0)
        return out
    if kind is LinearCost or kind is AffineCost:
        np.multiply(xs, fn._rate_float, out=out)
        if kind is AffineCost:
            if fn._icpt_float:
                out += fn._icpt_float
            if fn._zero_free:
                out[0] = 0.0
        return out
    m = xs.shape[0] - 1
    if kind is TabulatedCost and fn._float_values.shape[0] > m:
        view = fn._float_values[: m + 1]
        view.setflags(write=False)
        return view
    return np.ascontiguousarray(fn.many(np.arange(m + 1)), dtype=float)


def _build_table(fn: CostFunction, n: int) -> np.ndarray:
    """Float table of ``fn`` over ``[0, n]`` (see :func:`_cost_row`)."""
    xs = np.arange(n + 1, dtype=float)
    return _cost_row(fn, xs, xs)


def scale_cost(cost: CostFunction, factor: Scalar) -> CostFunction:
    """Return ``cost`` slowed down by a multiplicative load ``factor``.

    A host at load 1.3 computes 1.3× slower per item; a link whose
    bandwidth halves doubles its per-item transfer term.  Scaling is exact
    (the factor converts to a :class:`~fractions.Fraction`) so that two
    equal factors produce value-equal cost functions — which is what lets
    caches keyed by cost value (:class:`CostTableCache`,
    :class:`~repro.core.incremental.IncrementalPlanner` state) recognise a
    repeated perturbation.
    """
    if factor <= 0:
        raise ValueError(f"load factor must be > 0, got {factor}")
    f = as_fraction(factor)
    if f == 1:
        return cost
    if isinstance(cost, ZeroCost):
        return cost
    if isinstance(cost, LinearCost):
        return LinearCost(cost.rate * f)
    if isinstance(cost, AffineCost):
        return AffineCost(
            cost.rate * f, cost.intercept * f, zero_is_free=cost.zero_is_free
        )
    if isinstance(cost, TabulatedCost):
        return TabulatedCost([cost.exact(i) * f for i in range(len(cost))])
    if isinstance(cost, PiecewiseLinearCost):
        return cost._scaled(f)
    raise TypeError(f"cannot scale cost function {cost!r}")


class _InFlight:
    """One in-progress tabulation: waiters block on ``event``."""

    __slots__ = ("event", "n")

    def __init__(self, n: int):
        self.event = threading.Event()
        self.n = n


class CostTableCache:
    """Memoizes ``fn.many(arange(n + 1))`` tables keyed by cost function.

    The paper's Algorithm 1/2 kernels (:mod:`~repro.core.dp_basic`,
    :mod:`~repro.core.dp_optimized`) and the :mod:`repro.verify.references`
    cross-checks start by tabulating each processor's ``Tcomm``/``Tcomp``
    over ``[0, n]`` — an O(p·n) rebuild that a sweep or a verification run
    repeats for every solve over the same platform.  (dp-fast evaluates
    its cost rows per solve instead and never touches this cache.)  This
    cache makes that step amortized-free: tables are keyed by
    the cost-function object (the analytic classes hash by value, so two
    ``LinearCost(0.01)`` instances share one entry; tabulated/callable costs
    key by identity) and stored at the largest ``n`` seen, with smaller
    requests served as read-only prefix views.

    The cache is thread-safe (the parallel sweep evaluator and the serve
    layer hit it from worker threads), LRU-bounded, and *single-flight* per
    key: when N requesters miss on the same function concurrently, exactly
    one tabulates while the others wait on a per-key event and then take
    the hit path (``hits`` counts them as hits-after-wait, never as
    misses).  The table-driven solvers report per-call hit/miss deltas in
    ``DistributionResult.info["cost_cache"]``.
    """

    def __init__(self, maxsize: int = 256):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = int(maxsize)
        self._tables: "OrderedDict[CostFunction, np.ndarray]" = OrderedDict()
        self._inflight: Dict[CostFunction, _InFlight] = {}
        self._lock = make_lock("CostTableCache._lock")
        self.hits = 0
        self.misses = 0
        self.waits = 0

    def table(self, fn: CostFunction, n: int) -> np.ndarray:
        """Float table of ``fn`` over ``[0, n]`` (read-only array view)."""
        if n < 0:
            raise ValueError(f"need n >= 0, got {n}")
        while True:
            with self._lock:
                cached = self._tables.get(fn)
                if cached is not None and cached.shape[0] >= n + 1:
                    self.hits += 1
                    self._tables.move_to_end(fn)
                    METRICS.counter("core.cost_cache.hits").inc()
                    return cached[: n + 1]
                flight = self._inflight.get(fn)
                if flight is None:
                    flight = _InFlight(n)
                    self._inflight[fn] = flight
                    break
                self.waits += 1
            # Another thread is already tabulating this function: wait for
            # its commit instead of duplicating the O(n) build, then loop —
            # normally straight into the hit path above.  If the builder's
            # table is too short for our n (or the builder raised), the
            # re-check misses and we become the next builder.
            METRICS.counter("core.cost_cache.single_flight_waits").inc()
            note_blocking("CostTableCache.single_flight_wait")
            flight.event.wait()
        try:
            note_blocking("CostTableCache.tabulate")
            arr = _build_table(fn, n)
            arr.setflags(write=False)
            METRICS.counter("core.cost_cache.misses").inc()
            with self._lock:
                self.misses += 1
                existing = self._tables.get(fn)
                if existing is None or existing.shape[0] < arr.shape[0]:
                    self._tables[fn] = arr
                self._tables.move_to_end(fn)
                while len(self._tables) > self.maxsize:
                    self._tables.popitem(last=False)
        finally:
            # Wake waiters only after the table landed (or the build
            # failed); waking earlier would let them miss and re-tabulate.
            with self._lock:
                if self._inflight.get(fn) is flight:
                    del self._inflight[fn]
            flight.event.set()
        return arr[: n + 1]

    def stats(self) -> Dict[str, int]:
        """Snapshot of ``{"hits", "misses", "waits", "entries"}``."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "waits": self.waits,
                "entries": len(self._tables),
            }

    def clear(self) -> None:
        with self._lock:
            self._tables.clear()
            self.hits = 0
            self.misses = 0
            self.waits = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._tables)

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"CostTableCache(entries={s['entries']}, hits={s['hits']}, "
            f"misses={s['misses']})"
        )


#: Process-wide default cache of the table-driven solvers.
DEFAULT_COST_CACHE = CostTableCache()


def get_default_cost_cache() -> CostTableCache:
    """The cache solvers use when called without an explicit ``cache=``."""
    return DEFAULT_COST_CACHE


def cost_tables(
    processors: Sequence,  # Sequence[Processor]; duck-typed to avoid a cycle
    n: int,
    *,
    cache: Optional[CostTableCache] = None,
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Per-processor ``(comm, comp)`` float tables over ``[0, n]``, cached.

    Returns two parallel lists of read-only arrays of length ``n + 1``.
    ``cache=None`` uses :data:`DEFAULT_COST_CACHE`; pass a private
    :class:`CostTableCache` for isolation (tests do).
    """
    c = get_default_cost_cache() if cache is None else cache
    comm = [c.table(proc.comm, n) for proc in processors]
    comp = [c.table(proc.comp, n) for proc in processors]
    return comm, comp


# ---------------------------------------------------------------------------
# Calibration: fit cost models from measured (count, seconds) samples.
# ---------------------------------------------------------------------------

def fit_linear(counts: Iterable[Scalar], seconds: Iterable[Scalar]) -> LinearCost:
    """Least-squares fit of a :class:`LinearCost` through the origin.

    This is how Table 1's ``α`` ("seconds per ray") and ``β`` ("seconds per
    data element") columns are produced from timing benchmarks: a linear
    regression constrained through 0.
    """
    x = np.asarray(list(counts), dtype=float)
    t = np.asarray(list(seconds), dtype=float)
    if x.size == 0 or x.size != t.size:
        raise ValueError("need equal, non-zero numbers of counts and timings")
    denom = float(np.dot(x, x))
    if denom == 0.0:
        raise ValueError("all sample counts are zero; cannot fit a rate")
    rate = float(np.dot(x, t)) / denom
    return LinearCost(max(rate, 0.0))


def fit_affine(counts: Iterable[Scalar], seconds: Iterable[Scalar]) -> AffineCost:
    """Least-squares fit of an :class:`AffineCost` (rate plus intercept).

    Negative fitted coefficients are clamped to zero (measured timings can
    produce a slightly negative intercept; the model requires ``>= 0``).
    """
    x = np.asarray(list(counts), dtype=float)
    t = np.asarray(list(seconds), dtype=float)
    if x.size < 2 or x.size != t.size:
        raise ValueError("need at least two (count, seconds) samples")
    A = np.vstack([x, np.ones_like(x)]).T
    (rate, icpt), *_ = np.linalg.lstsq(A, t, rcond=None)
    return AffineCost(max(float(rate), 0.0), max(float(icpt), 0.0))

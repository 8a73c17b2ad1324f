"""Fast exact kernel for Algorithm 2's recurrence (the solver backbone).

:func:`solve_dp_fast` solves the same problem as
:func:`repro.core.dp_optimized.solve_dp_optimized` — the paper's Algorithm 2
recurrence for *increasing* cost functions —

    cost[d, i] = min_{0 <= e <= d}  Tcomm(i, e)
                 + max( Tcomp(i, e), cost[d - e, i + 1] )

but replaces its per-``d`` interpreted Python loops with array-level work.
It returns the same optimal makespan (up to float associativity; counts may
break ties differently).

Structure exploited
-------------------
For a fixed ``d`` the candidates split at the pivot ``E(d)`` — the smallest
``e`` with ``Tcomp(i, e) >= cost[d - e, i + 1]`` (the quantity Algorithm 2
binary-searches, paper lines 16–26):

* ``e >= E(d)``: the candidate is ``Tcomm + Tcomp``, both non-decreasing, so
  ``e = E(d)`` dominates the whole upper range;
* ``e < E(d)``: the max resolves to the DP row, so the candidate is
  ``Tcomm(i, e) + cost[d - e, i + 1]``.

Instead of binary-searching ``E(d)`` per ``d``, the whole pivot *staircase*
is recovered at once from its inverse: with ``K(m)`` the smallest ``e`` with
``Tcomp(i, e) >= cost[m, i + 1]``, the map ``j(m) = m + K(m)`` is strictly
increasing and ``E(d) = d - max{m : j(m) <= d}``.  For affine ``Tcomp``
(the calibrated-platform case) ``K`` is the *analytic inverse* of the
tabulated cost — a guarded ceil-division whose one-sided rounding margin is
repaired by a single table probe, giving the exact table crossing without
any search; for general increasing ``Tcomp`` it is one vectorized
``searchsorted``.  Inverting ``j`` is a counting scatter plus a running
maximum, so the full staircase costs O(n) per row.

Since ``E(d + 1) <= E(d) + 1`` and ``E`` is non-decreasing, the below-pivot
range is a *sliding window* in ``m = d - e`` space whose two ends are both
monotone.  On a piece where ``Tcomm(i, ·)`` is affine (``s·e + c`` for
``e in [e_lo, e_hi]``), the window minimum of
``Tcomm(i, d - m) + cost[m, i + 1]`` equals
``s·d + c + min_m (cost[m, i + 1] - s·m)`` over
``m in [max(d - e_hi, d - E(d) + 1), d - e_lo]``: a sliding-window minimum
over a *static* array, with both window ends still non-decreasing in
``d``.  An affine link is one piece ``[1, n]``; a
:class:`~repro.core.costs.PiecewiseLinearCost` with K segments is K pieces
(:func:`_comm_pieces`), so its row costs O(K·n).
:func:`_window_min_monotone` answers every window of a piece offline in
amortized O(n): windows narrower than :data:`_NARROW` (a prefix of ``d``)
take a few doubling range-min levels, and the monotone left ends cut the
rest of ``[0, n]`` into disjoint segments, each answered with one
suffix-minimum scan plus one prefix-minimum scan — the O(p·n)
specialization of the divide-and-conquer/monotone-argmin idea
(:mod:`repro.verify.references` keeps the explicit O(n log n)
divide-and-conquer recursion, and the general scan for piecewise links,
as independent cross-checks).  A sparse-table range-min
(:func:`_window_argmin`) remains as the fallback for adversarial
staircases where the segment decomposition degenerates.

The kernel stores row *values* only and recovers the choice of each
visited ``(i, d)`` cell at reconstruction time with one vectorized
argmin per processor — O(p·n) total, and nothing per-``d`` in interpreted
Python anywhere on the window path.  All whole-row temporaries live in a
preallocated :class:`_RowScratch` pack reused across rows: at n = 10⁶ the
first-touch page faults on fresh 8 MB arrays would otherwise dominate the
cold run.

Row ``i`` reads processor ``i``'s costs alone, so the kernel keeps no cost
tables: row ``i`` (and the reconstruction walk at ``P_i``) evaluates
``Tcomm(i, ·)``/``Tcomp(i, ·)`` into two scratch slots just before use
(:func:`~repro.core.costs._cost_row` — the analytic classes in closed
form, tabulated costs as views of their values), and a solve's memory is
its workspace plus the rows it returns.

Window values equal the scan's up to the last ulps (the shift
identity reassociates one sum).  Rows whose communication cost is
increasing but neither affine nor piecewise-linear (tabulated
measurements, :class:`~repro.core.costs.CallableCost`) fall back to an
exact pivot-restricted vectorized scan, one interpreted step per ``d``.
``info["rows_affine"]`` counts the rows on the window path (affine and
piecewise-linear links), ``info["rows_general_scan"]`` the scanned ones.

The kernel registers in :data:`repro.core.solver.ALGORITHMS` as
``"dp-fast"``; ``plan_scatter(algorithm="auto")`` routes every general
increasing-cost instance to it at any ``n``.
"""

from __future__ import annotations

import math
import threading
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.profiler import stage_profile
from .costs import CostFunction, PiecewiseLinearCost, _cost_row
from .distribution import DistributionResult, Processor, ScatterProblem

__all__ = ["solve_dp_fast"]

#: Max Python-level segment iterations in :func:`_window_min_monotone`
#: before falling back to the sparse table (adversarial staircases only).
_SEGMENT_BUDGET = 4096

#: Window width from which :func:`_window_min_monotone` walks; narrower
#: windows take :func:`_narrow_prefix`'s doubling levels (a power of two).
_NARROW = 256

#: Relative margin for the analytic affine-table inverse: covers the
#: worst-case rounding of ``fl(fl(rate·e) + icpt)`` vs the real line plus
#: the fused multiply/subtract of the inverse itself (< 5 ulp total; 8e-16
#: per unit of ``value/rate`` overestimates that bound ≥ 1.7×).
_INVERSE_MARGIN = 8e-16


class _RowScratch:
    """Preallocated whole-row buffers shared by every row of one solve.

    Each slot is an ``n + 1``-element array consumed with ``out=``; a
    p-row solve then performs O(1) large allocations instead of
    O(p · passes).  Beyond allocator pressure, this is what makes the
    *cold* run land near the warm one: fresh 8 MB arrays are page-faulted
    on first touch, and at n = 10⁶ those faults cost more than the
    arithmetic they back.
    """

    __slots__ = (
        "n",
        "m_arr",
        "d_float",
        "qf",
        "vf",
        "sv",
        "win",
        "both",
        "ji",
        "scat",
        "piv",
        "ix",
        "bl",
        "comm",
        "comp",
        "line",
    )

    def __init__(self, n: int):
        self.n = n
        # Index-sized slots are int32 (n is bounded far below 2³¹): on this
        # fault-dominated cold path every megabyte of footprint is latency,
        # and the staircase passes touch these arrays every row.
        self.m_arr = np.arange(n + 1, dtype=np.int32)
        self.d_float = self.m_arr.astype(float)
        self.qf = np.empty(n + 1)  # analytic inverse estimate K(m)
        self.vf = np.empty(n + 1)  # table probe / float staircase map
        self.sv = np.empty(n + 1)  # shifted row prev[m] - comm_i[m]
        self.win = np.empty(n + 1)  # sliding-window minima / b_vals
        self.both = np.empty(n + 1)  # comm + comp
        self.ji = np.empty(n + 1, dtype=np.int32)  # staircase map j(m)
        self.scat = np.empty(n + 3, dtype=np.int32)  # j-inverse scatter
        self.piv = np.empty(n + 1, dtype=np.int32)  # pivots E(d)
        self.ix = np.empty(n + 1, dtype=np.int32)  # window gather indices
        self.bl = np.empty(n + 1, dtype=bool)
        self.comm = np.empty(n + 1)  # the current processor's Tcomm row
        self.comp = np.empty(n + 1)  # the current processor's Tcomp row
        self.line = np.empty(n + 1)  # one piecewise-linear piece's line

    def cost_rows(self, proc: Processor, m: int) -> Tuple[np.ndarray, np.ndarray]:
        """``proc``'s ``(Tcomm, Tcomp)`` over ``[0, m]``, valid until the
        next call (analytic costs land in the ``comm``/``comp`` slots)."""
        xs = self.d_float[: m + 1]
        return (
            _cost_row(proc.comm, xs, self.comm[: m + 1]),
            _cost_row(proc.comp, xs, self.comp[: m + 1]),
        )


class _Workspace:
    """One solve's worth of buffers, cached per thread between solves.

    The warm-path motivation: glibc returns the ~230 MB of large buffers a
    n = 10⁶ solve uses straight to the OS on free, so a fresh solve would
    re-page-fault all of it.  Keeping the most recent workspace alive per
    thread makes repeated solves genuinely warm.  Only the latest (n, p)
    shape is retained, so steady-state memory is bounded by one solve.
    """

    __slots__ = ("scratch", "rows_buf")

    def __init__(self, n: int, rows_p: int):
        self.scratch = _RowScratch(n)
        self.rows_buf = np.empty((rows_p, n + 1))


_TLS = threading.local()


def _get_workspace(n: int, rows_p: int) -> _Workspace:
    ws = getattr(_TLS, "ws", None)
    if ws is not None and ws.scratch.n == n and ws.rows_buf.shape[0] >= rows_p:
        return ws
    ws = _Workspace(n, rows_p)
    _TLS.ws = ws
    return ws


def _affine_inverse(
    comp_fn: Optional[CostFunction],
    comp_i: np.ndarray,
    prev: np.ndarray,
    s: _RowScratch,
) -> Optional[np.ndarray]:
    """Exact table inverse ``K(m) = min{e : comp_i[e] >= prev[m]}`` via a
    guarded fused ceil-division, for affine ``comp_fn`` — or None when the
    analytic route cannot be certified exact (zero/huge rate ratios).

    The estimate ``ceil(prev·c1 - c2)`` (``c1, c2`` folding the rate
    division and a one-sided rounding margin) is provably in ``{K - 1, K}``
    once the margin dominates every float error mapped to units of ``e``
    (the ``< 0.5`` guard checks it stays below half a step); one arithmetic
    table probe — the same expression the table was built from — then
    decides which, so the result matches the float table's crossing
    *exactly*, ties included.  ``prev`` must be non-decreasing (DP rows
    over increasing costs are).
    """
    if comp_fn is None or not getattr(comp_fn, "is_affine", False):
        return None
    alpha = float(comp_fn.rate)
    a = float(comp_fn.intercept)
    if not (alpha > 0.0 and np.isfinite(alpha) and a >= 0.0 and np.isfinite(a)):
        return None
    marg = _INVERSE_MARGIN / alpha
    if not ((float(prev[-1]) + a) * marg < 0.5):  # margin would blur a step
        return None
    c1 = 1.0 / alpha - marg
    c2 = a / alpha + a * marg
    q = s.qf
    np.multiply(prev, c1, out=q)
    if c2 != 0.0:
        q -= c2
    np.ceil(q, out=q)
    np.maximum(q, 1.0, out=q)
    v = np.multiply(q, alpha, out=s.vf)
    if a != 0.0:
        v += a
    np.less(v, prev, out=s.bl)
    q += s.bl  # one-sided repair: the estimate is in {K-1, K}
    # No upper clamp: "no e qualifies" values (> n) are absorbed by the
    # staircase map's own clip to n + 2.
    idx = int(np.searchsorted(prev, comp_i[0], side="right"))
    if idx:  # prev non-decreasing: the K = 0 region is a prefix
        q[:idx] = 0.0
    return q


def _pivot_staircase(
    comp_fn: Optional[CostFunction],
    comp_i: np.ndarray,
    prev: np.ndarray,
    s: _RowScratch,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """Invert ``j(m) = m + K(m)`` into the whole pivot staircase at once.

    Returns ``(pivots, maxm, j, degenerate)``:

    * ``pivots[d] = E(d)`` — the smallest ``e in [0, d]`` with
      ``comp_i[e] >= prev[d - e]``, degenerating to ``d`` when no ``e``
      qualifies (non-null-at-0 cost models), exactly like Algorithm 2's
      boundary branch;
    * ``maxm[d] = max{m : j(m) <= d}`` — the below-pivot window is
      ``m in [maxm[d] + 1, d - 1]`` (empty iff ``maxm[d] + 1 > d - 1``);
      ``E`` is non-decreasing, so emptiness is a prefix property;
    * ``j`` — the clipped integer staircase map (consumed by the segment
      walk: ``maxm[d] + 1 <= hi  iff  d < j[hi]``);
    * ``degenerate`` — True when some ``d`` had an empty feasible set,
      i.e. ``pivots`` was clamped and the pivot predicate cannot be
      assumed to hold at ``E(d)``.
    """
    n = s.n
    K = _affine_inverse(comp_fn, comp_i, prev, s)
    if K is not None:
        np.add(K, s.d_float, out=s.vf)  # j strictly increases: K monotone
        np.minimum(s.vf, float(n + 2), out=s.vf)
        np.copyto(s.ji, s.vf, casting="unsafe")
    else:
        K = np.searchsorted(comp_i, prev, side="left")
        np.add(K, s.m_arr, out=s.ji)
        np.minimum(s.ji, n + 2, out=s.ji)
    # j is strictly increasing pre-clip, so the scatter is collision-free
    # below n + 2 and a running maximum completes the inverse.
    s.scat.fill(-1)
    s.scat[s.ji] = s.m_arr
    maxm = s.scat[: n + 1]
    np.maximum.accumulate(maxm, out=maxm)
    np.subtract(s.m_arr, maxm, out=s.piv)  # E(d) = d - max m
    degenerate = bool(maxm[0] < 0)  # only possible when prev[0] > comp_i[0]
    if degenerate:
        np.minimum(s.piv, s.m_arr, out=s.piv)  # Algorithm 2 boundary: E = d
    return s.piv, maxm, s.ji, degenerate


def _window_argmin(
    values: np.ndarray, w_lo: np.ndarray, w_hi: np.ndarray
) -> np.ndarray:
    """Vectorized range-argmin: for each ``d``, the index of the minimum of
    ``values`` over ``[w_lo[d], w_hi[d]]`` (``-1`` where the window is empty).

    Sparse-table (doubling) range-minimum structure: ``O(n log n)`` build,
    one vectorized two-probe lookup for all queries.  Ties resolve to the
    leftmost covered index, which only affects count tie-breaking.  Kept as
    the fallback for staircases that defeat the amortized segment walk.
    """
    m = values.shape[0]
    levels = max(1, int(m).bit_length())
    vals = np.empty((levels, m), dtype=float)
    idxs = np.empty((levels, m), dtype=np.int64)
    vals[0] = values
    idxs[0] = np.arange(m)
    half = 1
    for k in range(1, levels):
        vals[k] = vals[k - 1]
        idxs[k] = idxs[k - 1]
        lim = m - half
        if lim > 0:
            left = vals[k - 1, :lim]
            right = vals[k - 1, half : half + lim]
            take_right = right < left
            vals[k, :lim] = np.where(take_right, right, left)
            idxs[k, :lim] = np.where(
                take_right, idxs[k - 1, half : half + lim], idxs[k - 1, :lim]
            )
        half *= 2

    out = np.full(w_lo.shape, -1, dtype=np.int64)
    lengths = w_hi - w_lo + 1
    valid = lengths > 0
    if not valid.any():
        return out
    lv = lengths[valid]
    # floor(log2) via frexp — exact for integer inputs, no float-log rounding.
    k = np.frexp(lv.astype(np.float64))[1] - 1
    a = w_lo[valid]
    b = w_hi[valid] - (np.int64(1) << k) + 1
    v1, v2 = vals[k, a], vals[k, b]
    i1, i2 = idxs[k, a], idxs[k, b]
    out[valid] = np.where(v2 < v1, i2, i1)
    return out


def _first_pivot_at_least(pivots: np.ndarray, e: int) -> int:
    """The first ``d`` with ``E(d) >= e`` (``n + 1`` if none).

    The key is cast to the pivots' int32: a Python int would make
    ``searchsorted`` convert the whole row first.
    """
    return int(pivots.searchsorted(np.int32(e), side="left"))


def _narrow_prefix(
    values: np.ndarray,
    e_lo: int,
    e_hi: int,
    pivots: np.ndarray,
    maxm: np.ndarray,
    d_start: int,
    s: _RowScratch,
) -> int:
    """Answer the windows narrower than :data:`_NARROW` into ``win``;
    returns the first ``d`` left for the block walk.

    On a non-degenerate staircase the window width
    ``min(e_hi - e_lo + 1, E(d) - e_lo)`` is non-decreasing in ``d``, so
    the narrow windows are a prefix of ``d`` and each power-of-two width
    band ``[h, 2h)`` is a contiguous run of it.  Band ``h`` reads the
    doubling level ``L_h[m] = min values[m .. m + h - 1]`` at the
    window's two ends, and each level is one shifted minimum of the one
    before: O(log _NARROW) vectorized passes over the prefix instead of
    one walk iteration per ``d``.
    """
    n = s.n
    cap = e_hi - e_lo + 1

    def first(width: int) -> int:  # first d whose window is >= width wide
        if width > cap:
            return n + 1
        return _first_pivot_at_least(pivots, width + e_lo)

    d_w = first(_NARROW)
    if d_w <= d_start:
        return d_start
    base = max(d_start - e_hi, int(maxm[d_start]) + 1)  # lo(d_start)
    level = values[base : d_w - e_lo]
    win, ix = s.win, s.ix
    bufs = (s.qf, s.vf)
    a, h = d_start, 1
    while True:
        b = min(first(2 * h), d_w)
        if b > a:
            # Left ends lo(d) = max(d - e_hi, maxm[d] + 1), shifted by base.
            lo = np.add(maxm[a:b], 1 - base, out=ix[: b - a])
            if e_hi < n:
                np.maximum(lo, s.m_arr[a:b] - (e_hi + base), out=lo)
            left = np.take(level, lo, out=win[a:b], mode="clip")
            r0 = a - e_lo - h + 1 - base  # right ends hi(d) - h + 1
            np.minimum(left, level[r0 : r0 + b - a], out=left)
            a = b
        if a >= d_w:
            return d_w
        size = level.shape[0] - h
        level = np.minimum(level[:size], level[h:], out=bufs[h.bit_length() & 1][:size])
        h *= 2


def _window_min_monotone(
    values: np.ndarray,
    e_lo: int,
    e_hi: int,
    pivots: np.ndarray,
    maxm: np.ndarray,
    j: np.ndarray,
    d_start: int,
    degenerate: bool,
    s: _RowScratch,
) -> np.ndarray:
    """Offline sliding-window minima into ``win``:
    ``win[d] = min values[lo(d) .. hi(d)]`` for ``d in [d_start, n]``, with
    ``lo(d) = max(d - e_hi, maxm[d] + 1)`` and ``hi(d) = d - e_lo`` — the
    below-pivot candidates ``e in [e_lo, min(e_hi, E(d) - 1)]`` in
    ``m = d - e`` space.  Amortized O(n).

    Both ends are non-decreasing in ``d``.  Windows narrower than
    :data:`_NARROW` (a prefix of ``d``) are answered by
    :func:`_narrow_prefix`.  From there the monotone left ends split the
    rest into *disjoint* support segments: while queries' left ends stay
    inside ``[lo, hi]`` (frozen at the segment's first query ``d0``), the
    window decomposes as a suffix of the segment plus a prefix of the
    elements after it.  One reversed ``minimum.accumulate`` answers every
    suffix, one forward ``minimum.accumulate`` every prefix, and the
    segment's query span comes straight from the staircase map
    (``maxm[d] + 1 <= hi  iff  d < j[hi]``) and the cap
    (``d - e_hi <= hi``), so each element is scanned at most twice per
    row.  Every walk segment spans at least one window width of ``d``.
    Degenerate staircases (no narrow prefix: their widths are not
    monotone) that would force many Python iterations trip
    :data:`_SEGMENT_BUDGET` and finish on the sparse table instead.
    """
    n = s.n
    win = s.win
    capped = e_hi < n
    d0 = d_start
    if not degenerate:
        d0 = _narrow_prefix(values, e_lo, e_hi, pivots, maxm, d_start, s)
    rev_buf, pre_buf, ix = s.qf, s.vf, s.ix  # free after the staircase
    minimum, macc, take = np.minimum, np.minimum.accumulate, np.take
    iters = 0
    while d0 <= n:
        iters += 1
        if iters > _SEGMENT_BUDGET:
            w_lo = maxm[d0:] + 1
            if capped:
                np.maximum(w_lo, s.m_arr[d0:] - e_hi, out=w_lo)
            w_hi = np.arange(d0 - e_lo, n + 1 - e_lo, dtype=np.int64)
            m_star = _window_argmin(values, w_lo, w_hi)
            win[d0:] = values[m_star]  # every window here is non-empty
            break
        hi = d0 - e_lo
        lo = max(d0 - e_hi, int(maxm[d0]) + 1)
        d_end = min(int(j[hi]) - 1, hi + e_hi, n)
        # Stage a contiguous reversed copy first: ufunc.accumulate takes a
        # slow buffered path on negative-stride views.
        rev = rev_buf[: hi + 1 - lo]
        rev[:] = values[lo : hi + 1][::-1]
        macc(rev, out=rev)
        # rev[k] = min values[hi - k .. hi]; the window starts at lo(d).
        idx = np.subtract(hi - 1, maxm[d0 : d_end + 1], out=ix[: d_end + 1 - d0])
        if capped:
            np.minimum(idx, (hi + e_hi) - s.m_arr[d0 : d_end + 1], out=idx)
        left = take(rev, idx, out=win[d0 : d_end + 1], mode="clip")
        if d_end > d0:  # plus values[hi + 1 .. hi(d)]
            pre = macc(values[hi + 1 : d_end + 1 - e_lo], out=pre_buf[: d_end - d0])
            minimum(left[1:], pre, out=left[1:])
        d0 = d_end + 1
    return win


def _comm_pieces(
    fn: CostFunction, comm_i: np.ndarray, s: _RowScratch
) -> Iterator[Tuple[int, int, np.ndarray, float]]:
    """The affine pieces of ``Tcomm(i, ·)`` on ``e in [1, n]``.

    Yields ``(e_lo, e_hi, line, c)``: on ``e in [e_lo, e_hi]`` the cost is
    ``line[d] - line[d - e] + c``, where ``line`` holds
    ``fl(fl(m·slope) + c)`` over ``[0, n]`` and its value at ``m = 0`` is
    taken to be ``c``.  An affine link is one piece whose line is its own
    cost row (equal to that formula wherever the row is read).  A
    :class:`PiecewiseLinearCost` yields one piece per segment, its
    integer range ``[max(1, ⌈x_k⌉), ⌈x_{k+1}⌉ − 1]`` taken from the
    exact breakpoints (the last runs to ``n``) and its line built in the
    ``line`` slot, so consume each piece before drawing the next.
    """
    n = s.n
    if fn.is_affine:
        yield 1, n, comm_i, float(fn.intercept)
        return
    xs, ts = fn._xs, fn._ts
    last = len(xs) - 2
    for k in range(last + 1):
        e_lo = max(1, math.ceil(xs[k]))
        e_hi = n if k == last else min(n, math.ceil(xs[k + 1]) - 1)
        if e_lo > e_hi:
            continue
        slope = (ts[k + 1] - ts[k]) / (xs[k + 1] - xs[k])
        c = float(ts[k] - slope * xs[k])
        line = np.multiply(s.d_float, float(slope), out=s.line)
        if c != 0.0:
            line += c
        yield e_lo, e_hi, line, c


def _row_window_values(
    comm_fn: CostFunction,
    comm_i: np.ndarray,
    comp_i: np.ndarray,
    prev: np.ndarray,
    pivots: np.ndarray,
    maxm: np.ndarray,
    j: np.ndarray,
    degenerate: bool,
    s: _RowScratch,
    out: np.ndarray,
) -> np.ndarray:
    """Value-only row update for piecewise-affine ``Tcomm``, into ``out``.

    ``out[d] = min(cand0, windows, pivot)``.  On each piece (see
    :func:`_comm_pieces`) the below-pivot candidates are
    ``line[d] + c + min_m (prev[m] - line[m])``: a window minimum over a
    *static* shifted row, so a row costs O(K·n) for K pieces.  The pivot
    candidate is read from ``comm + comp`` directly: the pivot predicate
    guarantees the ``max`` resolves to ``comp`` there (except on clamped
    degenerate staircases, which fall back to the explicit max).
    """
    n = s.n
    if not degenerate:
        # Pivots are non-decreasing, so comm + comp is only ever gathered
        # from [0, pivots[n]] — usually a small fraction of the row.
        emax = int(pivots[n])
        np.add(comm_i[: emax + 1], comp_i[: emax + 1], out=s.both[: emax + 1])
        np.take(s.both[: emax + 1], pivots, out=out, mode="clip")
    else:  # non-null-at-0 model: E(d) may be the clamped d
        out[:] = comm_i[pivots] + np.maximum(comp_i[pivots], prev[s.m_arr - pivots])
    for e_lo, e_hi, line, c in _comm_pieces(comm_fn, comm_i, s):
        d_start = _first_pivot_at_least(pivots, e_lo + 1)
        if d_start > n:  # E(d) <= e_lo everywhere: no below-pivot candidate
            continue
        # comm(e) + prev[m] = line[d] + c + (prev[m] - line[m]), e = d - m.
        np.subtract(prev, line, out=s.sv)
        s.sv[0] = prev[0] - c
        win = _window_min_monotone(
            s.sv, e_lo, e_hi, pivots, maxm, j, d_start, degenerate, s
        )
        b_vals = np.add(line[d_start:], win[d_start:], out=win[d_start:])
        if c != 0.0:
            b_vals += c
        np.minimum(out[d_start:], b_vals, out=out[d_start:])
    if comm_i[0] == 0.0 and comp_i[0] == 0.0:
        np.minimum(out, prev, out=out)  # e = 0: skip this processor
    else:
        np.minimum(out, comm_i[0] + np.maximum(comp_i[0], prev), out=out)
    out[0] = prev[0]
    return out


def _row_general_values(
    comm_i: np.ndarray,
    comp_i: np.ndarray,
    prev: np.ndarray,
    pivots: np.ndarray,
) -> np.ndarray:
    """Exact row update for arbitrary increasing costs.

    Vectorized scan restricted to ``e <= E(d)`` (everything above the pivot
    is dominated by the pivot candidate for any increasing costs).  Worst
    case ``O(n · E)`` arithmetic, but in NumPy rather than interpreted
    loops.
    """
    n = comm_i.shape[0] - 1
    cur = np.empty(n + 1, dtype=float)
    cur[0] = prev[0]
    for d in range(1, n + 1):
        e_hi = int(pivots[d])
        # prev[d - e] for e = 0..e_hi is prev[d - e_hi : d + 1] reversed.
        cand = comm_i[: e_hi + 1] + np.maximum(
            comp_i[: e_hi + 1], prev[d - e_hi : d + 1][::-1]
        )
        cur[d] = cand.min()
    return cur


def _reconstruct_values(
    rows: List[np.ndarray],
    procs: Sequence[Processor],
    n: int,
    s: _RowScratch,
) -> Tuple[int, ...]:
    """Recover ``n_1 .. n_p`` from stored row *values* alone.

    The fast rows never materialize per-``d`` argmins; the single cell
    visited per processor on the reconstruction walk is re-argmin'ed
    directly from that processor's cost rows over ``[0, d]`` — one
    vectorized scan over ``e in [0, d]`` per processor, O(p·n) total.
    """
    counts = []
    d = n
    chunk = 1 << 16
    for i in range(len(procs) - 1):
        if d == 0:
            counts.append(0)
            continue
        nxt = rows[i + 1]
        comm_i, comp_i = s.cost_rows(procs[i], d)
        # Chunked scan with exact early exit: every candidate satisfies
        # cand(e) >= comm_i[e] (the max term is non-negative and float
        # addition of a non-negative term never rounds below its other
        # operand), and comm_i is non-decreasing — so once
        # comm_i[start] >= best no later chunk can strictly beat ``best``,
        # and argmin's leftmost tie-break keeps the index already found.
        best = np.inf
        e = 0
        for start in range(0, d + 1, chunk):
            if comm_i[start] >= best:
                break
            stop = min(start + chunk, d + 1)
            cand = np.maximum(
                comp_i[start:stop],
                nxt[d - stop + 1 : d - start + 1][::-1],
                out=s.qf[: stop - start],
            )
            cand += comm_i[start:stop]
            k = int(np.argmin(cand))
            v = float(cand[k])
            if v < best:
                best = v
                e = start + k
        counts.append(e)
        d -= e
    counts.append(d)  # the root takes whatever remains
    return tuple(counts)


def solve_dp_fast(
    problem: ScatterProblem,
    *,
    warm_rows: Optional[Sequence[np.ndarray]] = None,
    collect: Optional[dict] = None,
) -> DistributionResult:
    """Algorithm 2's optimum via the vectorized pivot-staircase kernel.

    Exact for every increasing-cost instance; amortized ``O(p · n)`` when
    the communication costs are affine/linear (the calibrated-platform
    case) — analytic pivot inverse, counting-scatter staircase inversion,
    and offline monotone sliding-window minima, with zero per-``d``
    interpreted work — and ``O(p · K · n)`` when they are piecewise-linear
    with up to K segments (one window pass per segment).  Only tabulated
    and callable communication costs take the exact pivot-restricted
    scan, one interpreted step per ``d``.  ``info["rows_affine"]`` counts
    the rows on the window path, ``info["rows_general_scan"]`` the
    scanned ones.  The returned makespan matches
    :func:`solve_dp_optimized` (counts may break cost ties differently).

    Parameters
    ----------
    warm_rows:
        Optional back-to-front stack of already-computed DP rows
        (``warm_rows[0]`` = the root's base row, ``warm_rows[j]`` = the row
        for the suffix starting at ``P_{p-1-j}``), each of length
        ``n + 1``.  Rows depend only on the *suffix* of processors behind
        them, and every per-``d`` value is a pure function of cost values
        at indices ``<= d`` — so rows computed for a larger instance, served
        here as prefix views, are bit-identical to what a cold solve would
        produce.  The first ``len(warm_rows)`` row computations are skipped
        outright; that is the
        :class:`repro.core.incremental.IncrementalPlanner` warm path.
    collect:
        When given, receives the solve's reusable state:
        ``collect["rows"]`` = front-ordered *owned* rows (buffer-backed rows
        are copied out, warm rows pass through).
    """
    if not problem.is_increasing:
        raise ValueError(
            "dp-fast requires non-decreasing cost functions; "
            "use solve_dp_basic for general costs"
        )
    p, n = problem.p, problem.n
    procs = problem.processors
    prof = stage_profile()

    warm = list(warm_rows) if warm_rows else []
    k0 = len(warm)
    if k0 > p:
        raise ValueError(f"{k0} warm rows for p={p} processors")
    if any(row.shape[0] != n + 1 for row in warm):
        raise ValueError(f"warm rows must have length n + 1 = {n + 1}")
    ws = _get_workspace(n, p)
    s = ws.scratch
    rows_buf = ws.rows_buf
    rows: List[np.ndarray] = []  # filled back-to-front (root first)
    rows_affine = 0
    rows_general = 0

    with prof.stage("dp_rows"):
        if k0:
            rows.extend(warm)
            prev = warm[-1]
        else:
            comm_root, comp_root = s.cost_rows(procs[p - 1], n)
            prev = np.add(comm_root, comp_root, out=rows_buf[0])
            rows.append(prev)
        for k, i in enumerate(range(p - 2 - max(k0 - 1, 0), -1, -1), start=max(k0, 1)):
            comm_i, comp_i = s.cost_rows(procs[i], n)
            pivots, maxm, j, degen = _pivot_staircase(
                procs[i].comp, comp_i, prev, s
            )
            comm = procs[i].comm
            if comm.is_affine or type(comm) is PiecewiseLinearCost:
                rows_affine += 1
                cur = _row_window_values(
                    comm, comm_i, comp_i, prev, pivots, maxm, j, degen, s, rows_buf[k]
                )
            else:
                rows_general += 1
                rows_buf[k][:] = _row_general_values(comm_i, comp_i, prev, pivots)
                cur = rows_buf[k]
            rows.append(cur)
            prev = cur

    with prof.stage("reconstruct"):
        rows.reverse()  # rows[i] = DP values for the suffix starting at P_i
        counts = _reconstruct_values(rows, procs, n, s)
    if collect is not None:
        # Promote the rows to owned, immutable state: buffer-backed rows
        # live in the thread-local workspace (overwritten by the next
        # solve), so they are copied out; warm rows were owned already.
        owned: List[np.ndarray] = []
        for row in rows:
            if row.base is rows_buf:
                row = row.copy()
                row.setflags(write=False)
            owned.append(row)
        collect["rows"] = owned
    prof.note(
        table_entries=2 * p * (n + 1),
        row_bytes=sum(row.nbytes for row in rows),
    )
    info = {"rows_affine": rows_affine, "rows_general_scan": rows_general}
    if k0:
        info["warm_rows"] = k0
    profile = prof.as_info()
    if profile is not None:
        info["profile"] = profile
    return DistributionResult(
        problem=problem,
        counts=counts,
        makespan=float(prev[n]),
        algorithm="dp-fast",
        info=info,
    )
